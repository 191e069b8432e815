#include "support/csv.hpp"

#include <charconv>
#include <fstream>
#include <sstream>

#include "support/error.hpp"

namespace srm::support {

namespace {

bool is_blank(char c) { return c == ' ' || c == '\t'; }

void trim(std::string& cell) {
  const auto b = cell.find_first_not_of(" \t");
  if (b == std::string::npos) {
    cell.clear();
    return;
  }
  const auto e = cell.find_last_not_of(" \t");
  cell = cell.substr(b, e - b + 1);
}

}  // namespace

CsvRows read_csv(std::istream& in) {
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();

  CsvRows rows;
  std::size_t i = 0;
  const std::size_t n = text.size();
  while (i < n) {
    // Record start: classify the line as comment / blank / data by its
    // first non-space character (quoted continuation lines never reach
    // here, so '#' inside a quoted cell is plain data).
    std::size_t j = i;
    while (j < n && is_blank(text[j])) ++j;
    if (j < n && text[j] == '#') {
      while (j < n && text[j] != '\n') ++j;
      i = j < n ? j + 1 : n;
      continue;
    }
    if (j >= n) break;
    if (text[j] == '\n' || (text[j] == '\r' && j + 1 < n &&
                            text[j + 1] == '\n')) {
      i = text[j] == '\n' ? j + 1 : j + 2;
      continue;
    }

    std::vector<std::string> row;
    bool record_done = false;
    while (!record_done) {
      while (i < n && is_blank(text[i])) ++i;
      std::string cell;
      if (i < n && text[i] == '"') {
        // Quoted cell: verbatim contents, "" unescapes to ", may span
        // newlines.
        ++i;
        bool closed = false;
        while (i < n) {
          const char c = text[i++];
          if (c == '"') {
            if (i < n && text[i] == '"') {
              cell += '"';
              ++i;
              continue;
            }
            closed = true;
            break;
          }
          cell += c;
        }
        SRM_EXPECTS(closed, "CSV: unterminated quoted cell");
        while (i < n && is_blank(text[i])) ++i;
        SRM_EXPECTS(i >= n || text[i] == ',' || text[i] == '\n' ||
                        (text[i] == '\r' && i + 1 < n && text[i + 1] == '\n'),
                    "CSV: unexpected character after closing quote");
      } else {
        // Bare cell: up to the next separator, trimmed of surrounding
        // whitespace.
        while (i < n && text[i] != ',' && text[i] != '\n') cell += text[i++];
        if (i < n && text[i] == '\n' && !cell.empty() && cell.back() == '\r') {
          cell.pop_back();
        }
        trim(cell);
      }
      row.push_back(std::move(cell));
      if (i < n && text[i] == '\r' && i + 1 < n && text[i + 1] == '\n') ++i;
      if (i >= n || text[i] == '\n') {
        record_done = true;
        if (i < n) ++i;
      } else {
        ++i;  // ','
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

CsvRows read_csv_file(const std::string& path) {
  std::ifstream in(path);
  require_input(in.good(), "cannot open CSV file: " + path);
  return read_csv(in);
}

bool csv_needs_quoting(const std::string& cell) {
  if (cell.empty()) return false;
  if (cell.find_first_of(",\"\n\r") != std::string::npos) return true;
  // The reader trims bare cells and treats a leading '#' as a comment
  // marker, so those must be quoted to survive a round trip.
  return is_blank(cell.front()) || is_blank(cell.back()) ||
         cell.front() == '#';
}

void write_csv(std::ostream& out, const CsvRows& rows) {
  for (const auto& row : rows) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c != 0) out << ',';
      if (csv_needs_quoting(row[c])) {
        out << '"';
        for (const char ch : row[c]) {
          if (ch == '"') out << '"';
          out << ch;
        }
        out << '"';
      } else {
        out << row[c];
      }
    }
    out << '\n';
  }
}

void write_csv_file(const std::string& path, const CsvRows& rows) {
  std::ofstream out(path);
  SRM_EXPECTS(out.good(), "cannot open CSV file for writing: " + path);
  write_csv(out, rows);
  SRM_EXPECTS(out.good(), "write failed for CSV file: " + path);
}

double parse_double(const std::string& cell) {
  double value = 0.0;
  const char* begin = cell.data();
  const char* end = begin + cell.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  SRM_EXPECTS(ec == std::errc{} && ptr == end,
              "malformed numeric CSV cell: '" + cell + "'");
  return value;
}

long long parse_count(const std::string& cell) {
  long long value = 0;
  const char* begin = cell.data();
  const char* end = begin + cell.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  require_input(ec == std::errc{} && ptr == end && value >= 0,
                "malformed count CSV cell: '" + cell + "'");
  return value;
}

}  // namespace srm::support
