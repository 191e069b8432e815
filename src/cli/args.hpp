// Minimal command-line flag parser for the srm_cli tool.
//
// Grammar: `srm_cli <command> [--name value]... [--switch]...`.
// Unknown flags are an error; every accessor validates its type and
// reports the offending flag by name. Flag errors are user input, not
// contract violations: they throw srm::InvalidArgument with the plain
// message ("missing required flag --csv"), never an SRM_EXPECTS report.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace srm::cli {

class Args {
 public:
  /// Parses `argv`-style tokens (excluding the program and command names).
  /// Throws srm::InvalidArgument on malformed input (flag without a value
  /// is allowed — it becomes a boolean switch).
  static Args parse(const std::vector<std::string>& tokens);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get_string(const std::string& name,
                                       const std::string& fallback) const;
  [[nodiscard]] std::string require_string(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  /// Non-negative integer flag (counts, sizes, thread counts). Rejects
  /// negative values with an error naming the flag.
  [[nodiscard]] std::size_t get_size(const std::string& name,
                                     std::size_t fallback) const;

  /// Names that were never read — used to reject typos.
  [[nodiscard]] std::vector<std::string> unused() const;
  /// Throws srm::InvalidArgument naming the first unused flag, if any.
  void reject_unused() const;

 private:
  std::map<std::string, std::string> values_;
  mutable std::map<std::string, bool> consumed_;
};

}  // namespace srm::cli
