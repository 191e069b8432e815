#include "cli/args.hpp"

#include <charconv>

#include "support/error.hpp"
#include "support/format.hpp"

namespace srm::cli {

Args Args::parse(const std::vector<std::string>& tokens) {
  Args args;
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    if (token.rfind("--", 0) != 0) {
      throw InvalidArgument("expected a --flag, got '" + token + "'");
    }
    const std::string name = token.substr(2);
    if (name.empty()) throw InvalidArgument("empty flag name");
    if (args.values_.contains(name)) {
      throw InvalidArgument("duplicate flag --" + name);
    }
    if (i + 1 < tokens.size() && tokens[i + 1].rfind("--", 0) != 0) {
      args.values_[name] = tokens[i + 1];
      ++i;
    } else {
      args.values_[name] = "";  // boolean switch
    }
    args.consumed_[name] = false;
  }
  return args;
}

bool Args::has(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return false;
  consumed_[name] = true;
  return true;
}

std::string Args::get_string(const std::string& name,
                             const std::string& fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  consumed_[name] = true;
  return it->second;
}

std::string Args::require_string(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end() || it->second.empty()) {
    throw InvalidArgument("missing required flag --" + name);
  }
  consumed_[name] = true;
  return it->second;
}

double Args::get_double(const std::string& name, double fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  consumed_[name] = true;
  double value = 0.0;
  const auto& text = it->second;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw InvalidArgument("flag --" + name + " expects a number, got '" +
                          text + "'");
  }
  return value;
}

std::int64_t Args::get_int(const std::string& name,
                           std::int64_t fallback) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  consumed_[name] = true;
  std::int64_t value = 0;
  const auto& text = it->second;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw InvalidArgument("flag --" + name + " expects an integer, got '" +
                          text + "'");
  }
  return value;
}

std::size_t Args::get_size(const std::string& name,
                           std::size_t fallback) const {
  const std::int64_t value =
      get_int(name, static_cast<std::int64_t>(fallback));
  if (value < 0) {
    throw InvalidArgument("flag --" + name +
                          " expects a non-negative integer, got " +
                          support::dec(value));
  }
  return static_cast<std::size_t>(value);
}

std::vector<std::string> Args::unused() const {
  std::vector<std::string> names;
  for (const auto& [name, value] : values_) {
    if (!consumed_.at(name)) names.push_back(name);
  }
  return names;
}

}  // namespace srm::cli
