#include "util/args.hpp"

#include <stdexcept>

namespace fedco::util {

ArgParser::ArgParser(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("---", 0) == 0) {
      throw std::invalid_argument{"ArgParser: malformed option " + token};
    }
    if (token.rfind("--", 0) == 0) {
      const std::string body = token.substr(2);
      if (body.empty()) {
        throw std::invalid_argument{"ArgParser: empty option name"};
      }
      const auto eq = body.find('=');
      if (eq != std::string::npos) {
        options_[body.substr(0, eq)] = body.substr(eq + 1);
        continue;
      }
      // Look ahead: a following token that is not an option is this
      // option's value.
      if (i + 1 < argc && std::string{argv[i + 1]}.rfind("--", 0) != 0) {
        options_[body] = argv[++i];
      } else {
        options_[body] = "";
      }
      continue;
    }
    positional_.push_back(token);
  }
}

bool ArgParser::has(const std::string& name) const {
  touched_[name] = true;
  return options_.contains(name);
}

std::string ArgParser::get(const std::string& name,
                           const std::string& fallback) const {
  touched_[name] = true;
  const auto it = options_.find(name);
  return it == options_.end() ? fallback : it->second;
}

double ArgParser::get_double(const std::string& name, double fallback) const {
  const std::string value = get(name);
  if (value.empty()) return fallback;
  std::size_t consumed = 0;
  const double parsed = std::stod(value, &consumed);
  if (consumed != value.size()) {
    throw std::invalid_argument{"ArgParser: --" + name + " expects a number, got '" +
                                value + "'"};
  }
  return parsed;
}

std::int64_t ArgParser::get_int(const std::string& name,
                                std::int64_t fallback) const {
  const std::string value = get(name);
  if (value.empty()) return fallback;
  std::size_t consumed = 0;
  const long long parsed = std::stoll(value, &consumed);
  if (consumed != value.size()) {
    throw std::invalid_argument{"ArgParser: --" + name +
                                " expects an integer, got '" + value + "'"};
  }
  return parsed;
}

std::uint64_t ArgParser::get_count(const std::string& name,
                                   std::uint64_t fallback) const {
  const std::string value = get(name);
  if (value.empty()) return fallback;
  const std::int64_t parsed = get_int(name, 0);
  if (parsed < 0) {
    throw std::invalid_argument{"ArgParser: --" + name +
                                " expects a non-negative integer, got '" +
                                value + "'"};
  }
  return static_cast<std::uint64_t>(parsed);
}

bool ArgParser::get_bool(const std::string& name, bool fallback) const {
  if (!has(name)) return fallback;
  const std::string value = get(name);
  if (value.empty() || value == "1" || value == "true" || value == "yes" ||
      value == "on") {
    return true;
  }
  if (value == "0" || value == "false" || value == "no" || value == "off") {
    return false;
  }
  throw std::invalid_argument{"ArgParser: --" + name +
                              " expects a boolean, got '" + value + "'"};
}

std::vector<std::string> ArgParser::unused() const {
  std::vector<std::string> out;
  for (const auto& [name, value] : options_) {
    const auto it = touched_.find(name);
    if (it == touched_.end() || !it->second) out.push_back(name);
  }
  return out;
}

}  // namespace fedco::util
