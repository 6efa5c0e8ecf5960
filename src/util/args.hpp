// Minimal command-line argument parser for the fedco_sim CLI and examples.
// Supports --key value, --key=value, and bare --flag forms.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fedco::util {

class ArgParser {
 public:
  /// Parses argv[1..argc). Throws std::invalid_argument on a malformed
  /// option (e.g. "---x" or a value-looking token with no option).
  ArgParser(int argc, const char* const* argv);

  /// Was --name present (with or without a value)?
  [[nodiscard]] bool has(const std::string& name) const;

  /// String value of --name, or `fallback` when absent. A flag given
  /// without a value yields the empty string.
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback = "") const;

  /// Numeric accessors; throw std::invalid_argument when the present value
  /// does not parse.
  [[nodiscard]] double get_double(const std::string& name, double fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;
  /// get_int for counts (users, slots, jobs, ...): a negative value throws
  /// std::invalid_argument naming the option, before any unsigned cast
  /// could wrap it.
  [[nodiscard]] std::uint64_t get_count(const std::string& name,
                                        std::uint64_t fallback) const;

  [[nodiscard]] const std::vector<std::string>& positional() const noexcept {
    return positional_;
  }

  /// Option names seen but never queried via has/get*; used to report
  /// probable typos.
  [[nodiscard]] std::vector<std::string> unused() const;

 private:
  std::map<std::string, std::string> options_;
  std::vector<std::string> positional_;
  mutable std::map<std::string, bool> touched_;
};

}  // namespace fedco::util
