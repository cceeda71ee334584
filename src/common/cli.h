// Minimal command-line flag parsing for the bench/example binaries.
//
// Supported syntax: --name=value, --name value, and bare --name for
// booleans.  Unknown flags and malformed values raise PreconditionError
// so typos in experiment scripts fail loudly instead of silently running
// defaults; each driver's main catches it, prints the message and exits 1.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.h"

namespace p2plb {

/// Parse one unsigned decimal field: digits only, no sign, no spaces.
/// False on anything else, a value past 64 bits included.
[[nodiscard]] bool parse_decimal(std::string_view s, std::uint64_t* out);

/// Parsed command line with typed accessors and a usage printer.
class Cli {
 public:
  /// Declare a flag before parsing.  `doc` appears in usage output.
  void add_flag(const std::string& name, const std::string& doc,
                const std::string& default_value);

  /// Parse argv; throws PreconditionError on unknown or malformed flags.
  /// Returns false (after printing usage) if --help was given.
  [[nodiscard]] bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::string get_string(const std::string& name) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  /// A count flag: decimal digits only, at most `max` (by default the
  /// 64-bit range, i.e. a std::size_t).  A sign, any other character, or
  /// a value past `max` throws PreconditionError naming the flag, so a
  /// negative or overflowing count never wraps into a huge size.
  [[nodiscard]] std::uint64_t get_count(
      const std::string& name,
      std::uint64_t max = std::numeric_limits<std::uint64_t>::max()) const;

  /// Comma-separated list of integers, e.g. --sweep=1,2,4,8.
  [[nodiscard]] std::vector<std::int64_t> get_int_list(
      const std::string& name) const;
  /// Comma-separated list of doubles.
  [[nodiscard]] std::vector<double> get_double_list(
      const std::string& name) const;

  void print_usage(const std::string& program) const;

 private:
  struct Flag {
    std::string doc;
    std::string value;
    std::string default_value;
  };
  [[nodiscard]] const Flag& find(const std::string& name) const;
  std::map<std::string, Flag> flags_;
};

}  // namespace p2plb
