#include "common/cli.h"

#include <cerrno>
#include <charconv>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "common/error.h"

namespace p2plb {

bool parse_decimal(std::string_view s, std::uint64_t* out) {
  const char* const end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, *out);
  return !s.empty() && ec == std::errc() && ptr == end;
}

void Cli::add_flag(const std::string& name, const std::string& doc,
                   const std::string& default_value) {
  P2PLB_REQUIRE(!name.empty());
  P2PLB_REQUIRE_MSG(!flags_.contains(name), "duplicate flag: " + name);
  flags_[name] = Flag{doc, default_value, default_value};
}

bool Cli::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(argv[0]);
      return false;
    }
    P2PLB_REQUIRE_MSG(arg.rfind("--", 0) == 0, "unexpected argument: " + arg);
    arg.erase(0, 2);
    std::string name = arg;
    std::string value;
    bool has_value = false;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      value = arg.substr(eq + 1);
      has_value = true;
    }
    auto it = flags_.find(name);
    P2PLB_REQUIRE_MSG(it != flags_.end(), "unknown flag: --" + name);
    if (!has_value) {
      // Bare flag: boolean true, unless the next token supplies a value.
      if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      } else {
        value = "true";
      }
    }
    it->second.value = value;
  }
  return true;
}

const Cli::Flag& Cli::find(const std::string& name) const {
  const auto it = flags_.find(name);
  P2PLB_REQUIRE_MSG(it != flags_.end(), "undeclared flag queried: " + name);
  return it->second;
}

std::string Cli::get_string(const std::string& name) const {
  return find(name).value;
}

std::int64_t Cli::get_int(const std::string& name) const {
  const std::string& v = find(name).value;
  char* end = nullptr;
  errno = 0;
  const long long out = std::strtoll(v.c_str(), &end, 10);
  P2PLB_REQUIRE_MSG(end && *end == '\0' && !v.empty() && errno != ERANGE,
                    "flag --" + name + " expects a 64-bit integer, got '" +
                        v + "'");
  return out;
}

double Cli::get_double(const std::string& name) const {
  const std::string& v = find(name).value;
  char* end = nullptr;
  const double out = std::strtod(v.c_str(), &end);
  P2PLB_REQUIRE_MSG(end && *end == '\0' && !v.empty(),
                    "flag --" + name + " expects a number, got '" + v + "'");
  return out;
}

bool Cli::get_bool(const std::string& name) const {
  const std::string& v = find(name).value;
  if (v == "true" || v == "1" || v == "yes" || v == "on") return true;
  if (v == "false" || v == "0" || v == "no" || v == "off" || v.empty())
    return false;
  throw PreconditionError("flag --" + name + " expects a boolean, got '" + v +
                          "'");
}

std::uint64_t Cli::get_count(const std::string& name,
                             std::uint64_t max) const {
  const std::string& v = find(name).value;
  std::uint64_t out = 0;
  if (parse_decimal(v, &out) && out <= max) return out;
  throw PreconditionError("--" + name + " must be a decimal count <= " +
                          std::to_string(max) + ", got '" + v + "'");
}

std::vector<std::int64_t> Cli::get_int_list(const std::string& name) const {
  std::vector<std::int64_t> out;
  std::stringstream ss(find(name).value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    char* end = nullptr;
    errno = 0;
    const long long v = std::strtoll(item.c_str(), &end, 10);
    P2PLB_REQUIRE_MSG(end && *end == '\0' && errno != ERANGE,
                      "flag --" + name + ": bad integer '" + item + "'");
    out.push_back(v);
  }
  return out;
}

std::vector<double> Cli::get_double_list(const std::string& name) const {
  std::vector<double> out;
  std::stringstream ss(find(name).value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    char* end = nullptr;
    const double v = std::strtod(item.c_str(), &end);
    P2PLB_REQUIRE_MSG(end && *end == '\0',
                      "flag --" + name + ": bad number '" + item + "'");
    out.push_back(v);
  }
  return out;
}

void Cli::print_usage(const std::string& program) const {
  std::cout << "usage: " << program << " [flags]\n";
  for (const auto& [name, flag] : flags_) {
    std::cout << "  --" << name << " (default: "
              << (flag.default_value.empty() ? "\"\"" : flag.default_value)
              << ")\n      " << flag.doc << '\n';
  }
}

}  // namespace p2plb
