#include "obs/format.h"

#include <cctype>
#include <stdexcept>

#include "common/error.h"

namespace p2plb::obs {

bool path_has_extension(std::string_view path,
                        std::string_view extension) noexcept {
  if (path.size() < extension.size()) return false;
  const std::string_view tail = path.substr(path.size() - extension.size());
  for (std::size_t i = 0; i < extension.size(); ++i) {
    const auto a =
        std::tolower(static_cast<unsigned char>(tail[i]));
    const auto b =
        std::tolower(static_cast<unsigned char>(extension[i]));
    if (a != b) return false;
  }
  return true;
}

double parse_number(std::string_view text, const std::string& context) {
  try {
    std::size_t used = 0;
    const double v = std::stod(std::string(text), &used);
    P2PLB_REQUIRE_MSG(used == text.size(),
                      "trailing garbage in number: " + context);
    return v;
  } catch (const std::invalid_argument&) {
    throw PreconditionError("not a number: " + context);
  } catch (const std::out_of_range&) {
    throw PreconditionError("number out of range: " + context);
  }
}

}  // namespace p2plb::obs
