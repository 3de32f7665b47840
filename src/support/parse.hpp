// Strict number parsing for every reader of untrusted text: files on
// disk and command-line options.
#pragma once

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>

#include "support/error.hpp"

namespace portatune {

/// Parse the whole of `text` as a T (integers in `base`). Empty text,
/// trailing bytes and out-of-range values throw portatune::Error naming
/// `what` and the text — never std::invalid_argument or out_of_range.
template <typename T>
T parse_number(std::string_view text, const std::string& what,
               int base = 10) {
  T value{};
  const char* end = text.data() + text.size();
  std::from_chars_result r;
  if constexpr (std::is_floating_point_v<T>)
    r = std::from_chars(text.data(), end, value);
  else
    r = std::from_chars(text.data(), end, value, base);
  if (r.ec != std::errc() || r.ptr != end)
    throw Error(what + ": malformed number '" + std::string(text) + "'");
  return value;
}

}  // namespace portatune
