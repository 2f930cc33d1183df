//===- StringUtils.h - Small string helpers --------------------*- C++ -*-===//
///
/// \file
/// String splitting, trimming, joining and strict number parsing helpers
/// shared by the front ends and the on-disk record grammars.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_SUPPORT_STRINGUTILS_H
#define LOCUS_SUPPORT_STRINGUTILS_H

#include <charconv>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace locus {

/// Splits \p Text on \p Sep; empty pieces are kept.
std::vector<std::string> splitString(std::string_view Text, char Sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view trimString(std::string_view Text);

/// Joins \p Parts with \p Sep between consecutive elements.
std::string joinStrings(const std::vector<std::string> &Parts,
                        std::string_view Sep);

/// Returns true if \p Text begins with \p Prefix.
bool startsWith(std::string_view Text, std::string_view Prefix);

/// Returns true if \p Text ends with \p Suffix.
bool endsWith(std::string_view Text, std::string_view Suffix);

/// Parses all of \p Text as one number via std::from_chars (\p Base applies
/// to integer types). Empty input, leading whitespace or '+', trailing
/// bytes, out-of-range values and a '-' on an unsigned type are rejected.
/// \p Out is written only on success.
template <typename T>
bool parseNumber(std::string_view Text, T &Out, int Base = 10) {
  if (Text.empty())
    return false;
  const char *End = Text.data() + Text.size();
  T Value{};
  std::from_chars_result R;
  if constexpr (std::is_floating_point_v<T>)
    R = std::from_chars(Text.data(), End, Value);
  else
    R = std::from_chars(Text.data(), End, Value, Base);
  if (R.ec != std::errc() || R.ptr != End)
    return false;
  Out = Value;
  return true;
}

} // namespace locus

#endif // LOCUS_SUPPORT_STRINGUTILS_H
