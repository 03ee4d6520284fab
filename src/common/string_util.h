// Small string helpers shared across the parser, planner, CSV codecs and
// the JSON surfaces.
#ifndef GOLA_COMMON_STRING_UTIL_H_
#define GOLA_COMMON_STRING_UTIL_H_

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace gola {

/// ASCII lower-casing (SQL identifiers/keywords are case-insensitive).
std::string ToLower(std::string_view s);
std::string ToUpper(std::string_view s);

/// Concatenates string-like parts by appending each to one string. Use it
/// instead of chains of `"literal" + std::string`: GCC 12 at -O3 inlines
/// those temporaries into a false -Wrestrict positive.
template <typename... Parts>
std::string StrCat(const Parts&... parts) {
  std::string out;
  (out.append(std::string_view(parts)), ...);
  return out;
}

/// Joins the parts with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// Splits on a single character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char sep);

/// Strips ASCII whitespace from both ends.
std::string_view Trim(std::string_view s);

/// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Escapes `s` for the inside of a JSON string literal: `"`, `\` and every
/// byte below 0x20 (`\n`, `\r` and `\t` by name, the rest as `\u00XX`).
std::string JsonEscape(std::string_view s);

/// `v` as a JSON number (`%.*g`), or `null` when it is not finite: JSON has
/// no inf or nan.
std::string JsonNumber(double v, int precision = 6);

/// True if `s` equals `keyword` ignoring ASCII case.
bool EqualsIgnoreCase(std::string_view s, std::string_view keyword);

}  // namespace gola

#endif  // GOLA_COMMON_STRING_UTIL_H_
