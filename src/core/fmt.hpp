// Locale-independent floating-point formatting and parsing.
//
// Every byte-comparable surface in the simulator — campaign CSV/JSON
// exports, to_string(RunResult), the metrics and ledger reports, CSV trace
// playback — routes doubles through these helpers instead of snprintf/strtod.
// The printf family and strtod honor the process locale: under a de_DE-style
// LC_NUMERIC they emit and expect ',' as the decimal separator, which turns
// "valid CSV/JSON" into garbage and silently truncates "3.14" to 3 on the
// parse side. std::to_chars / std::from_chars are defined to use the "C"
// locale unconditionally, and the shortest form is round-trip exact by
// construction: parse_double(format_double(v)) reproduces v bit for bit for
// every finite double (and inf/nan by class).
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace msehsim {

/// Appends the shortest decimal form of @p v that parses back to the
/// identical bits. Integral values print without a trailing ".0" ("7", not
/// "7.0"), matching the old %.17g behavior for grid indices and seeds.
void append_double(std::string& out, double v);

/// The shortest round-trip-exact decimal form of @p v.
[[nodiscard]] std::string format_double(double v);

/// printf "%.*f" equivalent, always in the C locale.
[[nodiscard]] std::string format_double_fixed(double v, int precision);

/// printf "%.*g" equivalent (trailing zeros trimmed), always in the C locale.
[[nodiscard]] std::string format_double_general(double v, int precision);

/// @p s escaped for the body of a JSON string: '"' and '\\' backslashed,
/// \n \r \t as their short escapes, every other byte below 0x20 as
/// \u00xx (lowercase hex). All other bytes, UTF-8 multibyte sequences
/// included, pass through unchanged. The campaign JSON export and the
/// Chrome trace both escape through this.
[[nodiscard]] std::string json_escape(std::string_view s);

/// Strict unsigned-integer parse with the same full-consumption rules as
/// parse_double: leading/trailing ASCII whitespace skipped, one optional
/// leading '+', decimal digits only (no 0x, no sign, no exponent), the rest
/// of @p text fully consumed. Returns nullopt on empty, non-digit, trailing-
/// junk, or > 2^64-1 input — the daemon's numeric flags and request fields
/// validate through this instead of strtoul's accept-anything prefix parse.
[[nodiscard]] std::optional<unsigned long long> parse_unsigned(
    std::string_view text);

/// Locale-independent strtod replacement with strict-cell semantics: skips
/// leading/trailing ASCII whitespace, accepts one leading '+' (which
/// std::from_chars rejects but strtod allowed), parses "inf"/"nan" forms,
/// and requires the remainder of @p text to be fully consumed. Returns
/// nullopt on empty, trailing-junk, or out-of-range input — a mis-localized
/// "3,14" no longer silently parses as 3.
[[nodiscard]] std::optional<double> parse_double(std::string_view text);

}  // namespace msehsim
