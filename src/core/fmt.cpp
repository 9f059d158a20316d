#include "core/fmt.hpp"

#include <charconv>
#include <system_error>

namespace msehsim {

namespace {

// Worst case for chars_format::fixed is ~309 integral digits plus the
// requested precision; shortest and general forms are tiny. One stack
// buffer covers every caller.
constexpr std::size_t kBufSize = 384;

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\v' ||
         c == '\f';
}

}  // namespace

void append_double(std::string& out, double v) {
  char buf[kBufSize];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof buf, v);
  if (ec == std::errc{}) out.append(buf, ptr);
}

std::string format_double(double v) {
  std::string out;
  append_double(out, v);
  return out;
}

std::string format_double_fixed(double v, int precision) {
  char buf[kBufSize];
  const auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::fixed,
                    precision);
  return ec == std::errc{} ? std::string(buf, ptr) : std::string();
}

std::string format_double_general(double v, int precision) {
  char buf[kBufSize];
  const auto [ptr, ec] =
      std::to_chars(buf, buf + sizeof buf, v, std::chars_format::general,
                    precision);
  return ec == std::errc{} ? std::string(buf, ptr) : std::string();
}

std::string json_escape(std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default: {
        const auto u = static_cast<unsigned char>(c);
        if (u < 0x20) {
          out += "\\u00";
          out += kHex[u >> 4];
          out += kHex[u & 0xf];
        } else {
          out += c;
        }
      }
    }
  }
  return out;
}

std::optional<unsigned long long> parse_unsigned(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && is_space(text[b])) ++b;
  while (e > b && is_space(text[e - 1])) --e;
  if (b == e) return std::nullopt;
  if (text[b] == '+') ++b;  // mirror parse_double's strtod compatibility
  if (b == e) return std::nullopt;
  unsigned long long v{};
  const char* first = text.data() + b;
  const char* last = text.data() + e;
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return v;
}

std::optional<double> parse_double(std::string_view text) {
  std::size_t b = 0;
  std::size_t e = text.size();
  while (b < e && is_space(text[b])) ++b;
  while (e > b && is_space(text[e - 1])) --e;
  if (b == e) return std::nullopt;
  if (text[b] == '+') ++b;  // strtod compatibility; from_chars rejects it
  double v{};
  const char* first = text.data() + b;
  const char* last = text.data() + e;
  const auto [ptr, ec] = std::from_chars(first, last, v);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return v;
}

}  // namespace msehsim
