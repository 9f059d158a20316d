// TextTable rendering and CSV round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <clocale>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>

#include "core/csv.hpp"
#include "core/fmt.hpp"
#include "core/error.hpp"
#include "core/stats.hpp"
#include "core/table.hpp"

namespace msehsim {
namespace {

TEST(TextTable, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "10000"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| name "), std::string::npos);
  EXPECT_NE(out.find("| alpha "), std::string::npos);
  EXPECT_NE(out.find("| 10000 "), std::string::npos);
  // Header separator present.
  EXPECT_NE(out.find("|--"), std::string::npos);
}

TEST(TextTable, RowArityEnforced) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), SpecError);
}

TEST(TextTable, EmptyHeadersRejected) {
  EXPECT_THROW(TextTable({}), SpecError);
}

TEST(TextTable, RowAccess) {
  TextTable t({"a"});
  t.add_row({"x"});
  EXPECT_EQ(t.rows(), 1u);
  EXPECT_EQ(t.columns(), 1u);
  EXPECT_EQ(t.row(0)[0], "x");
}

TEST(Format, Fixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(1.0, 0), "1");
}

TEST(Format, PowerPrefixes) {
  EXPECT_EQ(format_power(0.0), "0 W");
  EXPECT_EQ(format_power(1.5), "1.5 W");
  EXPECT_EQ(format_power(2e-3), "2 mW");
  EXPECT_EQ(format_power(5e-6), "5 uW");
  EXPECT_EQ(format_power(3e-9), "3 nW");
  EXPECT_EQ(format_power(1200.0), "1.2 kW");
}

TEST(Format, CurrentPrefixes) {
  EXPECT_EQ(format_current(5e-6), "5 uA");
  EXPECT_EQ(format_current(75e-6), "75 uA");
  EXPECT_EQ(format_current(0.25), "250 mA");
}

TEST(Format, EnergyPrefixes) {
  EXPECT_EQ(format_energy(20e3), "20 kJ");
  EXPECT_EQ(format_energy(0.5), "500 mJ");
}

TEST(Csv, ParseSimple) {
  const auto data = parse_csv("time,x\n0,1\n1,2.5\n");
  ASSERT_EQ(data.headers.size(), 2u);
  EXPECT_EQ(data.headers[0], "time");
  ASSERT_EQ(data.rows.size(), 2u);
  EXPECT_DOUBLE_EQ(data.rows[1][1], 2.5);
}

TEST(Csv, ParseHandlesCrLf) {
  const auto data = parse_csv("a,b\r\n1,2\r\n");
  ASSERT_EQ(data.rows.size(), 1u);
  EXPECT_DOUBLE_EQ(data.rows[0][1], 2.0);
}

TEST(Csv, ColumnLookup) {
  const auto data = parse_csv("a,b,c\n1,2,3\n");
  EXPECT_EQ(data.column("b"), 1u);
  EXPECT_THROW((void)data.column("zz"), SpecError);
}

TEST(Csv, RejectsArityMismatch) {
  EXPECT_THROW(parse_csv("a,b\n1\n"), SpecError);
}

TEST(Csv, RejectsNonNumeric) {
  EXPECT_THROW(parse_csv("a\nhello\n"), SpecError);
}

TEST(Csv, RejectsEmpty) { EXPECT_THROW(parse_csv(""), SpecError); }

TEST(Csv, WriteAndReadBack) {
  Series s1("p");
  Series s2("q");
  for (int i = 0; i < 5; ++i) {
    s1.push(Seconds{static_cast<double>(i)}, i * 1.5);
    s2.push(Seconds{static_cast<double>(i)}, i * -2.0);
  }
  const std::string path = testing::TempDir() + "/msehsim_csv_test.csv";
  write_csv(path, {&s1, &s2});
  const auto data = read_csv(path);
  ASSERT_EQ(data.headers.size(), 3u);
  EXPECT_EQ(data.headers[1], "p");
  ASSERT_EQ(data.rows.size(), 5u);
  EXPECT_DOUBLE_EQ(data.rows[4][1], 6.0);
  EXPECT_DOUBLE_EQ(data.rows[4][2], -8.0);
  std::remove(path.c_str());
}

TEST(Csv, WriteRejectsMismatchedSeries) {
  Series s1("a");
  Series s2("b");
  s1.push(Seconds{0.0}, 1.0);
  EXPECT_THROW(write_csv(testing::TempDir() + "/x.csv", {&s1, &s2}), SpecError);
}

// ---------------------------------------------------------------------------
// core/fmt: locale-independent, round-trip-exact double text
// ---------------------------------------------------------------------------

TEST(Fmt, ShortestFormRoundTripsBitExactly) {
  const double cases[] = {0.0,
                          -0.0,
                          0.1,
                          1.0 / 3.0,
                          0.30000000000000004,
                          1e308,
                          5e-324,  // smallest denormal
                          -123456.789,
                          3.141592653589793};
  for (const double x : cases) {
    const auto parsed = parse_double(format_double(x));
    ASSERT_TRUE(parsed.has_value()) << format_double(x);
    // Bit-level comparison so -0.0 vs +0.0 and denormals are covered.
    EXPECT_EQ(std::signbit(*parsed), std::signbit(x));
    EXPECT_EQ(*parsed, x) << format_double(x);
  }
  // Shortest form, not 17 digits: "0.1" stays "0.1".
  EXPECT_EQ(format_double(0.1), "0.1");
  EXPECT_EQ(format_double(-0.0), "-0");
}

TEST(Fmt, ParseDoubleIsStrictAboutJunk) {
  EXPECT_FALSE(parse_double("").has_value());
  EXPECT_FALSE(parse_double("  ").has_value());
  EXPECT_FALSE(parse_double("abc").has_value());
  EXPECT_FALSE(parse_double("1.5x").has_value());
  EXPECT_FALSE(parse_double("1,5").has_value());  // comma is never a decimal
  EXPECT_DOUBLE_EQ(parse_double(" 2.5 ").value(), 2.5);
  EXPECT_DOUBLE_EQ(parse_double("+3").value(), 3.0);
  EXPECT_DOUBLE_EQ(parse_double("-1e-3").value(), -1e-3);
}

TEST(Fmt, ParseUnsignedRejectsEveryKindOfGarbage) {
  // strtoul's prefix parse read "8junk" as 8 and "junk" as 0; the daemon's
  // numeric flags, Content-Length and request seeds parse through this
  // instead. Each bad spelling must be refused; each good one parse exactly.
  for (const char* bad : {"", " ", "junk", "8junk", "junk8", "8.5", "0x10",
                          "-4", "+", "1e2", " 8 9 ", "18446744073709551616",
                          "99999999999999999999"}) {
    EXPECT_FALSE(parse_unsigned(bad).has_value()) << '"' << bad << '"';
  }
  EXPECT_EQ(parse_unsigned("0").value(), 0u);
  EXPECT_EQ(parse_unsigned("256").value(), 256u);
  EXPECT_EQ(parse_unsigned("18446744073709551615").value(),
            18446744073709551615ull);
  // Surrounding whitespace and a single leading '+' are benign.
  EXPECT_EQ(parse_unsigned(" 8 ").value(), 8u);
  EXPECT_EQ(parse_unsigned("+8").value(), 8u);
}

TEST(Fmt, JsonEscapeCoversQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("\n\r\t"), "\\n\\r\\t");
  EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
  EXPECT_EQ(json_escape(std::string("\x1f", 1)), "\\u001f");
  EXPECT_EQ(json_escape(std::string(1, '\0')), "\\u0000");
  EXPECT_EQ(json_escape("\x20~\x7f"), "\x20~\x7f");  // not control bytes
  // UTF-8 multibyte sequences pass through byte for byte.
  const std::string utf8 = "\xce\xbc" "F \xe2\x80\x94 \xf0\x9f\x94\x8b";
  EXPECT_EQ(json_escape(utf8), utf8);
  EXPECT_EQ(json_escape(""), "");
}

TEST(Fmt, OutputAndParsingIgnoreACommaDecimalLocale) {
  // snprintf("%g") would print "0,5" under de_DE and strtod would stop at
  // the '.' in "3.14"; the charconv paths must not care.
  const char* saved = std::setlocale(LC_ALL, nullptr);
  const std::string restore = saved != nullptr ? saved : "C";
  bool found = false;
  for (const char* name :
       {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8"}) {
    if (std::setlocale(LC_ALL, name) != nullptr) {
      const auto* lc = std::localeconv();
      if (lc != nullptr && lc->decimal_point != nullptr &&
          lc->decimal_point[0] == ',') {
        found = true;
        break;
      }
    }
  }
  if (!found) {
    std::setlocale(LC_ALL, restore.c_str());
    GTEST_SKIP() << "no comma-decimal locale installed on this host";
  }

  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double_fixed(1.25, 2), "1.25");
  EXPECT_EQ(format_double_general(1234.5, 3), "1.23e+03");
  EXPECT_DOUBLE_EQ(parse_double("3.14").value(), 3.14);
  EXPECT_FALSE(parse_double("3,14").has_value());

  // CSV write/read under the hostile locale round-trips bit-exactly.
  Series s("v");
  s.push(Seconds{0.1}, 1.0 / 3.0);
  s.push(Seconds{0.2}, 0.30000000000000004);
  const std::string path = testing::TempDir() + "/msehsim_fmt_locale.csv";
  write_csv(path, {&s});
  std::ifstream in(path);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // Two columns -> exactly one separator comma per line; a locale decimal
  // comma anywhere would add more.
  EXPECT_EQ(std::count(text.begin(), text.end(), ','), 3);
  const CsvData back = read_csv(path);
  ASSERT_EQ(back.rows.size(), 2u);
  EXPECT_EQ(back.rows[0][0], 0.1);
  EXPECT_EQ(back.rows[0][1], 1.0 / 3.0);
  EXPECT_EQ(back.rows[1][1], 0.30000000000000004);
  std::remove(path.c_str());

  std::setlocale(LC_ALL, restore.c_str());
}

}  // namespace
}  // namespace msehsim
