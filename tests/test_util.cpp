// Unit tests for the util library: integer helpers, formatting, tables,
// deterministic RNG and the one number reader and writer.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>

#include "src/util/math.hpp"
#include "src/util/number.hpp"
#include "src/util/rng.hpp"
#include "src/util/table.hpp"
#include "src/util/units.hpp"

namespace slim {
namespace {

TEST(MathTest, CeilDiv) {
  EXPECT_EQ(ceil_div(0, 4), 0);
  EXPECT_EQ(ceil_div(1, 4), 1);
  EXPECT_EQ(ceil_div(4, 4), 1);
  EXPECT_EQ(ceil_div(5, 4), 2);
  EXPECT_EQ(ceil_div(8, 4), 2);
}

TEST(MathTest, RoundUp) {
  EXPECT_EQ(round_up(0, 8), 0);
  EXPECT_EQ(round_up(1, 8), 8);
  EXPECT_EQ(round_up(8, 8), 8);
  EXPECT_EQ(round_up(9, 8), 16);
}

TEST(MathTest, Divides) {
  EXPECT_TRUE(divides(4, 8));
  EXPECT_TRUE(divides(1, 7));
  EXPECT_FALSE(divides(3, 8));
  EXPECT_FALSE(divides(0, 8));
}

TEST(MathTest, PowerOfTwo) {
  EXPECT_TRUE(is_power_of_two(1));
  EXPECT_TRUE(is_power_of_two(64));
  EXPECT_FALSE(is_power_of_two(0));
  EXPECT_FALSE(is_power_of_two(48));
  EXPECT_FALSE(is_power_of_two(-4));
}

TEST(MathTest, Divisors) {
  EXPECT_EQ(divisors(1), (std::vector<std::int64_t>{1}));
  EXPECT_EQ(divisors(12), (std::vector<std::int64_t>{1, 2, 3, 4, 6, 12}));
  EXPECT_EQ(divisors(40), (std::vector<std::int64_t>{1, 2, 4, 5, 8, 10, 20, 40}));
}

TEST(MathTest, ArithSum) {
  EXPECT_EQ(arith_sum(1, 4), 10);
  EXPECT_EQ(arith_sum(3, 3), 3);
  EXPECT_EQ(arith_sum(5, 4), 0);
  EXPECT_EQ(arith_sum(0, 10), 55);
}

TEST(UnitsTest, FormatBytes) {
  EXPECT_EQ(format_bytes(512), "512 B");
  EXPECT_EQ(format_bytes(2.5 * kGiB), "2.50 GiB");
  EXPECT_EQ(format_bytes(1.25 * kMiB), "1.25 MiB");
}

TEST(UnitsTest, FormatTime) {
  EXPECT_EQ(format_time(1.5), "1.500 s");
  EXPECT_EQ(format_time(2.5e-3), "2.500 ms");
  EXPECT_EQ(format_time(3e-6), "3.0 us");
}

TEST(UnitsTest, FormatContext) {
  EXPECT_EQ(format_context(131072), "128K");
  EXPECT_EQ(format_context(2097152), "2048K");
  EXPECT_EQ(format_context(1000), "1000");
}

TEST(UnitsTest, FormatPercent) {
  EXPECT_EQ(format_percent(0.453), "45.3%");
  EXPECT_EQ(format_percent(1.0), "100.0%");
}

TEST(TableTest, AlignsColumns) {
  Table t({"name", "value"});
  t.add_row({"a", "1"});
  t.add_row({"longer", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name   | value |"), std::string::npos);
  EXPECT_NE(s.find("| longer | 22    |"), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  Table t({"x", "y"});
  t.add_row({"1", "2"});
  t.add_separator();
  t.add_row({"3", "4"});
  EXPECT_EQ(t.to_csv(), "x,y\n1,2\n3,4\n");
}

TEST(TableTest, RowWidthChecked) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::logic_error);
}

TEST(RngTest, Deterministic) {
  Rng a(7), b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, SeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, BelowBound) {
  Rng rng(4);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t x = rng.next_below(10);
    EXPECT_LT(x, 10u);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 10u);  // all residues hit
}

// ------------------------------------------------------------ numbers

TEST(NumberTest, RejectsAnythingButOneWholeToken) {
  for (const char* bad : {"+5", " 5", "5 ", "0x10", "5junk", "1e999", "nan",
                          "inf", "-inf", "", "-", "1e", "1,5"}) {
    EXPECT_EQ(util::parse_number<long long>(bad), std::nullopt) << bad;
    EXPECT_EQ(util::parse_number<double>(bad), std::nullopt) << bad;
  }
  EXPECT_EQ(util::parse_number<double>("-1e-999"), std::nullopt);
  EXPECT_EQ(util::parse_number<long long>("1.5"), std::nullopt);
  EXPECT_EQ(util::parse_number<long long>("1e3"), std::nullopt);
  EXPECT_EQ(util::parse_number<long long>("-12"), -12);
  EXPECT_EQ(util::parse_number<double>("1.23456789"), 1.23456789);
  EXPECT_EQ(util::parse_number<double>("3.3e-7"), 3.3e-7);
  EXPECT_EQ(util::parse_number<double>("-2"), -2.0);
}

TEST(NumberTest, IntegersStayInsideTheirType) {
  using util::parse_number;
  EXPECT_EQ(parse_number<int>("2147483647"), 2147483647);
  EXPECT_EQ(parse_number<int>("-2147483648"), -2147483647 - 1);
  EXPECT_EQ(parse_number<int>("2147483648"), std::nullopt);
  EXPECT_EQ(parse_number<int>("-2147483649"), std::nullopt);
  EXPECT_EQ(parse_number<std::int64_t>("9223372036854775807"),
            std::numeric_limits<std::int64_t>::max());
  EXPECT_EQ(parse_number<std::int64_t>("9223372036854775808"), std::nullopt);
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_number<std::uint64_t>("18446744073709551616"), std::nullopt);
  EXPECT_EQ(parse_number<std::uint64_t>("-1"), std::nullopt);
}

TEST(NumberTest, ExactIntegerTakesOnlyIntegersInRange) {
  using util::exact_integer;
  EXPECT_EQ(exact_integer<int>(-7.0), -7);
  EXPECT_EQ(exact_integer<int>(2147483647.0), 2147483647);
  EXPECT_EQ(exact_integer<int>(-2147483648.0), -2147483647 - 1);
  EXPECT_EQ(exact_integer<int>(2147483648.0), std::nullopt);
  EXPECT_EQ(exact_integer<int>(-2147483649.0), std::nullopt);
  EXPECT_EQ(exact_integer<int>(2.5), std::nullopt);
  EXPECT_EQ(exact_integer<int>(1e30), std::nullopt);
  EXPECT_EQ(exact_integer<int>(std::nan("")), std::nullopt);
  EXPECT_EQ(exact_integer<std::int64_t>(-0x1p63),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(exact_integer<std::int64_t>(0x1p63), std::nullopt);
  EXPECT_EQ(exact_integer<std::int64_t>(1e300), std::nullopt);
  EXPECT_EQ(exact_integer<std::uint64_t>(-1.0), std::nullopt);
  EXPECT_EQ(exact_integer<std::uint64_t>(0x1p64), std::nullopt);
}

TEST(NumberTest, FormatPrintsSixDigitsWhenExactElseSeventeen) {
  using util::format_number;
  EXPECT_EQ(format_number(2.0), "2");
  EXPECT_EQ(format_number(-3.0), "-3");
  EXPECT_EQ(format_number(-0.0), "-0");
  EXPECT_EQ(format_number(1e6), "1000000");
  EXPECT_EQ(format_number(1.5), "1.5");
  EXPECT_EQ(format_number(0.0001), "0.0001");
  EXPECT_EQ(format_number(1e-5), "1e-05");
  EXPECT_EQ(format_number(0.1), "0.1");
  EXPECT_EQ(format_number(1e300), "1e+300");
  EXPECT_EQ(format_number(1.23456789), "1.2345678899999999");
  EXPECT_EQ(format_number(4.666666666666666), "4.6666666666666661");
  EXPECT_EQ(format_number(0x1p53), "9007199254740992");
}

TEST(NumberTest, FormatRoundTripsRandomDoublesBitForBit) {
  Rng rng(2027);
  for (int i = 0; i < 10000;) {
    // Random bit patterns cover every exponent, subnormals included; a
    // pattern with the all-ones exponent (inf or nan) is drawn again. Every
    // fourth value is a quotient of small integers, like the values plans
    // and tables hold.
    const double value =
        i % 4 == 3 ? static_cast<double>(rng.next_below(100000)) /
                         static_cast<double>(rng.next_below(999) + 1)
                   : std::bit_cast<double>(rng.next_u64());
    if (!std::isfinite(value)) continue;
    ++i;
    const std::string text = util::format_number(value);
    const std::optional<double> back = util::parse_number<double>(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(*back),
              std::bit_cast<std::uint64_t>(value))
        << text;
  }
}

}  // namespace
}  // namespace slim
