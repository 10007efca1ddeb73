#include "common/strings.h"

#include <gtest/gtest.h>

namespace fairtopk {
namespace {

TEST(SplitTest, KeepsEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','),
            (std::vector<std::string>{"a", "", "b"}));
}

TEST(SplitTest, SingleField) {
  EXPECT_EQ(Split("abc", ','), (std::vector<std::string>{"abc"}));
}

TEST(SplitTest, EmptyInputYieldsOneEmptyField) {
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
}

TEST(SplitTest, TrailingDelimiter) {
  EXPECT_EQ(Split("a,b,", ','),
            (std::vector<std::string>{"a", "b", ""}));
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(Trim("  x y \t\n"), "x y");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(JoinTest, JoinsWithSeparator) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"x"}, ","), "x");
}

TEST(ParseIntTest, ParsesValidIntegers) {
  EXPECT_EQ(ParseInt("42"), 42);
  EXPECT_EQ(ParseInt("-7"), -7);
  EXPECT_EQ(ParseInt(" 13 "), 13);
}

TEST(ParseIntTest, RejectsGarbage) {
  EXPECT_FALSE(ParseInt("").has_value());
  EXPECT_FALSE(ParseInt("12x").has_value());
  EXPECT_FALSE(ParseInt("1.5").has_value());
  EXPECT_FALSE(ParseInt("abc").has_value());
}

TEST(ParseDoubleTest, ParsesValidDoubles) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.25").value(), 3.25);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e3").value(), -1000.0);
  EXPECT_DOUBLE_EQ(ParseDouble(" 7 ").value(), 7.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("1.5abc").has_value());
  EXPECT_FALSE(ParseDouble("--2").has_value());
}

// Only finite values are numbers: a CSV cell or a flag holding one of
// these reads like "N/A".
TEST(ParseDoubleTest, RejectsNonFinite) {
  for (const char* text : {"nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                           "1e999", "-1e999"}) {
    EXPECT_FALSE(ParseDouble(text).has_value()) << text;
  }
  EXPECT_DOUBLE_EQ(ParseDouble("1e308").value(), 1e308);
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("pattern", "pat"));
  EXPECT_TRUE(StartsWith("pattern", ""));
  EXPECT_FALSE(StartsWith("pat", "pattern"));
  EXPECT_FALSE(StartsWith("pattern", "tab"));
}

TEST(FormatDoubleTest, RoundsToDigits) {
  EXPECT_EQ(FormatDouble(1.23456, 2), "1.23");
  EXPECT_EQ(FormatDouble(2.0, 0), "2");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace fairtopk
