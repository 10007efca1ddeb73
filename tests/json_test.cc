#include "common/json.h"

#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include <gtest/gtest.h>

namespace fairtopk {
namespace {

TEST(JsonEscapeTest, EscapesSpecialCharacters) {
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("line\nbreak"), "line\\nbreak");
  EXPECT_EQ(JsonEscape("tab\there"), "tab\\there");
  EXPECT_EQ(JsonEscape(std::string(1, '\x01')), "\\u0001");
}

TEST(JsonEscapeTest, EveryByte) {
  // Independent of the escaper's own run-copying: one byte at a time,
  // control bytes through printf, appended after existing text.
  for (int byte = 0; byte < 256; ++byte) {
    const char c = static_cast<char>(byte);
    std::string expected;
    switch (c) {
      case '"':
        expected = "\\\"";
        break;
      case '\\':
        expected = "\\\\";
        break;
      case '\n':
        expected = "\\n";
        break;
      case '\r':
        expected = "\\r";
        break;
      case '\t':
        expected = "\\t";
        break;
      default:
        if (byte < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
          expected = buf;
        } else {
          expected = std::string(1, c);
        }
    }
    const std::string text = "x" + std::string(1, c) + "y" + std::string(1, c);
    EXPECT_EQ(JsonEscape(text), "x" + expected + "y" + expected) << byte;
    std::string out = "head";
    AppendJsonEscaped(out, text);
    EXPECT_EQ(out, "head" + JsonEscape(text)) << byte;
  }
}

TEST(JsonAppendTest, NumbersAsTheWriterPrintsThem) {
  std::string out;
  AppendJsonInt(out, std::numeric_limits<long long>::min());
  out += ' ';
  AppendJsonUint(out, std::numeric_limits<unsigned long long>::max());
  out += ' ';
  AppendJsonUint(out, 0);
  EXPECT_EQ(out, std::to_string(std::numeric_limits<long long>::min()) + " " +
                     std::to_string(
                         std::numeric_limits<unsigned long long>::max()) +
                     " 0");
  for (const double v : {0.0, -0.0, 1e-300, 1e300, 1.0 / 3.0, -2.5e-7,
                         123456789012.0, 4.9e-324}) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.10g", v);
    std::string printed;
    AppendJsonDouble(printed, v);
    EXPECT_EQ(printed, buf) << v;
  }
  for (const double v : {std::nan(""), std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    std::string printed;
    AppendJsonDouble(printed, v);
    EXPECT_EQ(printed, "null") << v;
  }
}

TEST(JsonWriterTest, TakeMovesTheDocumentOut) {
  JsonWriter w;
  w.BeginArray().Int(1).EndArray();
  EXPECT_EQ(w.Take(), "[1]");
}

TEST(JsonWriterTest, EmptyObjectAndArray) {
  {
    JsonWriter w;
    w.BeginObject().EndObject();
    EXPECT_EQ(w.str(), "{}");
  }
  {
    JsonWriter w;
    w.BeginArray().EndArray();
    EXPECT_EQ(w.str(), "[]");
  }
}

TEST(JsonWriterTest, ObjectWithMixedValues) {
  JsonWriter w;
  w.BeginObject();
  w.Key("s").String("x");
  w.Key("i").Int(-3);
  w.Key("u").Uint(7);
  w.Key("d").Double(2.5);
  w.Key("b").Bool(true);
  w.Key("n").Null();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"s\":\"x\",\"i\":-3,\"u\":7,\"d\":2.5,\"b\":true,"
            "\"n\":null}");
}

TEST(JsonWriterTest, NestedStructures) {
  JsonWriter w;
  w.BeginObject();
  w.Key("list").BeginArray();
  w.Int(1);
  w.BeginObject().Key("k").String("v").EndObject();
  w.BeginArray().Int(2).Int(3).EndArray();
  w.EndArray();
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"list\":[1,{\"k\":\"v\"},[2,3]]}");
}

TEST(JsonWriterTest, ArrayCommaPlacement) {
  JsonWriter w;
  w.BeginArray().Int(1).Int(2).Int(3).EndArray();
  EXPECT_EQ(w.str(), "[1,2,3]");
}

TEST(JsonWriterTest, NonFiniteDoublesBecomeNull) {
  JsonWriter w;
  w.BeginArray();
  w.Double(std::numeric_limits<double>::infinity());
  w.Double(std::numeric_limits<double>::quiet_NaN());
  w.Double(1.0);
  w.EndArray();
  EXPECT_EQ(w.str(), "[null,null,1]");
}

TEST(JsonWriterTest, EscapedKeys) {
  JsonWriter w;
  w.BeginObject().Key("we\"ird").Int(1).EndObject();
  EXPECT_EQ(w.str(), "{\"we\\\"ird\":1}");
}

}  // namespace
}  // namespace fairtopk
