#include "src/support/json.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace pkrusafe {
namespace json {
namespace {

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(Parse("null")->is_null());
  EXPECT_TRUE(Parse("true")->AsBool());
  EXPECT_FALSE(Parse("false")->AsBool());
  EXPECT_EQ(Parse("42")->AsInt(), 42);
  EXPECT_EQ(Parse("-7")->AsInt(), -7);
  EXPECT_DOUBLE_EQ(Parse("2.5")->AsDouble(), 2.5);
  EXPECT_DOUBLE_EQ(Parse("1e3")->AsDouble(), 1000.0);
  EXPECT_EQ(Parse("\"hi\"")->AsString(), "hi");
}

TEST(JsonTest, FullUint64RoundTrips) {
  // Crash reports carry 64-bit addresses; doubles would lose the low bits.
  auto value = Parse("18446744073709551615");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->AsUint(), UINT64_MAX);
}

TEST(JsonTest, Int64MinRoundTrips) {
  auto value = Parse("-9223372036854775808");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->AsInt(), INT64_MIN);
}

TEST(JsonTest, ParsesStringEscapes) {
  auto value = Parse(R"("a\"b\\c\nd\teA")");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->AsString(), "a\"b\\c\nd\teA");
}

TEST(JsonTest, UnicodeEscapeBecomesUtf8) {
  auto value = Parse(R"("\u00e9")");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->AsString(), "\xc3\xa9");
}

TEST(JsonTest, ParsesNestedObject) {
  auto value = Parse(R"({"a":{"b":[1,2,3]},"c":"x"})");
  ASSERT_TRUE(value.ok());
  ASSERT_TRUE(value->is_object());
  const Value* a = value->Find("a");
  ASSERT_NE(a, nullptr);
  const Value* b = a->Find("b");
  ASSERT_NE(b, nullptr);
  ASSERT_TRUE(b->is_array());
  ASSERT_EQ(b->AsArray().size(), 3u);
  EXPECT_EQ(b->AsArray()[1].AsInt(), 2);
  EXPECT_EQ(value->GetString("c"), "x");
}

TEST(JsonTest, TypedGettersFallBack) {
  auto value = Parse(R"({"n":3,"s":"t"})");
  ASSERT_TRUE(value.ok());
  EXPECT_EQ(value->GetUint("n"), 3u);
  EXPECT_EQ(value->GetUint("missing", 9), 9u);
  EXPECT_EQ(value->GetString("n", "fb"), "fb");  // mistyped -> fallback
  EXPECT_EQ(value->GetInt("s", -1), -1);
}

TEST(JsonTest, EmptyContainers) {
  EXPECT_TRUE(Parse("{}")->AsObject().empty());
  EXPECT_TRUE(Parse("[]")->AsArray().empty());
  EXPECT_TRUE(Parse(" { } ")->is_object());
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("{").ok());
  EXPECT_FALSE(Parse("[1,]").ok());
  EXPECT_FALSE(Parse("{\"a\":}").ok());
  EXPECT_FALSE(Parse("\"unterminated").ok());
  EXPECT_FALSE(Parse("tru").ok());
  EXPECT_FALSE(Parse("1 2").ok());  // trailing garbage
  EXPECT_FALSE(Parse("nan").ok());
}

TEST(JsonTest, RejectsRunawayNesting) {
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(Parse(deep).ok());
}

TEST(JsonTest, ParsePrefixFramesJsonl) {
  const std::string two_rows = "{\"a\":1}\n{\"a\":2}\n";
  size_t consumed = 0;
  auto first = ParsePrefix(two_rows, &consumed);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->GetInt("a"), 1);
  auto second = ParsePrefix(std::string_view(two_rows).substr(consumed), &consumed);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->GetInt("a"), 2);
}

TEST(JsonWriterTest, PlacesCommasAndNests) {
  std::string out;
  Writer w(&out);
  w.BeginObject().Key("a").Int(-3).Key("b").Uint(UINT64_MAX).Key("c").Bool(true);
  w.Key("d").Null().Key("e").Number("0.500").Key("empty_obj").BeginObject().EndObject();
  w.Key("empty_arr").BeginArray().EndArray().Key("arr").BeginArray();
  w.Int(1).BeginObject().Key("x").String("y").EndObject().BeginArray().EndArray().Bool(false);
  w.EndArray().EndObject();
  EXPECT_EQ(out,
            R"({"a":-3,"b":18446744073709551615,"c":true,"d":null,"e":0.500,"empty_obj":{},)"
            R"("empty_arr":[],"arr":[1,{"x":"y"},[],false]})");
}

TEST(JsonWriterTest, LineBreakSplitsElementsButNotTheFirst) {
  std::string out;
  Writer w(&out);
  w.BeginArray();
  for (int i = 0; i < 3; ++i) {
    w.LineBreak().Int(i);
  }
  w.EndArray();
  EXPECT_EQ(out, "[0,\n1,\n2]");
}

TEST(JsonWriterTest, AppendsToExistingText) {
  std::string out = "row: ";
  Writer(&out).BeginObject().Key("k").String("v").EndObject();
  EXPECT_EQ(out, R"(row: {"k":"v"})");
}

TEST(JsonWriterTest, EscapesWithShortFormsAndLowercaseHex) {
  EXPECT_EQ(JsonEscape("q\"b\\n\nr\rt\t/\x01\x1f\x7f"),
            "q\\\"b\\\\n\\nr\\rt\\t/\\u0001\\u001f\x7f");
  EXPECT_EQ(JsonEscape("plain"), "plain");
  EXPECT_EQ(JsonEscape(""), "");
}

// Every string the writer emits, as key or value, parses back to itself.
TEST(JsonWriterTest, HostileStringsRoundTripThroughTheParser) {
  std::vector<std::string> table;
  for (int c = 0x01; c <= 0x1f; ++c) {
    table.emplace_back(1, static_cast<char>(c));
    table.push_back({'a', static_cast<char>(c), 'b'});
  }
  for (const char* s : {"\"", "\\", "/", "\x7f", "\\\"", "\"\\\"\\", "\\u0041", "</script>",
                        "caf\xc3\xa9", "\xe6\x97\xa5\xe6\x9c\xac", "\xf0\x9f\x94\x91",
                        "mixed \x01\"\\/\x7f\xc3\xa9\xf0\x9f\x94\x91\n\r\t end", ""}) {
    table.emplace_back(s);
  }
  std::string all;
  for (const std::string& s : table) {
    all += s;
  }
  table.push_back(all);

  for (const std::string& s : table) {
    std::string out;
    Writer w(&out);
    w.BeginObject().Key(s).String(s).Key("list").BeginArray().String(s).String(s).EndArray();
    w.EndObject();
    auto parsed = Parse(out);
    ASSERT_TRUE(parsed.ok()) << out << ": " << parsed.status().ToString();
    EXPECT_EQ(parsed->GetString(s, "<missing>"), s) << out;
    const Value* list = parsed->Find("list");
    ASSERT_NE(list, nullptr) << out;
    ASSERT_EQ(list->AsArray().size(), 2u) << out;
    EXPECT_EQ(list->AsArray()[0].AsString(), s) << out;
    EXPECT_EQ(list->AsArray()[1].AsString(), s) << out;
    // Nothing below 0x20 survives unescaped into the document.
    for (const char c : out) {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << out;
    }
  }
}

}  // namespace
}  // namespace json
}  // namespace pkrusafe
