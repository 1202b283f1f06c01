// Tests for the strict JSON pull reader (src/util/json_reader.h) shared by the
// artifact tools: member/element iteration, the strict number grammar, string
// escapes, the nesting limit, and the end-of-input check.

#include "src/util/json_reader.h"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

namespace sns {
namespace {

// Skips one whole document; returns the reader's error ("" when it parses).
std::string SkipError(const std::string& text) {
  JsonReader r(text);
  r.Skip();
  r.ExpectEnd();
  return r.error();
}

// Reads one number document; returns the error ("" on success).
std::string NumberError(const std::string& text, double* out = nullptr) {
  JsonReader r(text);
  double v = 0;
  r.ReadNumber(&v);
  r.ExpectEnd();
  if (out != nullptr) *out = v;
  return r.error();
}

std::string ReadStringValue(const std::string& text, std::string* error) {
  JsonReader r(text);
  std::string s;
  r.ReadString(&s);
  r.ExpectEnd();
  *error = r.error();
  return s;
}

TEST(JsonReaderTest, IteratesMembersAndElementsInOrder) {
  JsonReader r(R"( {"a": 1.5, "b": [true, false, null], "c": {"d": "x"}, "e": -7} )");
  std::map<std::string, double> numbers;
  std::vector<bool> flags;
  std::string d;
  std::vector<std::string> keys;
  std::string key;
  ASSERT_TRUE(r.BeginObject());
  while (r.NextMember(&key)) {
    keys.push_back(key);
    if (key == "b") {
      ASSERT_TRUE(r.BeginArray());
      while (r.NextElement()) {
        bool v = false;
        if (flags.size() == 2) {
          ASSERT_TRUE(r.Skip());  // The trailing null.
        } else {
          ASSERT_TRUE(r.ReadBool(&v));
          flags.push_back(v);
        }
      }
    } else if (key == "c") {
      std::string inner;
      ASSERT_TRUE(r.BeginObject());
      while (r.NextMember(&inner)) r.ReadString(&d);
    } else {
      ASSERT_TRUE(r.ReadNumber(&numbers[key]));
    }
  }
  ASSERT_TRUE(r.ExpectEnd()) << r.error();
  EXPECT_EQ(keys, (std::vector<std::string>{"a", "b", "c", "e"}));
  EXPECT_EQ(numbers["a"], 1.5);
  EXPECT_EQ(numbers["e"], -7);
  EXPECT_EQ(flags, (std::vector<bool>{true, false}));
  EXPECT_EQ(d, "x");
}

TEST(JsonReaderTest, EmptyContainers) {
  EXPECT_EQ(SkipError("{}"), "");
  EXPECT_EQ(SkipError("[]"), "");
  EXPECT_EQ(SkipError(R"({"a":{},"b":[[],{}]})"), "");
}

TEST(JsonReaderTest, RejectsMalformedContainers) {
  EXPECT_NE(SkipError(R"({"a":1,})"), "");
  EXPECT_NE(SkipError("[1,]"), "");
  EXPECT_NE(SkipError(R"({"a" 1})"), "");
  EXPECT_NE(SkipError(R"({"a":1 "b":2})"), "");
  EXPECT_NE(SkipError(R"({"a":1])"), "");
  EXPECT_NE(SkipError(R"({a:1})"), "");
  EXPECT_NE(SkipError(R"({"a":1)"), "");
  EXPECT_NE(SkipError(""), "");
  EXPECT_NE(SkipError("tru"), "");
}

TEST(JsonReaderTest, StrictNumberGrammar) {
  double v = 0;
  EXPECT_EQ(NumberError("0", &v), "");
  EXPECT_EQ(v, 0);
  EXPECT_EQ(NumberError("-12.5e-1", &v), "");
  EXPECT_EQ(v, -1.25);
  EXPECT_EQ(NumberError("3E+2", &v), "");
  EXPECT_EQ(v, 300);
  // The spellings strtod accepts but JSON does not.
  for (const char* bad : {"NaN", "nan", "Infinity", "-Infinity", "inf", "-", "1.", "1e",
                          "1e+", ".5", "+1", "0x10"}) {
    EXPECT_NE(NumberError(bad), "") << bad;
  }
  // In range of the grammar but not finite as a double.
  EXPECT_NE(NumberError("1e999"), "");
  // The same rules apply to numbers reached through Skip().
  EXPECT_NE(SkipError(R"({"x":NaN})"), "");
  EXPECT_NE(SkipError(R"({"x":-inf})"), "");
  EXPECT_NE(SkipError("[1.]"), "");
}

TEST(JsonReaderTest, ReadIntAcceptsOnlyIntegerTokens) {
  int64_t v = 0;
  JsonReader ok_reader("-9007199254740993");
  ASSERT_TRUE(ok_reader.ReadInt(&v)) << ok_reader.error();
  EXPECT_EQ(v, -9007199254740993LL);
  for (const char* bad : {"1.0", "1e3", "\"5\"", "99999999999999999999"}) {
    JsonReader r(bad);
    EXPECT_FALSE(r.ReadInt(&v)) << bad;
  }
}

TEST(JsonReaderTest, DecodesEscapes) {
  std::string error;
  EXPECT_EQ(ReadStringValue(R"("a\"b\\c\/d\be\ff\ng\rh\ti")", &error),
            "a\"b\\c/d\be\ff\ng\rh\ti");
  EXPECT_EQ(error, "");
  // \u escapes are validated, and read as '?'.
  EXPECT_EQ(ReadStringValue(R"("a\u0001\u00e9\u20ACb")", &error), "a???b");
  EXPECT_EQ(error, "");
  for (const char* bad : {R"("\x")", R"("\u12")", R"("\u12G4")", R"("abc)", R"("\)"}) {
    ReadStringValue(bad, &error);
    EXPECT_NE(error, "") << bad;
  }
  // Raw control characters must be escaped.
  ReadStringValue("\"a\nb\"", &error);
  EXPECT_NE(error, "");
}

TEST(JsonReaderTest, RejectsTrailingContent) {
  EXPECT_EQ(SkipError("{\"a\":1}\n \t"), "");
  EXPECT_NE(SkipError(R"({"a":1}garbage{)"), "");
  EXPECT_NE(SkipError(R"({"a":1}{})"), "");
  EXPECT_NE(SkipError("1 2"), "");
}

TEST(JsonReaderTest, NestingLimit) {
  auto nested = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_EQ(SkipError(nested(JsonReader::kMaxDepth)), "");
  EXPECT_NE(SkipError(nested(JsonReader::kMaxDepth + 1)).find("nesting deeper"),
            std::string::npos);
  // The hostile probe that used to overflow the stack: a skipped value nested
  // 300000 deep fails cleanly at the limit.
  std::string probe = "{\"snapshot\":" + std::string(300000, '[');
  JsonReader r(probe);
  std::string key;
  ASSERT_TRUE(r.BeginObject());
  ASSERT_TRUE(r.NextMember(&key));
  EXPECT_FALSE(r.Skip());
  EXPECT_NE(r.error().find("nesting deeper"), std::string::npos) << r.error();
  // Objects count toward the same limit.
  std::string objects;
  for (int i = 0; i <= JsonReader::kMaxDepth; ++i) objects += "{\"k\":";
  objects += "1" + std::string(JsonReader::kMaxDepth + 1, '}');
  EXPECT_NE(SkipError(objects), "");
}

TEST(JsonReaderTest, ErrorsAreStickyAndCarryTheOffset) {
  JsonReader r(R"({"a":x,"b":2})");
  std::string key;
  ASSERT_TRUE(r.BeginObject());
  ASSERT_TRUE(r.NextMember(&key));
  EXPECT_FALSE(r.ReadNumber(nullptr));
  EXPECT_EQ(r.error().rfind("at byte 5: ", 0), 0u) << r.error();
  std::string first = r.error();
  EXPECT_FALSE(r.NextMember(&key));
  EXPECT_FALSE(r.Skip());
  EXPECT_FALSE(r.ExpectEnd());
  EXPECT_EQ(r.error(), first);
}

TEST(JsonReaderTest, TypedReadsRejectOtherTypes) {
  JsonReader numbers("\"1\"");
  EXPECT_FALSE(numbers.ReadNumber(nullptr));
  JsonReader strings("1");
  EXPECT_FALSE(strings.ReadString(nullptr));
  JsonReader bools("null");
  EXPECT_FALSE(bools.ReadBool(nullptr));
  JsonReader objects("[]");
  EXPECT_FALSE(objects.BeginObject());
}

}  // namespace
}  // namespace sns
