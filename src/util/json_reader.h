// Strict pull reader for the JSON this project writes: run artifacts
// (src/obs/artifact.h) and scenario-matrix baselines. The caller reads or
// Skip()s every value in document order:
//
//   if (r.BeginObject()) {
//     while (r.NextMember(&key)) key == "cell" ? r.ReadString(&cell) : r.Skip();
//   }
//   if (!r.ExpectEnd()) Report(r.error());
//
// Errors are sticky: after the first one every call returns false, so such a
// loop always ends and the first error is the one reported. Numbers follow the
// JSON grammar and must be finite (the NaN/Infinity spellings strtod accepts
// are malformed). Nesting deeper than kMaxDepth fails, which bounds Skip()'s
// recursion on hostile input.

#ifndef SRC_UTIL_JSON_READER_H_
#define SRC_UTIL_JSON_READER_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace sns {

class JsonReader {
 public:
  // Run artifacts nest at most 6 deep.
  static constexpr int kMaxDepth = 64;

  // `text` must outlive the reader.
  explicit JsonReader(std::string_view text) : text_(text) {}

  // After BeginObject(), each NextMember() stores a key and leaves the reader
  // at its value; it returns false after the closing '}' and on any error.
  bool BeginObject() { return Open('{'); }
  bool NextMember(std::string* key) {
    return Next('}') && ReadString(key) && Consume(':');
  }
  // The same for arrays: NextElement() leaves the reader at the next element.
  bool BeginArray() { return Open('['); }
  bool NextElement() { return Next(']'); }

  bool ReadNumber(double* out);
  // A number without fraction or exponent that fits in 64 bits.
  bool ReadInt(int64_t* out);
  // Decodes escapes, except that a \uXXXX escape is checked and stored as '?':
  // the project writes \u only for control characters, and no reader needs them.
  bool ReadString(std::string* out);
  bool ReadBool(bool* out);
  // Reads one value of any type, checking its syntax, and discards it.
  bool Skip();
  // Fails unless nothing but whitespace is left.
  bool ExpectEnd();

  bool ok() const { return error_.empty(); }
  // The first error, as "at byte <offset>: <what>".
  const std::string& error() const { return error_; }

 private:
  bool Fail(std::string_view what);
  // Skips whitespace; returns the next character, or '\0' at the end.
  char PeekChar();
  bool Consume(char c);
  bool Open(char c);
  bool Next(char close);
  bool Literal(std::string_view word);

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
  // True right after '{' or '[': the first member needs no ','.
  bool first_ = false;
  std::string error_;
};

// Reads the whole file at `path` into `out`. False if it cannot be opened.
bool ReadFileToString(const std::string& path, std::string* out);

}  // namespace sns

#endif  // SRC_UTIL_JSON_READER_H_
