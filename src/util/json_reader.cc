#include "src/util/json_reader.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/util/strings.h"

namespace sns {

bool JsonReader::Fail(std::string_view what) {
  if (ok()) {
    error_ = StrFormat("at byte %zu: %.*s", pos_, static_cast<int>(what.size()),
                       what.data());
  }
  return false;
}

char JsonReader::PeekChar() {
  while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                 text_[pos_] == '\n' || text_[pos_] == '\r')) {
    ++pos_;
  }
  return pos_ < text_.size() ? text_[pos_] : '\0';
}

bool JsonReader::Consume(char c) {
  if (!ok()) return false;
  if (PeekChar() == c) {
    ++pos_;
    return true;
  }
  return Fail(pos_ == text_.size() ? std::string("unexpected end of input")
                                   : std::string("expected '") + c + "'");
}

bool JsonReader::Open(char c) {
  if (ok() && depth_ == kMaxDepth) {
    PeekChar();
    return Fail(StrFormat("nesting deeper than %d levels", kMaxDepth));
  }
  if (!Consume(c)) return false;
  ++depth_;
  first_ = true;
  return true;
}

bool JsonReader::Next(char close) {
  if (!ok()) return false;
  if (PeekChar() == close) {
    ++pos_;
    --depth_;
    first_ = false;
    return false;
  }
  if (!first_ && !Consume(',')) return false;
  first_ = false;
  return true;
}

bool JsonReader::Literal(std::string_view word) {
  if (!ok()) return false;
  PeekChar();
  if (text_.substr(pos_, word.size()) != word) {
    return Fail("expected '" + std::string(word) + "'");
  }
  pos_ += word.size();
  return true;
}

bool JsonReader::ReadNumber(double* out) {
  if (!ok()) return false;
  PeekChar();
  size_t start = pos_;
  auto digits = [this] {
    size_t from = pos_;
    while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') ++pos_;
    return pos_ > from;
  };
  auto at = [this](std::string_view chars) {
    return pos_ < text_.size() && chars.find(text_[pos_]) != std::string_view::npos;
  };
  if (at("-")) ++pos_;
  if (!digits()) return Fail("malformed number (NaN/Inf are not valid JSON)");
  if (at(".")) {
    ++pos_;
    if (!digits()) return Fail("malformed number fraction");
  }
  if (at("eE")) {
    ++pos_;
    if (at("+-")) ++pos_;
    if (!digits()) return Fail("malformed number exponent");
  }
  double v = std::strtod(std::string(text_.substr(start, pos_ - start)).c_str(), nullptr);
  if (!std::isfinite(v)) return Fail("non-finite number");
  if (out != nullptr) *out = v;
  return true;
}

bool JsonReader::ReadInt(int64_t* out) {
  PeekChar();
  size_t start = pos_;
  if (!ReadNumber(nullptr)) return false;
  std::string_view token = text_.substr(start, pos_ - start);
  int64_t v = 0;
  if (token.find_first_of(".eE") != std::string_view::npos ||
      std::from_chars(token.data(), token.data() + token.size(), v).ec != std::errc()) {
    return Fail("expected an integer");
  }
  *out = v;
  return true;
}

bool JsonReader::ReadString(std::string* out) {
  static constexpr std::string_view kEscapes = "\"\\/bfnrt";
  static constexpr std::string_view kDecoded = "\"\\/\b\f\n\r\t";
  if (!ok()) return false;
  if (PeekChar() != '"') return Fail("expected string");
  ++pos_;
  if (out != nullptr) out->clear();
  while (pos_ < text_.size()) {
    char c = text_[pos_++];
    if (c == '"') return true;
    if (static_cast<unsigned char>(c) < 0x20) return Fail("control character in string");
    if (c == '\\' && pos_ < text_.size()) {
      c = text_[pos_++];
      if (c == 'u') {
        uint32_t code_point = 0;
        const char* hex = text_.data() + pos_;
        const char* end = hex + std::min<size_t>(4, text_.size() - pos_);
        if (std::from_chars(hex, end, code_point, 16).ptr != hex + 4) {
          return Fail("bad \\u escape");
        }
        pos_ += 4;
        c = '?';
      } else {
        size_t escape = kEscapes.find(c);
        if (escape == std::string_view::npos) return Fail("bad escape character");
        c = kDecoded[escape];
      }
    }
    if (out != nullptr) out->push_back(c);
  }
  return Fail("unterminated string");
}

bool JsonReader::ReadBool(bool* out) {
  bool v = PeekChar() == 't';
  if (!Literal(v ? "true" : "false")) return false;
  if (out != nullptr) *out = v;
  return true;
}

bool JsonReader::Skip() {
  std::string key;
  switch (ok() ? PeekChar() : '\0') {
    case '{':
      if (BeginObject()) {
        while (NextMember(&key) && Skip()) {
        }
      }
      return ok();
    case '[':
      if (BeginArray()) {
        while (NextElement() && Skip()) {
        }
      }
      return ok();
    case '"': return ReadString(nullptr);
    case 't':
    case 'f': return ReadBool(nullptr);
    case 'n': return Literal("null");
    default: return ReadNumber(nullptr);
  }
}

bool JsonReader::ExpectEnd() {
  if (!ok()) return false;
  PeekChar();
  return pos_ == text_.size() || Fail("trailing content after the top-level value");
}

bool ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream text;
  text << in.rdbuf();
  *out = text.str();
  return true;
}

}  // namespace sns
