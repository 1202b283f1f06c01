// Small string utilities (printf-style formatting, joining, human-readable sizes).

#ifndef SRC_UTIL_STRINGS_H_
#define SRC_UTIL_STRINGS_H_

#include <cstdarg>
#include <cstdint>
#include <string>
#include <vector>

namespace sns {

// printf into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

// printf onto the end of `*out`.
void StrAppendFormat(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

// Joins elements with a separator.
std::string StrJoin(const std::vector<std::string>& parts, const std::string& sep);

// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> StrSplit(const std::string& s, char delim);

// "12.3 KB", "4.0 MB" — bytes rendered with a binary-ish 1000 divisor to match the
// paper's usage (it quotes KB as 1000s).
std::string HumanBytes(int64_t bytes);

// True if `s` begins with / ends with the given affix.
bool StartsWith(const std::string& s, const std::string& prefix);
bool EndsWith(const std::string& s, const std::string& suffix);

// Lowercases ASCII in place and returns the result.
std::string AsciiLower(std::string s);

// FNV-1a 64-bit hash of a byte string; stable across platforms, used for cache keys
// and consistent hashing.
uint64_t Fnv1a(const std::string& s);
uint64_t Fnv1a(const void* data, size_t len);

}  // namespace sns

#endif  // SRC_UTIL_STRINGS_H_
