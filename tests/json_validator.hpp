// Minimal recursive-descent JSON validator shared by the test binaries —
// enough to certify the observability exports (Chrome traces, metrics
// snapshots, flight dumps) are well-formed without
// taking a JSON dependency. Not named test_*.cpp on purpose: the tests/
// CMake glob must not build it as a standalone binary.
#pragma once

#include <cctype>
#include <string>

namespace fekf::testutil {

class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text)
      : p_(text.c_str()), end_(text.c_str() + text.size()) {}

  /// True iff the whole input is exactly one valid JSON value.
  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return p_ == end_;
  }

 private:
  void skip_ws() {
    while (p_ < end_ && (*p_ == ' ' || *p_ == '\t' || *p_ == '\n' ||
                         *p_ == '\r')) {
      ++p_;
    }
  }
  bool literal(const char* s) {
    const char* q = p_;
    while (*s != '\0') {
      if (q == end_ || *q != *s) return false;
      ++q, ++s;
    }
    p_ = q;
    return true;
  }
  bool string() {
    if (p_ == end_ || *p_ != '"') return false;
    ++p_;
    while (p_ < end_ && *p_ != '"') {
      if (static_cast<unsigned char>(*p_) < 0x20) return false;
      if (*p_ == '\\') {
        ++p_;
        if (p_ == end_) return false;
        const char c = *p_;
        if (c == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++p_;
            if (p_ == end_ || !std::isxdigit(static_cast<unsigned char>(*p_)))
              return false;
          }
        } else if (c != '"' && c != '\\' && c != '/' && c != 'b' &&
                   c != 'f' && c != 'n' && c != 'r' && c != 't') {
          return false;
        }
      }
      ++p_;
    }
    if (p_ == end_) return false;
    ++p_;  // closing quote
    return true;
  }
  bool number() {
    const char* q = p_;
    if (q < end_ && *q == '-') ++q;
    const char* digits = q;
    while (q < end_ && std::isdigit(static_cast<unsigned char>(*q))) ++q;
    if (q == digits) return false;
    if (q < end_ && *q == '.') {
      ++q;
      const char* frac = q;
      while (q < end_ && std::isdigit(static_cast<unsigned char>(*q))) ++q;
      if (q == frac) return false;
    }
    if (q < end_ && (*q == 'e' || *q == 'E')) {
      ++q;
      if (q < end_ && (*q == '+' || *q == '-')) ++q;
      const char* exp = q;
      while (q < end_ && std::isdigit(static_cast<unsigned char>(*q))) ++q;
      if (q == exp) return false;
    }
    p_ = q;
    return true;
  }
  bool value() {
    skip_ws();
    if (p_ == end_) return false;
    switch (*p_) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }
  bool object() {
    ++p_;  // '{'
    skip_ws();
    if (p_ < end_ && *p_ == '}') return ++p_, true;
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (p_ == end_ || *p_ != ':') return false;
      ++p_;
      if (!value()) return false;
      skip_ws();
      if (p_ < end_ && *p_ == ',') {
        ++p_;
        continue;
      }
      break;
    }
    if (p_ == end_ || *p_ != '}') return false;
    ++p_;
    return true;
  }
  bool array() {
    ++p_;  // '['
    skip_ws();
    if (p_ < end_ && *p_ == ']') return ++p_, true;
    while (true) {
      if (!value()) return false;
      skip_ws();
      if (p_ < end_ && *p_ == ',') {
        ++p_;
        continue;
      }
      break;
    }
    if (p_ == end_ || *p_ != ']') return false;
    ++p_;
    return true;
  }

  const char* p_;
  const char* end_;
};

}  // namespace fekf::testutil
