#include "core/textio.hpp"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace fekf {

u64 fnv1a64(std::string_view bytes) {
  u64 h = 14695981039346656037ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

template <typename... Args>
void appendf(std::string& out, const char* fmt, Args... args) {
  char buf[96];
  const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
  out.append(buf, static_cast<std::size_t>(n));
}

}  // namespace

void TextWriter::key(std::string_view name) {
  if (!out_.empty() && out_.back() != '\n') out_.push_back('\n');
  out_.append(name);
}

void TextWriter::token(std::string_view t) {
  out_.push_back(' ');
  out_.append(t);
}

void TextWriter::i64v(i64 v) { appendf(out_, " %" PRId64, v); }
void TextWriter::u64v(u64 v) { appendf(out_, " %" PRIu64, v); }
void TextWriter::f64v(f64 v) { appendf(out_, " %a", v); }
void TextWriter::size(std::size_t v) { appendf(out_, " %zu", v); }

void TextWriter::bytes(std::string_view s) {
  appendf(out_, " %zu ", s.size());
  out_.append(s);
}

void TextWriter::end_line() { out_.push_back('\n'); }

TextReader::TextReader(std::string_view text, std::string name,
                       i64 first_line)
    : text_(text), name_(std::move(name)), line_(first_line) {}

void TextReader::malformed(const std::string& what) const {
  fail(name_ + ":" + std::to_string(line_) + ": " + what);
}

void TextReader::skip_ws() {
  while (pos_ < text_.size() &&
         std::isspace(static_cast<unsigned char>(text_[pos_]))) {
    if (text_[pos_] == '\n') ++line_;
    ++pos_;
  }
}

bool TextReader::at_end() {
  skip_ws();
  return pos_ >= text_.size();
}

std::string_view TextReader::token() {
  skip_ws();
  if (pos_ >= text_.size()) malformed("unexpected end of file");
  const std::size_t start = pos_;
  while (pos_ < text_.size() &&
         !std::isspace(static_cast<unsigned char>(text_[pos_]))) {
    ++pos_;
  }
  return text_.substr(start, pos_ - start);
}

void TextReader::expect(std::string_view expected) {
  const std::string_view got = token();
  if (got != expected) {
    malformed("expected '" + std::string(expected) + "', got '" +
              std::string(got) + "'");
  }
}

namespace {

/// Copy a token into a stack buffer for the strto* family.
struct TokenBuf {
  char buf[80];
  TokenBuf(const TextReader& r, std::string_view t) {
    if (t.size() >= sizeof(buf)) {
      fail(r.name() + ":" + std::to_string(r.line()) +
           ": token too long for a number: '" + std::string(t.substr(0, 16)) +
           "...'");
    }
    std::memcpy(buf, t.data(), t.size());
    buf[t.size()] = '\0';
  }
};

}  // namespace

i64 TextReader::read_i64() {
  const std::string_view t = token();
  TokenBuf tb(*this, t);
  char* endp = nullptr;
  const long long v = std::strtoll(tb.buf, &endp, 10);
  if (endp != tb.buf + t.size() || t.empty()) {
    malformed("expected an integer, got '" + std::string(t) + "'");
  }
  return static_cast<i64>(v);
}

u64 TextReader::read_u64() {
  const std::string_view t = token();
  TokenBuf tb(*this, t);
  char* endp = nullptr;
  const unsigned long long v = std::strtoull(tb.buf, &endp, 10);
  if (endp != tb.buf + t.size() || t.empty() || tb.buf[0] == '-') {
    malformed("expected an unsigned integer, got '" + std::string(t) + "'");
  }
  return static_cast<u64>(v);
}

f64 TextReader::read_f64() {
  const std::string_view t = token();
  TokenBuf tb(*this, t);
  char* endp = nullptr;
  const f64 v = std::strtod(tb.buf, &endp);
  if (endp != tb.buf + t.size() || t.empty()) {
    malformed("expected a (hex) float, got '" + std::string(t) + "'");
  }
  return v;
}

std::string TextReader::read_bytes() {
  const u64 n = read_u64();
  // Exactly one separator byte, then n raw bytes.
  if (pos_ >= text_.size() || text_[pos_] != ' ') {
    malformed("expected ' ' before a length-prefixed string");
  }
  ++pos_;
  if (pos_ + n > text_.size()) {
    malformed("length-prefixed string truncated (wanted " + std::to_string(n) +
              " bytes)");
  }
  std::string out(text_.substr(pos_, n));
  for (const char c : out) {
    if (c == '\n') ++line_;
  }
  pos_ += n;
  return out;
}

void TextReader::read_f64s(std::vector<f64>& out, std::size_t n) {
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) out[i] = read_f64();
}

void write_checksummed_file(const std::string& path, std::string_view magic,
                            std::string_view body) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  FEKF_CHECK(f != nullptr, "cannot open '" + tmp + "' for writing");
  char header[128];
  const int hn =
      std::snprintf(header, sizeof(header), "%.*s %zu %016" PRIx64 "\n",
                    static_cast<int>(magic.size()), magic.data(), body.size(),
                    fnv1a64(body));
  const bool ok =
      std::fwrite(header, 1, static_cast<std::size_t>(hn), f) ==
          static_cast<std::size_t>(hn) &&
      std::fwrite(body.data(), 1, body.size(), f) == body.size() &&
      std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) {
    std::remove(tmp.c_str());
    fekf::fail("short write to '" + tmp + "'");
  }
  FEKF_CHECK(std::rename(tmp.c_str(), path.c_str()) == 0,
             "cannot rename '" + tmp + "' to '" + path + "'");
}

std::string read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  FEKF_CHECK(f != nullptr, "cannot open '" + path + "' for reading");
  std::string out;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) out.append(buf, n);
  std::fclose(f);
  return out;
}

std::string read_checksummed_file(const std::string& path,
                                  std::string_view magic) {
  const std::string text = read_file(path);
  TextReader header(text, path);
  const std::string_view got_magic = header.token();
  if (got_magic != magic) {
    header.malformed("not a '" + std::string(magic) + "' file (found '" +
                     std::string(got_magic.substr(0, 40)) + "')");
  }
  const u64 body_bytes = header.read_u64();
  const std::string_view sum_tok = header.token();
  TokenBuf tb(header, sum_tok);
  char* endp = nullptr;
  const u64 expected_sum = std::strtoull(tb.buf, &endp, 16);
  if (endp != tb.buf + sum_tok.size()) {
    header.malformed("bad checksum token '" + std::string(sum_tok) + "'");
  }
  // Body starts right after the header newline.
  const std::size_t nl = text.find('\n');
  if (nl == std::string::npos) {
    header.malformed("missing body after header");
  }
  const std::string_view body(text.data() + nl + 1, text.size() - nl - 1);
  if (body.size() != body_bytes) {
    header.malformed("body is " + std::to_string(body.size()) +
                     " bytes, header promises " + std::to_string(body_bytes) +
                     " (file truncated?)");
  }
  const u64 got_sum = fnv1a64(body);
  if (got_sum != expected_sum) {
    header.malformed("checksum mismatch (file corrupted)");
  }
  return std::string(body);
}

}  // namespace fekf
