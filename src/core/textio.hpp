// Line-tracking text (de)serialization used by every on-disk artifact
// (model files, training checkpoints).
//
// The formats are token streams: whitespace-separated keys, integers, and
// hex floats (%a — bit-exact f64 round-trips with no binary-endianness
// concerns). TextWriter assembles the body in memory so callers can
// checksum it before anything touches the filesystem; TextReader parses
// from memory and reports every malformed token as a single-line Error
// naming the source file, the line number, and what was expected — no
// silent partial loads.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/common.hpp"

namespace fekf {

/// FNV-1a 64-bit hash — the checkpoint header checksum. Not
/// collision-resistant against adversaries; plenty to make truncation and
/// bit-flips fail loudly at load.
u64 fnv1a64(std::string_view bytes);

/// Append-only token writer over an in-memory buffer.
class TextWriter {
 public:
  void key(std::string_view name);    ///< starts a new line: "name"
  void token(std::string_view t);     ///< " t"
  void i64v(i64 v);
  void u64v(u64 v);
  void f64v(f64 v);                   ///< hex float (%a)
  void size(std::size_t v);
  /// Length-prefixed raw bytes (" <n> <bytes>") — for strings that may
  /// contain whitespace (fault-event details, layer names).
  void bytes(std::string_view s);
  void end_line();

  const std::string& str() const { return out_; }
  std::string take() { return std::move(out_); }
  void reserve(std::size_t n) { out_.reserve(n); }

 private:
  std::string out_;
};

/// Whitespace-tokenizing reader with line tracking and loud diagnostics.
class TextReader {
 public:
  /// `name` labels diagnostics (usually the file path); `text` must outlive
  /// the reader. `first_line` is the file line `text` starts on (2 for the
  /// body of a checksummed file).
  TextReader(std::string_view text, std::string name, i64 first_line = 1);

  /// Next whitespace-delimited token; Error at end of input.
  std::string_view token();
  /// Consume one token and check it equals `expected`.
  void expect(std::string_view expected);
  i64 read_i64();
  u64 read_u64();
  f64 read_f64();  ///< hex or decimal float, full-token parse required
  /// Counterpart of TextWriter::bytes.
  std::string read_bytes();
  /// The entry count of a list. Every entry takes at least two bytes (a
  /// separator and a digit), so a count the rest of the input cannot hold
  /// is malformed; callers may allocate for it once it returns.
  std::size_t read_count();
  /// Malformed unless `n` values of at least two bytes each fit in the
  /// input left; `what` names them: "<what> exceeds what the <k> bytes left
  /// can hold".
  void require_fits(u64 n, const std::string& what) const;
  /// A count, then that many hex floats.
  std::vector<f64> read_f64s();

  bool at_end();
  i64 line() const { return line_; }
  const std::string& name() const { return name_; }

  /// Throw Error("<name>:<line>: <what>").
  [[noreturn]] void malformed(const std::string& what) const;

 private:
  void skip_ws();

  std::string_view text_;
  std::string name_;
  std::size_t pos_ = 0;
  i64 line_ = 1;
};

/// Write `header line + body` to `path` atomically (temp file + rename).
/// The header is "<magic> <body-bytes> <fnv1a64-hex>".
void write_checksummed_file(const std::string& path, std::string_view magic,
                            std::string_view body);

/// Read a file written by write_checksummed_file: verifies the magic, the
/// byte count (truncation) and the checksum (corruption), then returns the
/// body. Every failure is a single-line Error naming `path`.
std::string read_checksummed_file(const std::string& path,
                                  std::string_view magic);

/// Read an entire file (text mode); Error if it cannot be opened.
std::string read_file(const std::string& path);

}  // namespace fekf
