// Bit-level I/O for the transmission payloads.
//
// MSB-first within each byte, which keeps streams byte-compatible with the
// usual paper-and-pencil Huffman examples and makes the serialized frames
// deterministic across platforms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace csecg::coding {

/// Accumulates bits MSB-first into a byte vector.
class BitWriter {
 public:
  /// Appends the lowest `count` bits of `bits`, most significant first.
  /// count must be in [0, 64].
  void write(std::uint64_t bits, int count);

  /// Appends a single bit.
  void write_bit(bool bit);

  /// Number of bits written so far.
  std::size_t bit_count() const noexcept { return bit_count_; }

  /// Finishes the stream (zero-pads the last byte) and returns the bytes.
  /// The writer remains usable for inspection but not for further writes.
  std::vector<std::uint8_t> finish();

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t bit_count_ = 0;
  bool finished_ = false;
};

/// Reads bits MSB-first from a byte span.
class BitReader {
 public:
  /// The reader keeps a reference-free copy of the bytes.
  explicit BitReader(std::vector<std::uint8_t> bytes);

  /// Reads `count` bits (0..64) into the low bits of the result.
  /// Throws coding::DecodeError past the end of the stream (the reader
  /// sits on the untrusted-input boundary; see decode_error.hpp).
  std::uint64_t read(int count);

  /// Reads a single bit.
  bool read_bit();

  /// Bits consumed so far.
  std::size_t bit_position() const noexcept { return position_; }

 private:
  std::vector<std::uint8_t> bytes_;
  std::size_t position_ = 0;
};

}  // namespace csecg::coding
