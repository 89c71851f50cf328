// Zero-run extension of the delta-Huffman codec.
//
// A scalar Huffman code cannot spend less than 1 bit per symbol, but at
// low quantization depths the delta stream of the low-resolution channel
// is dominated by long runs of exact zeros (Fig. 4), so the paper's
// sub-1-bit/sample Table I rows are only reachable by coding runs as
// units.  This codec replaces each maximal run of z ≥ 1 zero deltas with
// a RUN marker followed by the Elias-gamma code of z; everything else
// (non-zero deltas, escape) is coded exactly as in DeltaHuffmanCodec.
// The zero-run column of fig6_lowres_cr's Table I quantifies the gain
// over the scalar codec.
#pragma once

#include <cstdint>
#include <vector>

#include "csecg/coding/bitstream.hpp"
#include "csecg/coding/huffman.hpp"

namespace csecg::coding {

/// Writes the Elias-gamma code of value ≥ 1.
void elias_gamma_encode(std::uint64_t value, BitWriter& writer);

/// Reads an Elias-gamma code.  Throws coding::DecodeError on truncation
/// or when the zero prefix exceeds 63 bits (no 64-bit value encodes to a
/// longer prefix, so such a stream is necessarily corrupt).
std::uint64_t elias_gamma_decode(BitReader& reader);

/// Number of bits elias_gamma_encode(value) writes.
int elias_gamma_bits(std::uint64_t value) noexcept;

/// Offline-trained zero-run delta-Huffman codec for B-bit codes.
class ZeroRunDeltaCodec {
 public:
  /// Trains from windows of raw low-resolution codes (same corpus
  /// contract as DeltaHuffmanCodec::train).
  static ZeroRunDeltaCodec train(
      const std::vector<std::vector<std::int64_t>>& training_windows,
      int code_bits);

  /// Reconstructs a codec from a serialized codebook.
  ZeroRunDeltaCodec(HuffmanCodebook codebook, int code_bits);

  int code_bits() const noexcept { return code_bits_; }
  const HuffmanCodebook& codebook() const noexcept { return codebook_; }

  /// Reserved symbols: escape = 2^B (raw (B+1)-bit delta follows), run
  /// marker = 2^B + 1 (gamma-coded zero-run length follows).
  std::int64_t escape_symbol() const noexcept;
  std::int64_t run_symbol() const noexcept;

  /// Encodes one window; reports the exact bit count via `bits_out`.
  std::vector<std::uint8_t> encode(const std::vector<std::int64_t>& codes,
                                   std::size_t& bits_out) const;

  /// Exact encoded size in bits without materializing the payload.
  std::size_t encoded_bits(const std::vector<std::int64_t>& codes) const;

  /// Decodes a payload back to `count` codes.  The payload is untrusted:
  /// truncation, desynchronized codes, and oversized runs throw
  /// coding::DecodeError; allocation never exceeds `count` entries.
  std::vector<std::int64_t> decode(const std::vector<std::uint8_t>& payload,
                                   std::size_t count) const;

 private:
  void check_codes(const std::vector<std::int64_t>& codes) const;

  HuffmanCodebook codebook_;
  int code_bits_;
};

}  // namespace csecg::coding
