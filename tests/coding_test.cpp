// Unit tests for csecg::coding — bit I/O, delta coding, canonical Huffman
// (optimality, prefix property, serialization round-trip), and the
// delta-Huffman window codec (round-trip, escape coding).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "csecg/coding/bitstream.hpp"
#include "csecg/coding/decode_error.hpp"
#include "csecg/coding/delta.hpp"
#include "csecg/coding/delta_huffman_codec.hpp"
#include "csecg/coding/huffman.hpp"
#include "csecg/rng/distributions.hpp"
#include "csecg/rng/xoshiro.hpp"

namespace csecg::coding {
namespace {

// ---------------------------------------------------------------------------
// Bitstream.

TEST(Bitstream, SingleBitsRoundTrip) {
  BitWriter writer;
  const bool pattern[] = {true, false, true, true, false, false, true};
  for (bool b : pattern) writer.write_bit(b);
  EXPECT_EQ(writer.bit_count(), 7u);
  BitReader reader(writer.finish());
  for (bool b : pattern) EXPECT_EQ(reader.read_bit(), b);
}

TEST(Bitstream, MultiBitFieldsRoundTrip) {
  BitWriter writer;
  writer.write(0b101, 3);
  writer.write(0xDEADBEEF, 32);
  writer.write(0, 1);
  writer.write(0x3FF, 10);
  BitReader reader(writer.finish());
  EXPECT_EQ(reader.read(3), 0b101u);
  EXPECT_EQ(reader.read(32), 0xDEADBEEFu);
  EXPECT_EQ(reader.read(1), 0u);
  EXPECT_EQ(reader.read(10), 0x3FFu);
}

TEST(Bitstream, MsbFirstByteLayout) {
  BitWriter writer;
  writer.write(0b1, 1);
  writer.write(0, 7);
  const auto bytes = writer.finish();
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0x80);
}

TEST(Bitstream, ReadPastEndThrows) {
  BitWriter writer;
  writer.write(0xFF, 8);
  BitReader reader(writer.finish());
  reader.read(8);
  EXPECT_THROW(reader.read_bit(), DecodeError);
}

TEST(Bitstream, WriteAfterFinishThrows) {
  BitWriter writer;
  writer.write_bit(true);
  writer.finish();
  EXPECT_THROW(writer.write_bit(true), std::invalid_argument);
}

TEST(Bitstream, CountValidation) {
  BitWriter writer;
  EXPECT_THROW(writer.write(0, 65), std::invalid_argument);
  EXPECT_THROW(writer.write(0, -1), std::invalid_argument);
  BitReader reader({0xFF});
  EXPECT_THROW(reader.read(65), std::invalid_argument);
}

TEST(Bitstream, BitsRemainingAccounting) {
  BitReader reader({0xAA, 0x55});
  reader.read(5);
  EXPECT_EQ(reader.bit_position(), 5u);
}

// ---------------------------------------------------------------------------
// Delta coding.

TEST(Delta, RoundTrip) {
  const std::vector<std::int64_t> codes{64, 64, 65, 63, 63, 70};
  const DeltaEncoded enc = delta_encode(codes);
  EXPECT_EQ(enc.first, 64);
  EXPECT_EQ(enc.diffs, (std::vector<std::int64_t>{0, 1, -2, 0, 7}));
  EXPECT_EQ(delta_decode(enc), codes);
}

TEST(Delta, SingleElement) {
  const DeltaEncoded enc = delta_encode({42});
  EXPECT_TRUE(enc.diffs.empty());
  EXPECT_EQ(delta_decode(enc), (std::vector<std::int64_t>{42}));
}

TEST(Delta, EmptyThrows) {
  EXPECT_THROW(delta_encode({}), std::invalid_argument);
}

TEST(Histogram, CountsAndSorts) {
  const auto hist = histogram({3, 1, 3, 3, -2});
  ASSERT_EQ(hist.size(), 3u);
  EXPECT_EQ(hist[0], (std::pair<std::int64_t, std::uint64_t>{-2, 1}));
  EXPECT_EQ(hist[1], (std::pair<std::int64_t, std::uint64_t>{1, 1}));
  EXPECT_EQ(hist[2], (std::pair<std::int64_t, std::uint64_t>{3, 3}));
}

TEST(Entropy, KnownValues) {
  // Uniform over 4 symbols → 2 bits.
  EXPECT_NEAR(entropy_bits({{0, 5}, {1, 5}, {2, 5}, {3, 5}}), 2.0, 1e-12);
  // Deterministic → 0 bits.
  EXPECT_NEAR(entropy_bits({{7, 100}}), 0.0, 1e-12);
  EXPECT_EQ(entropy_bits({}), 0.0);
}

// ---------------------------------------------------------------------------
// Huffman.

TEST(Huffman, BuildValidation) {
  EXPECT_THROW(HuffmanCodebook::build({}), std::invalid_argument);
  EXPECT_THROW(HuffmanCodebook::build({{0, 0}}), std::invalid_argument);
  EXPECT_THROW(HuffmanCodebook::build({{0, 1}, {0, 2}}),
               std::invalid_argument);
}

TEST(Huffman, SingleSymbolGetsOneBit) {
  const auto book = HuffmanCodebook::build({{5, 10}});
  ASSERT_EQ(book.entries().size(), 1u);
  EXPECT_EQ(book.entries()[0].length, 1);
  BitWriter writer;
  book.encode(5, writer);
  BitReader reader(writer.finish());
  EXPECT_EQ(book.decode(reader), 5);
}

TEST(Huffman, SkewedDistributionShortCodeForFrequent) {
  const auto book =
      HuffmanCodebook::build({{0, 1000}, {1, 10}, {2, 5}, {3, 1}});
  EXPECT_EQ(book.code_length(0), 1);
  EXPECT_GT(book.code_length(3), book.code_length(0));
}

TEST(Huffman, PrefixProperty) {
  const auto book = HuffmanCodebook::build(
      {{-3, 2}, {-2, 7}, {-1, 30}, {0, 100}, {1, 28}, {2, 9}, {3, 1}});
  const auto& entries = book.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (std::size_t j = 0; j < entries.size(); ++j) {
      if (i == j) continue;
      const auto& a = entries[i];
      const auto& b = entries[j];
      if (a.length > b.length) continue;
      // a's code must not prefix b's code.
      EXPECT_NE(a.code, b.code >> (b.length - a.length))
          << "symbol " << a.symbol << " prefixes " << b.symbol;
    }
  }
}

TEST(Huffman, KraftEqualityHolds) {
  const auto book = HuffmanCodebook::build(
      {{0, 40}, {1, 30}, {2, 15}, {3, 10}, {4, 5}});
  double kraft = 0.0;
  for (const auto& e : book.entries()) kraft += std::pow(2.0, -e.length);
  EXPECT_NEAR(kraft, 1.0, 1e-12);  // Huffman codes are complete.
}

TEST(Huffman, OptimalityWithinOneBitOfEntropy) {
  std::vector<std::pair<std::int64_t, std::uint64_t>> hist;
  // Geometric-ish distribution like the delta stream.
  std::uint64_t c = 1 << 12;
  for (std::int64_t s = 0; s < 10; ++s) {
    hist.push_back({s, c});
    c = std::max<std::uint64_t>(c / 3, 1);
  }
  const auto book = HuffmanCodebook::build(hist);
  const double avg = book.expected_bits_per_symbol(hist, 0.0);
  const double h = entropy_bits(hist);
  EXPECT_GE(avg, h - 1e-12);
  EXPECT_LE(avg, h + 1.0);
}

TEST(Huffman, EncodeDecodeStream) {
  const auto book = HuffmanCodebook::build(
      {{-2, 5}, {-1, 20}, {0, 60}, {1, 18}, {2, 4}});
  rng::Xoshiro256 gen(1);
  std::vector<std::int64_t> symbols;
  for (int i = 0; i < 500; ++i) {
    symbols.push_back(static_cast<std::int64_t>(rng::uniform_below(gen, 5)) -
                      2);
  }
  BitWriter writer;
  for (auto s : symbols) book.encode(s, writer);
  BitReader reader(writer.finish());
  for (auto s : symbols) EXPECT_EQ(book.decode(reader), s);
}

TEST(Huffman, UnknownSymbolThrows) {
  const auto book = HuffmanCodebook::build({{0, 2}, {1, 1}});
  BitWriter writer;
  EXPECT_THROW(book.encode(7, writer), std::invalid_argument);
  EXPECT_THROW(book.code_length(7), std::invalid_argument);
  EXPECT_FALSE(book.contains(7));
  EXPECT_TRUE(book.contains(1));
}

TEST(Huffman, SerializeRoundTrip) {
  const auto book = HuffmanCodebook::build(
      {{-5, 3}, {-1, 50}, {0, 200}, {1, 45}, {2, 8}, {128, 1}});
  const auto bytes = book.serialize();
  EXPECT_EQ(bytes.size(), book.storage_bytes());
  const auto restored = HuffmanCodebook::deserialize(bytes);
  ASSERT_EQ(restored.entries().size(), book.entries().size());
  for (std::size_t i = 0; i < book.entries().size(); ++i) {
    EXPECT_EQ(restored.entries()[i].symbol, book.entries()[i].symbol);
    EXPECT_EQ(restored.entries()[i].length, book.entries()[i].length);
    EXPECT_EQ(restored.entries()[i].code, book.entries()[i].code);
  }
}

TEST(Huffman, DeserializeRejectsGarbage) {
  EXPECT_THROW(HuffmanCodebook::deserialize({}), DecodeError);
  EXPECT_THROW(HuffmanCodebook::deserialize({1}), DecodeError);
  EXPECT_THROW(HuffmanCodebook::deserialize({3, 1, 1, 0}), DecodeError);
}

TEST(Huffman, StorageGrowsWithAlphabet) {
  std::vector<std::pair<std::int64_t, std::uint64_t>> small{{0, 10}, {1, 5}};
  std::vector<std::pair<std::int64_t, std::uint64_t>> big;
  for (std::int64_t s = -20; s <= 20; ++s) {
    big.push_back({s, static_cast<std::uint64_t>(50 - std::abs(s))});
  }
  EXPECT_GT(HuffmanCodebook::build(big).storage_bytes(),
            HuffmanCodebook::build(small).storage_bytes());
}

TEST(Huffman, WideSymbolsUseTwoBytes) {
  const auto narrow = HuffmanCodebook::build({{-100, 1}, {100, 1}});
  const auto wide = HuffmanCodebook::build({{-1000, 1}, {1000, 1}});
  // Same entry count, wider symbols → more storage.
  EXPECT_GT(wide.storage_bytes(), narrow.storage_bytes());
  // Round-trip still works with 2-byte symbols.
  const auto restored = HuffmanCodebook::deserialize(wide.serialize());
  EXPECT_TRUE(restored.contains(-1000));
  EXPECT_TRUE(restored.contains(1000));
}

// ---------------------------------------------------------------------------
// Delta-Huffman codec.

std::vector<std::vector<std::int64_t>> staircase_corpus(int code_bits,
                                                        std::uint64_t seed) {
  // Slowly varying staircases mimic the low-res channel output.
  rng::Xoshiro256 gen(seed);
  std::vector<std::vector<std::int64_t>> corpus;
  const std::int64_t max_code = (std::int64_t{1} << code_bits) - 1;
  for (int w = 0; w < 20; ++w) {
    std::vector<std::int64_t> window;
    std::int64_t level = max_code / 2;
    for (int i = 0; i < 256; ++i) {
      const double u = rng::uniform01(gen);
      if (u < 0.1) level += 1;
      if (u > 0.9) level -= 1;
      if (u > 0.495 && u < 0.505) level += 5;  // Occasional QRS-like jump.
      level = std::clamp<std::int64_t>(level, 0, max_code);
      window.push_back(level);
    }
    corpus.push_back(std::move(window));
  }
  return corpus;
}

TEST(DeltaHuffman, TrainValidation) {
  EXPECT_THROW(DeltaHuffmanCodec::train({}, 7), std::invalid_argument);
  EXPECT_THROW(DeltaHuffmanCodec::train({{1, 2}}, 0), std::invalid_argument);
  EXPECT_THROW(DeltaHuffmanCodec::train({{1, 300}}, 7),
               std::invalid_argument);  // Code exceeds 7 bits.
  EXPECT_THROW(DeltaHuffmanCodec::train({{-1, 2}}, 7),
               std::invalid_argument);
}

TEST(DeltaHuffman, RoundTripOnCorpusWindows) {
  const auto corpus = staircase_corpus(7, 11);
  const auto codec = DeltaHuffmanCodec::train(corpus, 7);
  for (const auto& window : corpus) {
    std::size_t bits = 0;
    const auto payload = codec.encode(window, bits);
    EXPECT_EQ(codec.decode(payload, window.size()), window);
    EXPECT_EQ(bits, codec.encoded_bits(window));
    EXPECT_LE(payload.size(), bits / 8 + 1);
  }
}

TEST(DeltaHuffman, CompressesRedundantStaircase) {
  const auto corpus = staircase_corpus(7, 12);
  const auto codec = DeltaHuffmanCodec::train(corpus, 7);
  const auto& window = corpus.front();
  const std::size_t bits = codec.encoded_bits(window);
  const std::size_t raw_bits = window.size() * 7;
  EXPECT_LT(bits, raw_bits / 2);  // At least 2:1 on staircase data.
}

TEST(DeltaHuffman, EscapeHandlesUnseenDeltas) {
  const auto corpus = staircase_corpus(7, 13);
  const auto codec = DeltaHuffmanCodec::train(corpus, 7);
  // A window with a wild jump the training corpus never produced.
  std::vector<std::int64_t> window(64, 60);
  window[30] = 5;    // Delta −55.
  window[31] = 120;  // Delta +115.
  std::size_t bits = 0;
  const auto payload = codec.encode(window, bits);
  EXPECT_EQ(codec.decode(payload, window.size()), window);
}

TEST(DeltaHuffman, EncodedBitsMatchesPayload) {
  const auto corpus = staircase_corpus(5, 14);
  const auto codec = DeltaHuffmanCodec::train(corpus, 5);
  std::size_t bits = 0;
  const auto payload = codec.encode(corpus[3], bits);
  EXPECT_EQ(payload.size(), (bits + 7) / 8);
}

TEST(DeltaHuffman, CodebookContainsEscape) {
  const auto corpus = staircase_corpus(6, 15);
  const auto codec = DeltaHuffmanCodec::train(corpus, 6);
  EXPECT_EQ(codec.escape_symbol(), 64);
  EXPECT_TRUE(codec.codebook().contains(64));
}

TEST(DeltaHuffman, ProvisioningFromSerializedCodebook) {
  const auto corpus = staircase_corpus(7, 16);
  const auto trained = DeltaHuffmanCodec::train(corpus, 7);
  const auto bytes = trained.codebook().serialize();
  const DeltaHuffmanCodec provisioned(HuffmanCodebook::deserialize(bytes), 7);
  std::size_t bits1 = 0;
  std::size_t bits2 = 0;
  const auto p1 = trained.encode(corpus[0], bits1);
  const auto p2 = provisioned.encode(corpus[0], bits2);
  EXPECT_EQ(p1, p2);
  EXPECT_EQ(bits1, bits2);
}

TEST(DeltaHuffman, RejectsCodebookWithoutEscape) {
  const auto book = HuffmanCodebook::build({{0, 5}, {1, 3}});
  EXPECT_THROW(DeltaHuffmanCodec(book, 7), std::invalid_argument);
}

TEST(DeltaHuffman, DecodeCountValidation) {
  const auto corpus = staircase_corpus(7, 17);
  const auto codec = DeltaHuffmanCodec::train(corpus, 7);
  std::size_t bits = 0;
  const auto payload = codec.encode(corpus[0], bits);
  EXPECT_THROW(codec.decode(payload, 0), std::invalid_argument);
  // Asking for more symbols than encoded exhausts the stream.
  EXPECT_THROW(codec.decode(payload, corpus[0].size() + 999), DecodeError);
}

}  // namespace
}  // namespace csecg::coding
