// Tests for the telemetry link: CRC framing, packetize/reassemble
// round-trips, channel statistics, ARQ accounting, loss-resilient
// decoding, and corrupt-input fuzzing.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>

#include "csecg/core/frontend.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/dsp/dwt.hpp"
#include "csecg/ecg/record.hpp"
#include "csecg/link/arq.hpp"
#include "csecg/link/channel.hpp"
#include "csecg/link/crc16.hpp"
#include "csecg/link/packet.hpp"
#include "csecg/link/packetizer.hpp"
#include "csecg/link/session.hpp"
#include "csecg/metrics/quality.hpp"
#include "csecg/rng/xoshiro.hpp"

namespace csecg::link {
namespace {

class LinkTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ecg::RecordConfig record_config;
    record_config.duration_seconds = 15.0;
    database_ = new ecg::SyntheticDatabase(record_config, 2015);
    config_ = new core::FrontEndConfig();
    config_->window = 256;
    config_->measurements = 48;
    config_->wavelet_levels = 4;
    config_->solver.max_iterations = 400;
    codec_ = new coding::DeltaHuffmanCodec(
        core::train_lowres_codec(*config_, *database_, 2, 3));
  }
  static void TearDownTestSuite() {
    delete codec_;
    delete config_;
    delete database_;
  }

  static const ecg::SyntheticDatabase& database() { return *database_; }
  static const core::FrontEndConfig& config() { return *config_; }
  static const coding::DeltaHuffmanCodec& lowres() { return *codec_; }

  static LinkSessionConfig lossless_link() {
    LinkSessionConfig link;
    link.channel.kind = ChannelKind::kPerfect;
    return link;
  }

  static core::LossyWindow full_delivery_window(
      const core::Encoder& encoder, const linalg::Vector& window) {
    const core::Frame frame = encoder.encode(window);
    const Packetizer packetizer({}, *encoder.measurement_adc(), lowres());
    const Reassembler reassembler(config().measurements, config().window,
                                  *encoder.measurement_adc(), lowres(), 1);
    const auto train = packetizer.packetize(frame, 7);
    return reassembler.reassemble(7, train).window;
  }

 private:
  static ecg::SyntheticDatabase* database_;
  static core::FrontEndConfig* config_;
  static coding::DeltaHuffmanCodec* codec_;
};

ecg::SyntheticDatabase* LinkTest::database_ = nullptr;
core::FrontEndConfig* LinkTest::config_ = nullptr;
coding::DeltaHuffmanCodec* LinkTest::codec_ = nullptr;

// ---------------------------------------------------------------------------
// CRC-16.

TEST(Crc16, MatchesCcittFalseCheckValue) {
  const char* check = "123456789";
  EXPECT_EQ(crc16_ccitt(reinterpret_cast<const std::uint8_t*>(check), 9),
            0x29B1);
}

TEST(Crc16, IncrementalUpdateMatchesOneShot) {
  std::vector<std::uint8_t> data(57);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i * 37 + 11);
  }
  const std::uint16_t whole = crc16_ccitt(data.data(), data.size());
  std::uint16_t chained = crc16_ccitt_update(0xFFFF, data.data(), 20);
  chained = crc16_ccitt_update(chained, data.data() + 20, data.size() - 20);
  EXPECT_EQ(whole, chained);
}

TEST(Crc16, CatchesEverySingleBitFlip) {
  PacketHeader header;
  header.kind = PayloadKind::kCsMeasurements;
  header.stream_id = 3;
  header.window_seq = 99;
  header.count = 4;
  header.payload_bits = 48;
  const std::vector<std::uint8_t> payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x01,
                                             0x55};
  const auto bytes = serialize_packet(header, payload);
  ASSERT_TRUE(parse_packet(bytes).has_value());
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    auto corrupted = bytes;
    corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_FALSE(parse_packet(corrupted).has_value())
        << "flip of bit " << bit << " went undetected";
  }
}

TEST(Crc16, CatchesBurstErrorsUpTo16Bits) {
  PacketHeader header;
  header.kind = PayloadKind::kLowRes;
  header.count = 8;
  header.payload_bits = 64;
  std::vector<std::uint8_t> payload(8, 0xA5);
  const auto bytes = serialize_packet(header, payload);
  // Overlay bursts of 2..16 consecutive flipped bits at every offset.
  for (std::size_t len = 2; len <= 16; ++len) {
    for (std::size_t start = 0; start + len <= bytes.size() * 8;
         start += 5) {
      auto corrupted = bytes;
      for (std::size_t bit = start; bit < start + len; ++bit) {
        corrupted[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
      }
      EXPECT_FALSE(parse_packet(corrupted).has_value())
          << "burst [" << start << ", " << start + len << ") undetected";
    }
  }
}

// ---------------------------------------------------------------------------
// Packet framing.

TEST(Packet, HeaderRoundTrips) {
  PacketHeader header;
  header.kind = PayloadKind::kLowRes;
  header.stream_id = 0xBEEF;
  header.window_seq = 0x1234;
  header.packet_seq = 9;
  header.packet_count = 17;
  header.first = 1000;
  header.count = 250;
  header.payload_bits = 37;
  const std::vector<std::uint8_t> payload = {1, 2, 3, 4, 5};
  const auto bytes = serialize_packet(header, payload);
  const auto parsed = parse_packet(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->header.kind, header.kind);
  EXPECT_EQ(parsed->header.stream_id, header.stream_id);
  EXPECT_EQ(parsed->header.window_seq, header.window_seq);
  EXPECT_EQ(parsed->header.packet_seq, header.packet_seq);
  EXPECT_EQ(parsed->header.packet_count, header.packet_count);
  EXPECT_EQ(parsed->header.first, header.first);
  EXPECT_EQ(parsed->header.count, header.count);
  EXPECT_EQ(parsed->header.payload_bits, header.payload_bits);
  EXPECT_EQ(parsed->payload, payload);
}

TEST(Packet, RejectsTruncationAndTrailingGarbage) {
  PacketHeader header;
  header.payload_bits = 16;
  const auto bytes = serialize_packet(header, {0xAA, 0xBB});
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    const std::vector<std::uint8_t> shortened(
        bytes.begin(), bytes.begin() + static_cast<long>(cut));
    EXPECT_FALSE(parse_packet(shortened).has_value());
  }
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_FALSE(parse_packet(padded).has_value());
}

// ---------------------------------------------------------------------------
// Packetize / reassemble.

TEST_F(LinkTest, PacketizerRespectsMtu) {
  const core::Encoder encoder(config(), lowres());
  const core::Frame frame =
      encoder.encode(database().record(0).window(400, 256));
  for (const std::size_t mtu : {std::size_t{27}, std::size_t{64},
                                std::size_t{251}}) {
    PacketizerConfig pconfig;
    pconfig.mtu_bytes = mtu;
    const Packetizer packetizer(pconfig, *encoder.measurement_adc(),
                                lowres());
    const auto train = packetizer.packetize(frame, 0);
    EXPECT_GE(train.size(), 2u);  // CS + at least one low-res packet.
    for (const auto& bytes : train) {
      EXPECT_LE(bytes.size(), mtu);
      EXPECT_TRUE(parse_packet(bytes).has_value());
    }
  }
}

TEST_F(LinkTest, ZeroLossReassemblyIsExact) {
  const core::Encoder encoder(config(), lowres());
  const linalg::Vector window = database().record(0).window(400, 256);
  const core::Frame frame = encoder.encode(window);
  const core::LossyWindow lossy = full_delivery_window(encoder, window);

  ASSERT_EQ(lossy.measurements.size(), frame.measurements.size());
  for (std::size_t i = 0; i < lossy.measurements.size(); ++i) {
    EXPECT_EQ(lossy.measurement_mask[i], 1);
    EXPECT_EQ(lossy.measurements[i], frame.measurements[i]);
  }
  const auto codes = lowres().decode(frame.lowres_payload, config().window);
  ASSERT_EQ(lossy.lowres_codes.size(), codes.size());
  for (std::size_t i = 0; i < codes.size(); ++i) {
    EXPECT_EQ(lossy.lowres_mask[i], 1);
    EXPECT_EQ(lossy.lowres_codes[i], codes[i]);
  }
}

TEST_F(LinkTest, ZeroLossDecodeBitIdenticalToFramePath) {
  const core::Encoder encoder(config(), lowres());
  const core::Decoder decoder(config(), lowres());
  const linalg::Vector window = database().record(0).window(400, 256);
  const core::Frame frame = encoder.encode(window);

  const core::DecodeResult direct = decoder.decode(frame);
  const core::LossyDecodeResult via_link =
      decoder.decode_lossy(full_delivery_window(encoder, window));

  EXPECT_EQ(direct.x, via_link.x);
  EXPECT_EQ(via_link.effective_m, config().measurements);
  EXPECT_FALSE(via_link.lowres_only);
  EXPECT_TRUE(via_link.used_box);
}

TEST_F(LinkTest, CodebookBlobRoundTrips) {
  const core::Encoder encoder(config(), lowres());
  std::vector<std::uint8_t> blob(300);
  for (std::size_t i = 0; i < blob.size(); ++i) {
    blob[i] = static_cast<std::uint8_t>(i * 101 + 7);
  }
  const Packetizer packetizer({}, *encoder.measurement_adc(), lowres());
  const auto train = packetizer.packetize_blob(blob, 0);
  const auto restored = Reassembler::reassemble_blob(train);
  ASSERT_TRUE(restored.has_value());
  EXPECT_EQ(*restored, blob);

  auto partial = train;
  partial.erase(partial.begin() + 1);
  EXPECT_FALSE(Reassembler::reassemble_blob(partial).has_value());
}

// ---------------------------------------------------------------------------
// Channels.

TEST(Channel, ErasureRateMatchesConfig) {
  ChannelConfig cc;
  cc.kind = ChannelKind::kPacketErasure;
  cc.erasure_rate = 0.2;
  Channel channel(cc, 77);
  std::vector<std::uint8_t> packet = {1, 2, 3};
  int lost = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    if (!channel.transmit(packet)) ++lost;
  }
  const double empirical = static_cast<double>(lost) / trials;
  EXPECT_NEAR(empirical, cc.erasure_rate, 0.01);
  EXPECT_DOUBLE_EQ(channel.expected_erasure_rate(), 0.2);
}

TEST(Channel, GilbertElliottMatchesStationaryLoss) {
  ChannelConfig cc;
  cc.kind = ChannelKind::kGilbertElliott;
  cc.ge_good_to_bad = 0.05;
  cc.ge_bad_to_good = 0.20;
  cc.ge_erasure_good = 0.01;
  cc.ge_erasure_bad = 0.6;
  // Stationary: π_bad = 0.05/0.25 = 0.2 → loss = 0.2·0.6 + 0.8·0.01.
  const double expected = 0.2 * 0.6 + 0.8 * 0.01;
  EXPECT_NEAR(Channel(cc).expected_erasure_rate(), expected, 1e-12);

  Channel channel(cc, 1234);
  std::vector<std::uint8_t> packet = {0};
  int lost = 0;
  const int trials = 60000;
  for (int i = 0; i < trials; ++i) {
    if (!channel.transmit(packet)) ++lost;
  }
  EXPECT_NEAR(static_cast<double>(lost) / trials, expected, 0.01);
}

TEST(Channel, BitErrorFlipsAreCaughtByCrc) {
  ChannelConfig cc;
  cc.kind = ChannelKind::kBitError;
  cc.bit_error_rate = 0.01;
  Channel channel(cc, 42);
  PacketHeader header;
  header.payload_bits = 256;
  const auto bytes = serialize_packet(
      header, std::vector<std::uint8_t>(32, 0x3C));
  int undetected = 0;
  for (int i = 0; i < 2000; ++i) {
    auto copy = bytes;
    ASSERT_TRUE(channel.transmit(copy));
    if (copy != bytes && parse_packet(copy).has_value()) ++undetected;
  }
  // CRC-16 misses a corrupted packet with probability ~2^-16; 2000 trials
  // should see none.
  EXPECT_EQ(undetected, 0);
}

// ---------------------------------------------------------------------------
// ARQ.

TEST_F(LinkTest, StopAndWaitRecoversModerateLoss) {
  const core::Encoder encoder(config(), lowres());
  const core::Frame frame =
      encoder.encode(database().record(0).window(400, 256));
  const Packetizer packetizer({}, *encoder.measurement_adc(), lowres());
  const auto train = packetizer.packetize(frame, 0);

  ChannelConfig cc;
  cc.kind = ChannelKind::kPacketErasure;
  cc.erasure_rate = 0.3;

  ArqConfig none;
  LinkStats none_stats;
  Channel c1(cc, 5);
  const auto none_rx = transmit_packets(train, c1, none, none_stats);

  ArqConfig saw;
  saw.mode = ArqMode::kStopAndWait;
  saw.max_retries = 6;
  LinkStats saw_stats;
  Channel c2(cc, 5);
  const auto saw_rx = transmit_packets(train, c2, saw, saw_stats);

  EXPECT_LT(none_rx.size(), train.size());  // 0.7^13 ≈ 1% of all surviving.
  EXPECT_EQ(saw_rx.size(), train.size());   // (1-0.3^7)^13 ≈ 0.997.
  EXPECT_GT(saw_stats.retransmissions, 0u);
  EXPECT_GT(saw_stats.data_bits, none_stats.data_bits);
  EXPECT_GT(saw_stats.feedback_bits, 0u);
  EXPECT_GT(saw_stats.backoff_ms, 0.0);
}

TEST_F(LinkTest, SelectiveRepeatRetransmitsOnlyFailures) {
  const core::Encoder encoder(config(), lowres());
  const core::Frame frame =
      encoder.encode(database().record(1).window(500, 256));
  const Packetizer packetizer({}, *encoder.measurement_adc(), lowres());
  const auto train = packetizer.packetize(frame, 1);

  ChannelConfig cc;
  cc.kind = ChannelKind::kPacketErasure;
  cc.erasure_rate = 0.3;

  ArqConfig sr;
  sr.mode = ArqMode::kSelectiveRepeat;
  sr.max_retries = 6;
  sr.sr_window = 4;
  LinkStats sr_stats;
  // Seed 13's erasure pattern starts with two losses, so the first round
  // must leave work for a retransmission round whatever the train size.
  Channel channel(cc, 13);
  const auto rx = transmit_packets(train, channel, sr, sr_stats);

  EXPECT_EQ(rx.size(), train.size());
  EXPECT_GT(sr_stats.retransmissions, 0u);
  // Selective repeat never re-sends a delivered packet, so total
  // transmissions = packets + retransmissions and stays well below
  // stop-and-wait's worst case.
  EXPECT_EQ(sr_stats.delivered, train.size());
  EXPECT_EQ(sr_stats.dropped, 0u);
}

// ---------------------------------------------------------------------------
// Loss-resilient decoding.

TEST_F(LinkTest, SnrDegradesGracefullyWithRowLoss) {
  const core::Encoder encoder(config(), lowres());
  const core::Decoder decoder(config(), lowres());
  const linalg::Vector window = database().record(0).window(400, 256);
  core::LossyWindow base = full_delivery_window(encoder, window);

  const std::size_t m = config().measurements;
  std::vector<double> snr;
  for (const double loss : {0.0, 0.1, 0.2, 0.3}) {
    core::LossyWindow lossy = base;
    // Drop a deterministic, evenly spread set of rows.
    const auto drop = static_cast<std::size_t>(loss * static_cast<double>(m));
    for (std::size_t k = 0; k < drop; ++k) {
      lossy.measurement_mask[(k * m) / drop] = 0;
    }
    const core::LossyDecodeResult result = decoder.decode_lossy(lossy);
    EXPECT_EQ(result.effective_m, m - drop);
    EXPECT_FALSE(result.lowres_only);
    const double prd = metrics::prd_zero_mean(window, result.x);
    snr.push_back(metrics::snr_from_prd(prd));
  }
  // Graceful, not catastrophic: 10% row loss costs < 6 dB, and no loss
  // level collapses below the low-res staircase floor.
  EXPECT_LT(snr[0] - snr[1], 6.0);
  for (std::size_t i = 1; i < snr.size(); ++i) {
    EXPECT_LT(snr[i], snr[0] + 1.0);  // No gain from losing rows.
    EXPECT_GT(snr[i], 5.0);           // Never catastrophic.
  }
}

TEST_F(LinkTest, WholeCsTrainLossFallsBackToLowRes) {
  const core::Encoder encoder(config(), lowres());
  const core::Decoder decoder(config(), lowres());
  const linalg::Vector window = database().record(0).window(400, 256);
  core::LossyWindow lossy = full_delivery_window(encoder, window);
  std::fill(lossy.measurement_mask.begin(), lossy.measurement_mask.end(), 0);

  const core::LossyDecodeResult result = decoder.decode_lossy(lossy);
  EXPECT_TRUE(result.lowres_only);
  EXPECT_EQ(result.effective_m, 0u);
  ASSERT_EQ(result.x.size(), config().window);
  // The staircase still tracks the signal to within the 7-bit step.
  const double prd = metrics::prd_zero_mean(window, result.x);
  EXPECT_GT(metrics::snr_from_prd(prd), 5.0);
}

TEST_F(LinkTest, LostLowResRangesWidenTheBox) {
  const core::Encoder encoder(config(), lowres());
  const core::Decoder decoder(config(), lowres());
  const linalg::Vector window = database().record(0).window(400, 256);
  core::LossyWindow lossy = full_delivery_window(encoder, window);
  for (std::size_t i = 64; i < 192; ++i) lossy.lowres_mask[i] = 0;

  const core::LossyDecodeResult result = decoder.decode_lossy(lossy);
  EXPECT_TRUE(result.used_box);
  EXPECT_EQ(result.boxed_samples, config().window - 128);
  EXPECT_FALSE(result.lowres_only);
  const double prd = metrics::prd_zero_mean(window, result.x);
  EXPECT_GT(metrics::snr_from_prd(prd), 5.0);
}

TEST_F(LinkTest, TotalLossStillProducesAWindow) {
  const core::Decoder decoder(config(), lowres());
  core::LossyWindow nothing;
  nothing.window = config().window;
  nothing.measurements = linalg::Vector(config().measurements);
  nothing.measurement_mask.assign(config().measurements, 0);
  nothing.lowres_codes.assign(config().window, 0);
  nothing.lowres_mask.assign(config().window, 0);
  const core::LossyDecodeResult result = decoder.decode_lossy(nothing);
  EXPECT_TRUE(result.lowres_only);
  EXPECT_EQ(result.x.size(), config().window);
  for (std::size_t i = 0; i < result.x.size(); ++i) {
    EXPECT_TRUE(std::isfinite(result.x[i]));
  }
}

// The masked solve on the cached Φ against the row-dropping algorithm it
// replaced, kept here as the oracle: copy the surviving rows of Φ, pack
// them, and solve on the surviving entries of y with σ·√(m_eff/m).
TEST_F(LinkTest, MaskedLossyDecodeMatchesRowDroppedSolve) {
  core::FrontEndConfig cfg = config();
  cfg.measurements = 96;  // Three 32-row CS packets at the default MTU.
  const std::size_t m = cfg.measurements;
  const std::size_t n = cfg.window;
  const core::Encoder encoder(cfg, lowres());
  const core::Decoder decoder(cfg, lowres());
  const linalg::Vector window = database().record(0).window(400, n);
  const core::Frame frame = encoder.encode(window);

  sensing::RmpiConfig rmpi_config;
  rmpi_config.channels = m;
  rmpi_config.window = n;
  rmpi_config.chip_seed = cfg.chip_seed;
  const linalg::Matrix phi =
      sensing::RmpiSimulator(rmpi_config).effective_matrix();
  const linalg::LinearOperator psi =
      dsp::Dwt(cfg.wavelet, n, cfg.wavelet_levels).synthesis_operator();
  recovery::PdhgOptions options = cfg.solver;
  options.phi_norm_hint = linalg::operator_norm_estimate(
      linalg::LinearOperator::from_matrix(phi), 60);
  const double dc = cfg.dc_reference();
  const std::vector<std::int64_t> codes =
      lowres().decode(frame.lowres_payload, n);
  const sensing::LowResChannel channel({cfg.lowres_bits, cfg.record_bits});
  recovery::BoxConstraint box;
  box.lower = channel.reconstruct(codes);
  box.upper = box.lower;
  for (std::size_t i = 0; i < n; ++i) {
    box.lower[i] -= dc;
    box.upper[i] += channel.step() - dc;
  }

  for (const bool packet_aligned : {true, false}) {
    for (const bool with_box : {true, false}) {
      SCOPED_TRACE(testing::Message() << "packet_aligned=" << packet_aligned
                                      << " with_box=" << with_box);
      core::LossyWindow lossy;
      lossy.window = n;
      lossy.measurements = frame.measurements;
      lossy.measurement_mask.assign(m, 1);
      lossy.lowres_codes = codes;
      lossy.lowres_mask.assign(n, with_box ? 1 : 0);
      std::vector<std::size_t> kept;
      for (std::size_t i = 0; i < m; ++i) {
        const bool lost = packet_aligned ? (i >= 32 && i < 64) : i % 7 == 0;
        if (lost) {
          lossy.measurement_mask[i] = 0;
          lossy.measurements[i] = 1e9;  // Undefined on a lost row.
        } else {
          kept.push_back(i);
        }
      }

      linalg::Matrix sub(kept.size(), n);
      linalg::Vector y_kept(kept.size());
      for (std::size_t r = 0; r < kept.size(); ++r) {
        std::copy(phi.row(kept[r]), phi.row(kept[r]) + n, sub.row(r));
        y_kept[r] = frame.measurements[kept[r]];
      }
      const auto phi_sub = linalg::LinearOperator::from_matrix(sub);
      recovery::PdhgOptions ref_options = options;
      if (!with_box) {
        const linalg::Cholesky chol(
            linalg::multiply(sub, linalg::transpose(sub)));
        ref_options.x0 = phi_sub.apply_adjoint(chol.solve(y_kept));
      }
      const recovery::PdhgResult ref = recovery::solve_bpdn(
          phi_sub, psi, y_kept, decoder.sigma(kept.size()),
          with_box ? std::optional(box) : std::nullopt, ref_options);
      linalg::Vector expected = ref.x;
      for (auto& v : expected) v += dc;

      const core::LossyDecodeResult got = decoder.decode_lossy(lossy);
      ASSERT_EQ(got.effective_m, kept.size());
      EXPECT_EQ(got.used_box, with_box);
      EXPECT_EQ(got.solver.iterations, ref.iterations);
      EXPECT_EQ(got.solver.exit, ref.exit);
      if (packet_aligned) {
        EXPECT_EQ(got.x, expected);
      } else {
        linalg::Vector diff = got.x;
        for (std::size_t i = 0; i < n; ++i) diff[i] -= expected[i];
        EXPECT_LE(linalg::norm2(diff), 1e-12 * linalg::norm2(expected));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Fuzzing: arbitrary corruption must never crash the receive path.

TEST_F(LinkTest, CorruptPacketFuzzNeverThrows) {
  const core::Encoder encoder(config(), lowres());
  const core::Decoder decoder(config(), lowres());
  const linalg::Vector window = database().record(2).window(600, 256);
  const core::Frame frame = encoder.encode(window);
  const Packetizer packetizer({}, *encoder.measurement_adc(), lowres());
  const Reassembler reassembler(config().measurements, config().window,
                                *encoder.measurement_adc(), lowres(), 1);
  const auto train = packetizer.packetize(frame, 3);

  rng::Xoshiro256 gen(0xF022);
  for (int round = 0; round < 200; ++round) {
    std::vector<std::vector<std::uint8_t>> mangled;
    for (const auto& bytes : train) {
      std::vector<std::uint8_t> copy = bytes;
      switch (gen.next() % 4) {
        case 0:  // Pass through.
          break;
        case 1:  // Random byte flips (1..8 of them).
          for (std::uint64_t k = 0; k <= gen.next() % 8; ++k) {
            copy[gen.next() % copy.size()] ^=
                static_cast<std::uint8_t>(gen.next());
          }
          break;
        case 2:  // Truncate.
          copy.resize(gen.next() % copy.size());
          break;
        default:  // Replace with garbage of arbitrary length.
          copy.assign(gen.next() % 80, static_cast<std::uint8_t>(gen.next()));
          break;
      }
      mangled.push_back(std::move(copy));
    }
    ASSERT_NO_THROW({
      const ReassemblyResult result = reassembler.reassemble(3, mangled);
      const core::LossyDecodeResult decoded =
          decoder.decode_lossy(result.window);
      for (std::size_t i = 0; i < decoded.x.size(); ++i) {
        ASSERT_TRUE(std::isfinite(decoded.x[i]));
      }
    });
  }
}

// ---------------------------------------------------------------------------
// End-to-end session.

TEST_F(LinkTest, SessionZeroLossMatchesFramePath) {
  const LinkSession session(config(), lowres(), lossless_link());
  const core::Codec codec(config(), lowres());
  const linalg::Vector window = database().record(0).window(400, 256);

  const WindowResult via_link = session.transmit_window(window, 0);
  const core::DecodeResult direct = codec.roundtrip(window);
  EXPECT_EQ(via_link.decoded.x, direct.x);
  EXPECT_EQ(via_link.stats.dropped, 0u);
  EXPECT_EQ(via_link.stats.delivered, via_link.stats.packets);
  EXPECT_GT(via_link.energy.total(), 0.0);
}

TEST_F(LinkTest, SessionSurvivesBurstLoss) {
  LinkSessionConfig link = lossless_link();
  link.channel.kind = ChannelKind::kGilbertElliott;
  const LinkSession session(config(), lowres(), link);
  const linalg::Vector window = database().record(0).window(400, 256);
  const WindowResult result = session.transmit_window(window, 1);
  EXPECT_EQ(result.stats.packets,
            result.stats.delivered + result.stats.dropped);
  for (std::size_t i = 0; i < result.decoded.x.size(); ++i) {
    ASSERT_TRUE(std::isfinite(result.decoded.x[i]));
  }
}

TEST_F(LinkTest, ArqSpendsEnergyToBuyDelivery) {
  LinkSessionConfig lossy = lossless_link();
  lossy.channel.kind = ChannelKind::kPacketErasure;
  lossy.channel.erasure_rate = 0.2;

  LinkSessionConfig with_arq = lossy;
  with_arq.arq.mode = ArqMode::kSelectiveRepeat;
  with_arq.arq.max_retries = 5;

  const LinkSession no_arq_session(config(), lowres(), lossy);
  const LinkSession arq_session(config(), lowres(), with_arq);
  const linalg::Vector window = database().record(0).window(400, 256);

  // Same substream seed → same first-transmission loss pattern.
  const WindowResult no_arq = no_arq_session.transmit_window(window, 4);
  const WindowResult arq = arq_session.transmit_window(window, 4);

  EXPECT_GE(arq.stats.delivered, no_arq.stats.delivered);
  EXPECT_GE(arq.stats.data_bits, no_arq.stats.data_bits);
  EXPECT_GT(arq.energy.radio, no_arq.energy.radio);
  EXPECT_GE(arq.decoded.effective_m, no_arq.decoded.effective_m);
}

TEST_F(LinkTest, RunLinkRecordIsThreadDeterministic) {
  LinkSessionConfig link = lossless_link();
  link.channel.kind = ChannelKind::kPacketErasure;
  link.channel.erasure_rate = 0.15;
  const LinkSession session(config(), lowres(), link);
  const ecg::EcgRecord& record = database().record(0);

  parallel::ThreadPool serial(1);
  parallel::ThreadPool threaded(4);
  const LinkRecordReport a = run_link_record(session, record, 3, 0, serial);
  const LinkRecordReport b =
      run_link_record(session, record, 3, 0, threaded);

  ASSERT_EQ(a.windows.size(), b.windows.size());
  // At least one window lost part of its CS train: the masked solve ran.
  const std::size_t m = config().measurements;
  EXPECT_TRUE(std::any_of(a.stats.begin(), a.stats.end(),
                          [m](const LinkStats& stats) {
                            const std::size_t kept = stats.effective_m;
                            return kept > 0 && kept < m;
                          }));
  EXPECT_EQ(a.mean_snr, b.mean_snr);
  EXPECT_EQ(a.mean_prd, b.mean_prd);
  EXPECT_EQ(a.delivery_rate, b.delivery_rate);
  for (std::size_t w = 0; w < a.windows.size(); ++w) {
    EXPECT_EQ(a.windows[w].snr, b.windows[w].snr);
    EXPECT_EQ(a.stats[w].delivered, b.stats[w].delivered);
    EXPECT_EQ(a.energy_j[w], b.energy_j[w]);
  }
}

TEST_F(LinkTest, LosslessLinkRecordMatchesCleanRecord) {
  // Over a perfect channel the link delivers every frame intact, so the
  // shared runner must give the link record exactly the clean codec's
  // per-window records, means and outlier flags.
  const LinkSession session(config(), lowres(), lossless_link());
  const core::Codec codec(config(), lowres());
  const ecg::EcgRecord& record = database().record(1);
  parallel::ThreadPool pool(2);
  const LinkRecordReport link = run_link_record(session, record, 6, 0, pool);
  const core::RecordReport clean =
      core::run_record(codec, record, 6, core::DecodeMode::kAuto, pool);

  ASSERT_EQ(link.windows.size(), clean.windows.size());
  ASSERT_FALSE(clean.outlier_windows.empty());  // The fence is exercised.
  for (std::size_t w = 0; w < clean.windows.size(); ++w) {
    const core::WindowMetrics& a = link.windows[w];
    const core::WindowMetrics& b = clean.windows[w];
    EXPECT_EQ(a.prd, b.prd) << "window " << w;
    EXPECT_EQ(a.snr, b.snr) << "window " << w;
    EXPECT_EQ(a.iterations, b.iterations) << "window " << w;
    EXPECT_EQ(a.exit, b.exit) << "window " << w;
    EXPECT_EQ(a.converged, b.converged) << "window " << w;
    EXPECT_EQ(a.ball_violation, b.ball_violation) << "window " << w;
    EXPECT_EQ(a.solved, b.solved) << "window " << w;
    EXPECT_EQ(a.m_eff, b.m_eff) << "window " << w;
  }
  EXPECT_EQ(link.record_name, clean.record_name);
  EXPECT_EQ(link.mean_prd, clean.mean_prd);
  EXPECT_EQ(link.mean_snr, clean.mean_snr);
  EXPECT_EQ(link.solved_windows, clean.solved_windows);
  EXPECT_EQ(link.converged_windows, clean.converged_windows);
  EXPECT_EQ(link.non_converged_windows, clean.non_converged_windows);
  EXPECT_EQ(link.outlier_windows, clean.outlier_windows);
  EXPECT_EQ(link.outlier_snr_threshold_db, clean.outlier_snr_threshold_db);
  EXPECT_EQ(link.lowres_only_windows, 0u);
  EXPECT_EQ(link.delivery_rate, 1.0);
}

TEST_F(LinkTest, ChannelSubstreamsAreDistinct) {
  const LinkSession session(config(), lowres(), lossless_link());
  EXPECT_NE(session.channel_seed(0), session.channel_seed(1));
  EXPECT_NE(session.channel_seed(1), session.channel_seed(2));
}

}  // namespace
}  // namespace csecg::link
