// Integration tests for csecg::core — the full encoder/decoder pipeline on
// synthetic records: config validation, frame accounting, hybrid-vs-normal
// quality ordering (the paper's central claim), box feasibility, and the
// experiment runner.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>

#include "csecg/core/config.hpp"
#include "csecg/core/frontend.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/metrics/quality.hpp"

namespace csecg::core {
namespace {

// Shared fixture: a short database and a fast codec configuration.
class FrontEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ecg::RecordConfig record_config;
    record_config.duration_seconds = 20.0;
    database_ = new ecg::SyntheticDatabase(record_config, 2015);
    config_ = new FrontEndConfig();
    config_->window = 256;
    config_->measurements = 64;
    config_->wavelet_levels = 4;
    config_->solver.max_iterations = 800;
    codec_ = new coding::DeltaHuffmanCodec(
        train_lowres_codec(*config_, *database_, 3, 3));
  }
  static void TearDownTestSuite() {
    delete codec_;
    delete config_;
    delete database_;
  }

  static const ecg::SyntheticDatabase& database() { return *database_; }
  static const FrontEndConfig& config() { return *config_; }
  static const coding::DeltaHuffmanCodec& lowres_codec() { return *codec_; }
  static linalg::Vector test_window() {
    return database().record(0).window(400, config().window);
  }

 private:
  static ecg::SyntheticDatabase* database_;
  static FrontEndConfig* config_;
  static coding::DeltaHuffmanCodec* codec_;
};

ecg::SyntheticDatabase* FrontEndTest::database_ = nullptr;
FrontEndConfig* FrontEndTest::config_ = nullptr;
coding::DeltaHuffmanCodec* FrontEndTest::codec_ = nullptr;

// ---------------------------------------------------------------------------
// Config.

TEST(FrontEndConfig_, DefaultIsValid) {
  EXPECT_NO_THROW(validate(FrontEndConfig{}));
}

TEST(FrontEndConfig_, RejectsNonsense) {
  FrontEndConfig bad;
  bad.measurements = 0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = FrontEndConfig{};
  bad.measurements = 1024;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = FrontEndConfig{};
  bad.window = 500;  // Not divisible by 2^5.
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = FrontEndConfig{};
  bad.lowres_bits = 12;  // > record_bits.
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = FrontEndConfig{};
  bad.original_bits = 10;  // < record_bits.
  EXPECT_THROW(validate(bad), std::invalid_argument);
}

TEST(FrontEndConfig_, DcReferenceIsMidScale) {
  FrontEndConfig config;
  EXPECT_DOUBLE_EQ(config.dc_reference(), 1024.0);
  config.record_bits = 12;
  EXPECT_DOUBLE_EQ(config.dc_reference(), 2048.0);
}

TEST(FrontEndConfig_, CompressionRatioMatchesPaperAxis) {
  FrontEndConfig config;  // n=512, 12-bit measurements vs 12-bit original.
  config.measurements = 256;
  EXPECT_NEAR(config.cs_compression_ratio(), 50.0, 1e-12);
  config.measurements = 96;
  EXPECT_NEAR(config.cs_compression_ratio(), 81.25, 1e-12);
}

TEST(FrontEndConfig_, MeasurementsForCrRoundTrips) {
  FrontEndConfig config;
  for (double cr : {50.0, 62.0, 75.0, 88.0, 97.0}) {
    config.measurements = config.measurements_for_cr(cr);
    EXPECT_NEAR(config.cs_compression_ratio(), cr, 0.2);
  }
  // Clamped at the extremes rather than degenerate.
  EXPECT_GE(config.measurements_for_cr(100.0), 1u);
  EXPECT_LE(config.measurements_for_cr(0.0), config.window);
}

// ---------------------------------------------------------------------------
// Codec training.

TEST_F(FrontEndTest, TrainLowResCodecProducesCompactCodebook) {
  const auto& codec = lowres_codec();
  EXPECT_EQ(codec.code_bits(), 7);
  // The Fig. 5 ballpark: tens of bytes, not kilobytes.
  EXPECT_LT(codec.codebook().storage_bytes(), 300u);
  EXPECT_GE(codec.codebook().entries().size(), 3u);
}

TEST_F(FrontEndTest, TrainRejectsDisabledChannel) {
  FrontEndConfig no_lowres = config();
  no_lowres.lowres_bits = 0;
  EXPECT_THROW(train_lowres_codec(no_lowres, database(), 2, 2),
               std::invalid_argument);
  EXPECT_THROW(train_lowres_codec(config(), database(), 0, 2),
               std::invalid_argument);
  EXPECT_THROW(train_lowres_codec(config(), database(), 99, 2),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Encoder.

TEST_F(FrontEndTest, EncoderRequiresCodecWhenChannelEnabled) {
  EXPECT_THROW(Encoder(config(), std::nullopt), std::invalid_argument);
}

TEST_F(FrontEndTest, EncoderRejectsMismatchedCodec) {
  FrontEndConfig other = config();
  other.lowres_bits = 5;
  // 7-bit codec against a 5-bit channel.
  EXPECT_THROW(Encoder(other, lowres_codec()), std::invalid_argument);
}

TEST_F(FrontEndTest, EncodeValidatesWindowLength) {
  const Encoder encoder(config(), lowres_codec());
  EXPECT_THROW(encoder.encode(linalg::Vector(255)), std::invalid_argument);
}

TEST_F(FrontEndTest, FrameBitAccounting) {
  const Encoder encoder(config(), lowres_codec());
  const Frame frame = encoder.encode(test_window());
  EXPECT_EQ(frame.window, 256u);
  EXPECT_EQ(frame.measurements.size(), 64u);
  EXPECT_EQ(frame.measurement_bits, 12);
  EXPECT_EQ(frame.cs_bits(), 64u * 12u);
  EXPECT_GT(frame.lowres_bits, 0u);
  EXPECT_EQ(frame.total_bits(), frame.cs_bits() + frame.lowres_bits);
  // The payload is tightly packed.
  EXPECT_EQ(frame.lowres_payload.size(), (frame.lowres_bits + 7) / 8);
}

TEST_F(FrontEndTest, EncodeDeterministic) {
  const Encoder encoder(config(), lowres_codec());
  const Frame a = encoder.encode(test_window());
  const Frame b = encoder.encode(test_window());
  EXPECT_EQ(a.measurements, b.measurements);
  EXPECT_EQ(a.lowres_payload, b.lowres_payload);
}

TEST_F(FrontEndTest, DisabledLowResGivesEmptyPayload) {
  FrontEndConfig normal_only = config();
  normal_only.lowres_bits = 0;
  const Encoder encoder(normal_only, std::nullopt);
  const Frame frame = encoder.encode(test_window());
  EXPECT_TRUE(frame.lowres_payload.empty());
  EXPECT_EQ(frame.lowres_bits, 0u);
}

// ---------------------------------------------------------------------------
// Decoder / roundtrip.

TEST_F(FrontEndTest, HybridReconstructionQuality) {
  const Codec codec(config(), lowres_codec());
  const linalg::Vector window = test_window();
  const DecodeResult result = codec.roundtrip(window);
  EXPECT_TRUE(result.used_box);
  // Zero-mean SNR in the paper's "reasonable" range even at m/n = 0.25.
  EXPECT_GT(metrics::snr_from_prd(metrics::prd_zero_mean(window, result.x)),
            12.0);
}

TEST_F(FrontEndTest, HybridStaysInsideBox) {
  const Codec codec(config(), lowres_codec());
  const linalg::Vector window = test_window();
  const DecodeResult result = codec.roundtrip(window);
  // The staircase box has width 16 (7-bit over 11-bit range); allow the
  // solver's feasibility slack.
  const double step = 16.0;
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_NEAR(result.x[i], window[i], 2.0 * step);
  }
}

TEST_F(FrontEndTest, HybridBeatsNormalCs) {
  // The paper's Fig. 7 ordering at high compression.
  const Codec codec(config(), lowres_codec());
  const linalg::Vector window = test_window();
  const DecodeResult hybrid = codec.roundtrip(window, DecodeMode::kHybrid);
  const DecodeResult normal = codec.roundtrip(window, DecodeMode::kNormalCs);
  EXPECT_FALSE(normal.used_box);
  const double snr_hybrid =
      metrics::snr_from_prd(metrics::prd_zero_mean(window, hybrid.x));
  const double snr_normal =
      metrics::snr_from_prd(metrics::prd_zero_mean(window, normal.x));
  EXPECT_GT(snr_hybrid, snr_normal + 3.0);
}

TEST_F(FrontEndTest, DecodeModeValidation) {
  FrontEndConfig normal_only = config();
  normal_only.lowres_bits = 0;
  const Encoder encoder(normal_only, std::nullopt);
  const Decoder decoder(normal_only, std::nullopt);
  const Frame frame = encoder.encode(test_window());
  EXPECT_THROW(decoder.decode(frame, DecodeMode::kHybrid),
               std::invalid_argument);
  EXPECT_NO_THROW(decoder.decode(frame, DecodeMode::kAuto));
}

TEST_F(FrontEndTest, DecodeValidatesFrameShape) {
  const Decoder decoder(config(), lowres_codec());
  Frame bad;
  bad.window = 128;
  bad.measurements = linalg::Vector(64);
  bad.measurement_bits = 12;
  EXPECT_THROW(decoder.decode(bad), std::invalid_argument);
  bad.window = 256;
  bad.measurements = linalg::Vector(32);
  EXPECT_THROW(decoder.decode(bad), std::invalid_argument);
}

TEST_F(FrontEndTest, DecodeDeterministic) {
  const Codec codec(config(), lowres_codec());
  const linalg::Vector window = test_window();
  const DecodeResult a = codec.roundtrip(window);
  const DecodeResult b = codec.roundtrip(window);
  EXPECT_EQ(a.x, b.x);
}

TEST_F(FrontEndTest, LeakyIntegratorStillDecodes) {
  // The decoder regenerates the leakage-aware operator, so a mildly lossy
  // integrator must not break reconstruction.
  FrontEndConfig leaky = config();
  leaky.integrator_leakage = 0.001;
  const Codec codec(leaky, lowres_codec());
  const linalg::Vector window = test_window();
  const DecodeResult result = codec.roundtrip(window);
  EXPECT_GT(metrics::snr_from_prd(metrics::prd_zero_mean(window, result.x)),
            10.0);
}

// ---------------------------------------------------------------------------
// Runner.

TEST_F(FrontEndTest, RunRecordAggregates) {
  const Codec codec(config(), lowres_codec());
  const RecordReport report = run_record(codec, database().record(0), 2);
  EXPECT_EQ(report.record_name, "100");
  ASSERT_EQ(report.windows.size(), 2u);
  for (const auto& w : report.windows) {
    EXPECT_GT(w.snr, 0.0);
    EXPECT_GT(w.snr_raw, w.snr);  // Baseline energy inflates raw SNR.
    EXPECT_EQ(w.cs_bits, 64u * 12u);
    EXPECT_GT(w.lowres_bits, 0u);
  }
  // CS CR for m=64, n=256: (1 − 64/256)·100 = 75%.
  EXPECT_NEAR(report.cs_cr_percent, 75.0, 1e-9);
  EXPECT_GT(report.overhead_percent, 2.0);
  EXPECT_LT(report.overhead_percent, 25.0);
  EXPECT_NEAR(report.net_cr_percent,
              report.cs_cr_percent - report.overhead_percent, 1e-9);
}

TEST_F(FrontEndTest, RunDatabaseAndAggregates) {
  const Codec codec(config(), lowres_codec());
  const auto reports = run_database(codec, database(), 2, 1);
  ASSERT_EQ(reports.size(), 2u);
  EXPECT_EQ(reports[0].record_name, "100");
  EXPECT_EQ(reports[1].record_name, "101");
  const double avg_snr = averaged_snr(reports);
  const double avg_prd = averaged_prd(reports);
  EXPECT_GT(avg_snr, 0.0);
  EXPECT_GT(avg_prd, 0.0);
  const auto snrs = per_record_snr(reports);
  ASSERT_EQ(snrs.size(), 2u);
  EXPECT_NEAR((snrs[0] + snrs[1]) / 2.0, avg_snr, 1e-12);
}

TEST_F(FrontEndTest, ReportCountsNonConvergedWindowsInsteadOfAveraging) {
  // With an iteration budget far too small to converge, every window must
  // land in non_converged_windows — the report may not silently fold
  // garbage reconstructions into the means without flagging it (ISSUE 3).
  FrontEndConfig starved = config();
  starved.solver.max_iterations = 3;
  const Codec codec(starved, lowres_codec());
  const RecordReport report = run_record(codec, database().record(0), 3);
  ASSERT_EQ(report.windows.size(), 3u);
  EXPECT_EQ(report.converged_windows + report.non_converged_windows,
            report.windows.size());
  EXPECT_EQ(report.non_converged_windows, report.windows.size());
  EXPECT_EQ(report.converged_windows, 0u);
  EXPECT_EQ(report.solved_windows, report.windows.size());
  // Each window burned the full budget and left the ball unreached.
  int max_iterations = 0;
  std::uint64_t total_iterations = 0;
  double max_ball_violation = 0.0;
  for (const auto& w : report.windows) {
    EXPECT_TRUE(w.solved);
    EXPECT_FALSE(w.converged);
    EXPECT_EQ(w.iterations, 3);
    max_iterations = std::max(max_iterations, w.iterations);
    total_iterations += static_cast<std::uint64_t>(w.iterations);
    max_ball_violation = std::max(max_ball_violation, w.ball_violation);
  }
  EXPECT_EQ(max_iterations, 3);
  EXPECT_EQ(total_iterations, 3u * 3u);
  EXPECT_GT(max_ball_violation, 0.0);
}

TEST_F(FrontEndTest, ReportCarriesConvergence) {
  const Codec codec(config(), lowres_codec());
  const RecordReport report = run_record(codec, database().record(0), 2);
  EXPECT_EQ(report.converged_windows + report.non_converged_windows,
            report.windows.size());
  for (const auto& w : report.windows) {
    EXPECT_GT(w.iterations, 0);
    EXPECT_EQ(w.m_eff, config().measurements);
  }
}

TEST_F(FrontEndTest, RunnerValidation) {
  const Codec codec(config(), lowres_codec());
  EXPECT_THROW(run_record(codec, database().record(0), 0),
               std::invalid_argument);
  EXPECT_THROW(run_database(codec, database(), 0, 1), std::invalid_argument);
  EXPECT_THROW(run_database(codec, database(), 49, 1),
               std::invalid_argument);
}


TEST_F(FrontEndTest, LowResDisabledRunsThroughRunner) {
  FrontEndConfig normal_only = config();
  normal_only.lowres_bits = 0;
  const Codec codec(normal_only, std::nullopt);
  const RecordReport report = run_record(codec, database().record(0), 1);
  EXPECT_EQ(report.windows[0].lowres_bits, 0u);
  EXPECT_NEAR(report.overhead_percent, 0.0, 1e-12);
  EXPECT_NEAR(report.net_cr_percent, report.cs_cr_percent, 1e-12);
}

TEST_F(FrontEndTest, AutoModeWithoutPayloadFallsBackToNormal) {
  // A hybrid-capable decoder receiving a frame with no side channel must
  // decode it as normal CS rather than failing.
  FrontEndConfig normal_only = config();
  normal_only.lowres_bits = 0;
  const Encoder bare_encoder(normal_only, std::nullopt);
  const Decoder hybrid_decoder(config(), lowres_codec());
  const Frame frame = bare_encoder.encode(test_window());
  const DecodeResult result = hybrid_decoder.decode(frame, DecodeMode::kAuto);
  EXPECT_FALSE(result.used_box);
}

TEST_F(FrontEndTest, NonTwelveBitMeasurementAdcChangesCr) {
  FrontEndConfig narrow = config();
  narrow.measurement_adc_bits = 8;
  // CR = (n*12 - m*8)/(n*12): fewer bits per measurement, higher CR.
  EXPECT_GT(narrow.cs_compression_ratio(), config().cs_compression_ratio());
  const auto lowres = train_lowres_codec(narrow, database(), 2, 2);
  const Codec codec(narrow, lowres);
  const DecodeResult result = codec.roundtrip(test_window());
  EXPECT_GT(metrics::snr_from_prd(
                metrics::prd_zero_mean(test_window(), result.x)),
            8.0);
}

TEST_F(FrontEndTest, SigmaScaleZeroStillDecodes) {
  // Zero fidelity slack: equality-constrained data term.
  FrontEndConfig exact = config();
  exact.sigma_scale = 0.0;
  const Codec codec(exact, lowres_codec());
  const DecodeResult result = codec.roundtrip(test_window());
  EXPECT_GT(metrics::snr_from_prd(
                metrics::prd_zero_mean(test_window(), result.x)),
            10.0);
}
}  // namespace
}  // namespace csecg::core
