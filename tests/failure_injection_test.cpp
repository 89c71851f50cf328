// Failure-injection tests: corrupted payloads, clipping, and hostile
// inputs must surface as exceptions or graceful degradation — never
// silent corruption.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "csecg/coding/decode_error.hpp"
#include "csecg/coding/delta_huffman_codec.hpp"
#include "csecg/core/config.hpp"
#include "csecg/core/frame.hpp"
#include "csecg/core/frontend.hpp"
#include "csecg/ecg/record.hpp"
#include "csecg/linalg/vector.hpp"

namespace csecg {
namespace {

class FailureTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ecg::RecordConfig record_config;
    record_config.duration_seconds = 15.0;
    database_ = new ecg::SyntheticDatabase(record_config, 2015);
    config_ = new core::FrontEndConfig();
    config_->window = 256;
    config_->measurements = 64;
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

 private:
  static ecg::SyntheticDatabase* database_;
  static core::FrontEndConfig* config_;
  static coding::DeltaHuffmanCodec* codec_;
};

ecg::SyntheticDatabase* FailureTest::database_ = nullptr;
core::FrontEndConfig* FailureTest::config_ = nullptr;
coding::DeltaHuffmanCodec* FailureTest::codec_ = nullptr;

TEST_F(FailureTest, TruncatedLowResPayloadThrows) {
  const core::Encoder encoder(config(), lowres());
  const core::Decoder decoder(config(), lowres());
  core::Frame frame =
      encoder.encode(database().record(0).window(400, 256));
  // Radio dropped the tail of the payload.
  frame.lowres_payload.resize(frame.lowres_payload.size() / 4);
  EXPECT_THROW(decoder.decode(frame, core::DecodeMode::kHybrid),
               coding::DecodeError);
}

TEST_F(FailureTest, CorruptedPayloadEitherThrowsOrDecodesSomething) {
  // Bit errors in a Huffman stream either desynchronize (throw) or decode
  // to wrong-but-in-range codes; both are acceptable, crashes are not.
  const core::Encoder encoder(config(), lowres());
  const core::Decoder decoder(config(), lowres());
  core::Frame frame =
      encoder.encode(database().record(0).window(400, 256));
  for (std::size_t byte = 0; byte < frame.lowres_payload.size();
       byte += 3) {
    core::Frame corrupted = frame;
    corrupted.lowres_payload[byte] ^= 0x5A;
    try {
      const auto result =
          decoder.decode(corrupted, core::DecodeMode::kHybrid);
      EXPECT_EQ(result.x.size(), 256u);
    } catch (const coding::DecodeError&) {
    }
  }
}

TEST_F(FailureTest, NormalCsModeImmuneToPayloadCorruption) {
  // The CS-only decode path never touches the side channel.
  const core::Encoder encoder(config(), lowres());
  const core::Decoder decoder(config(), lowres());
  core::Frame frame =
      encoder.encode(database().record(0).window(400, 256));
  const auto clean = decoder.decode(frame, core::DecodeMode::kNormalCs);
  for (auto& byte : frame.lowres_payload) byte ^= 0xFF;
  const auto after = decoder.decode(frame, core::DecodeMode::kNormalCs);
  EXPECT_EQ(clean.x, after.x);
}

TEST_F(FailureTest, RailedInputStillEncodes) {
  // Lead-off / saturation: all samples at an ADC rail.  The rail sits at
  // the measurement ADC's design full-scale, so a third of the chip sums
  // clip and the data term fights the box — graceful degradation means
  // staying within a few staircase steps of the rail, not exactness.
  // Clipped measurements can be inconsistent with *any* box point, so the
  // solver compromises; the guarantee is bounded, finite output in the
  // upper part of the range — no NaNs, no runaway.
  const core::Codec codec(config(), lowres());
  const linalg::Vector railed(256, 2047.0);
  const auto result = codec.roundtrip(railed);
  ASSERT_EQ(result.x.size(), 256u);
  for (double v : result.x) {
    ASSERT_TRUE(std::isfinite(v));
    EXPECT_GT(v, 1024.0);
    EXPECT_LT(v, 2048.0 + 512.0);
  }
}

TEST_F(FailureTest, MeasurementTamperingDegradesButStaysInBox) {
  core::FrontEndConfig patient = config();
  patient.solver.max_iterations = 2500;  // Let the duals enforce the box.
  const core::Encoder encoder(patient, lowres());
  const core::Decoder decoder(patient, lowres());
  const linalg::Vector window = database().record(0).window(400, 256);
  core::Frame frame = encoder.encode(window);
  // Saturate a few measurements (e.g. interference burst).
  for (std::size_t i = 0; i < 5; ++i) frame.measurements[i] *= 10.0;
  const auto result = decoder.decode(frame, core::DecodeMode::kHybrid);
  // The corrupted measurements are inconsistent with the box, so the
  // solver compromises — but the side channel caps the damage at a
  // handful of staircase steps (calibrated max ≈ 84 units = 5·d), versus
  // unbounded distortion without it.
  for (std::size_t i = 0; i < window.size(); ++i) {
    EXPECT_NEAR(result.x[i], window[i], 128.0);
  }
}

TEST_F(FailureTest, SolverBudgetExhaustionIsReported) {
  core::FrontEndConfig tight = config();
  tight.solver.max_iterations = 2;
  tight.solver.tol = 1e-15;
  const core::Codec codec(tight, lowres());
  const auto result =
      codec.roundtrip(database().record(0).window(400, 256));
  EXPECT_FALSE(result.solver.converged);
  EXPECT_EQ(result.solver.iterations, 2);
}

}  // namespace
}  // namespace csecg
