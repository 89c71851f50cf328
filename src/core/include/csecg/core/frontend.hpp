// The hybrid CS ECG front-end: encoder (sensor node) and decoder
// (receiver) — the paper's primary contribution, assembled from the
// substrate libraries.
//
// Encoder per window (Fig. 1):
//   1. AC-couple: subtract the mid-scale DC reference.
//   2. CS channel: RMPI chip–integrate–dump over the window, quantize each
//      channel with the measurement ADC → y.
//   3. Low-resolution channel: B-bit Nyquist-rate ADC on the raw window,
//      delta + Huffman coded with the offline codebook → payload.
//
// Decoder per window:
//   1. Regenerate Φ from the shared chip seed (leakage-aware).
//   2. Rebuild the low-resolution staircase ẋ and the per-sample box
//      [ẋ, ẋ+d].
//   3. Solve problem (1) by PDHG: min ‖Ψᵀx‖₁ s.t. ‖Φ(x−dc)−y‖ ≤ σ and
//      ẋ ≤ x ≤ ẋ+d.  Without the box this is the "normal CS" baseline.
#pragma once

#include <memory>
#include <optional>

#include "csecg/linalg/solve.hpp"

#include "csecg/coding/delta_huffman_codec.hpp"
#include "csecg/core/config.hpp"
#include "csecg/core/frame.hpp"
#include "csecg/ecg/record.hpp"
#include "csecg/linalg/operator.hpp"
#include "csecg/recovery/pdhg.hpp"
#include "csecg/sensing/lowres_channel.hpp"
#include "csecg/sensing/rmpi.hpp"

namespace csecg::core {

/// Trains the low-resolution channel's delta-Huffman codebook offline over
/// windows drawn from database records [0, training_records).  Uses the
/// config's lowres_bits; throws std::invalid_argument if the channel is
/// disabled (lowres_bits == 0) or training_records == 0.
coding::DeltaHuffmanCodec train_lowres_codec(
    const FrontEndConfig& config, const ecg::SyntheticDatabase& database,
    std::size_t training_records = 8, std::size_t windows_per_record = 4);

/// The sensor-node side.
class Encoder {
 public:
  /// The codec is required iff the low-resolution channel is enabled.
  Encoder(FrontEndConfig config,
          std::optional<coding::DeltaHuffmanCodec> lowres_codec);

  const FrontEndConfig& config() const noexcept { return config_; }

  /// The CS-channel measurement ADC (needed to serialize frames); absent
  /// only when measurement_adc_bits == 0.
  const std::optional<sensing::Quantizer>& measurement_adc() const noexcept;

  /// Encodes one raw window (length n, record-unit ADC codes as doubles).
  Frame encode(const linalg::Vector& window) const;

 private:
  FrontEndConfig config_;
  sensing::RmpiSimulator rmpi_;
  /// Ideal-matrix path for the non-Rademacher ablation ensembles.
  std::optional<linalg::Matrix> phi_alt_;
  std::optional<sensing::LowResChannel> lowres_;
  std::optional<coding::DeltaHuffmanCodec> codec_;
};

/// How the decoder uses the side channel.
enum class DecodeMode {
  kAuto,      ///< Hybrid when the frame carries a low-res payload.
  kHybrid,    ///< Require the box constraint (throws if absent).
  kNormalCs,  ///< Ignore the side channel (the Fig. 7 "CS" baseline).
};

/// Decoder output.
struct DecodeResult {
  linalg::Vector x;            ///< Reconstructed raw-unit window.
  recovery::PdhgResult solver;  ///< Convergence diagnostics.
  bool used_box = false;       ///< True when the hybrid constraint was on.
};

/// A window as it survived a lossy link: per-measurement and per-sample
/// delivery masks, produced by the link layer's reassembler
/// (csecg::link::Reassembler).  Entries whose mask is 0 are undefined.
struct LossyWindow {
  std::size_t window = 0;  ///< n — must match the decoder config.
  /// Measurement values (ADC reconstruction levels), length m.
  linalg::Vector measurements;
  /// 1 where the measurement's packet arrived with a valid CRC, length m.
  std::vector<std::uint8_t> measurement_mask;
  /// Low-resolution codes, length n (empty when the side channel is off
  /// or nothing of it arrived).
  std::vector<std::int64_t> lowres_codes;
  /// 1 where the sample's low-res packet arrived, length n (empty with
  /// lowres_codes).
  std::vector<std::uint8_t> lowres_mask;
};

/// Outcome of a loss-resilient decode.
struct LossyDecodeResult {
  linalg::Vector x;             ///< Reconstructed raw-unit window.
  recovery::PdhgResult solver;  ///< Convergence diagnostics (default-
                                ///< initialized on the low-res-only path).
  std::size_t effective_m = 0;  ///< Φ rows that survived the link.
  std::size_t boxed_samples = 0;  ///< Samples with a live box constraint.
  bool used_box = false;        ///< Any box constraint was active.
  bool lowres_only = false;     ///< Whole CS train lost — staircase output.
};

/// The receiver side.
class Decoder {
 public:
  Decoder(FrontEndConfig config,
          std::optional<coding::DeltaHuffmanCodec> lowres_codec);

  const FrontEndConfig& config() const noexcept { return config_; }

  /// Reconstructs a window from its frame.  Thread-safe: decode only
  /// reads shared state, so one decoder can serve many windows
  /// concurrently (the experiment runner relies on this).
  DecodeResult decode(const Frame& frame,
                      DecodeMode mode = DecodeMode::kAuto) const;

  /// Reconstructs a window from whatever the link delivered.  CS
  /// measurements are democratic, so lost rows of Φ and y are masked out
  /// of the one cached operator (σ shrinks to sigma(m_eff)); samples whose
  /// low-res packet was lost keep only the trivial full-scale box; a
  /// whole-CS-train loss falls back to the low-resolution staircase.
  /// Never throws on any mask combination — only on shape mismatches
  /// against the config (API misuse).  With everything delivered this is
  /// bit-identical to decode(frame, kAuto).  Thread-safe like decode().
  LossyDecodeResult decode_lossy(const LossyWindow& window) const;

  /// The fidelity radius of a solve on `effective_m` of the m
  /// measurements: σ·√(m_eff/m), with σ = sigma_scale × the expected
  /// quantization-noise norm of all m (that norm scales with √m).
  /// Exposed so the quality ledgers record the per-window radius next to
  /// the solver residual.
  double sigma(std::size_t effective_m) const noexcept;

 private:
  /// Box [ẋ−dc, ẋ+d−dc] from decoded low-res codes, in the AC domain the
  /// solver works in.  Shared by the lossless and lossy decode paths so
  /// they cannot drift numerically.
  recovery::BoxConstraint box_from_codes(
      const std::vector<std::int64_t>& codes) const;

  /// The one solve both decode paths funnel through (per-window options,
  /// warm start, DC shift).  `mask` marks the delivered measurements
  /// (empty: all of them); lost rows are masked out of the cached Φ.
  DecodeResult solve_window(const linalg::Vector& y,
                            const std::vector<std::uint8_t>& mask,
                            std::optional<recovery::BoxConstraint> box) const;

  FrontEndConfig config_;
  std::optional<sensing::LowResChannel> lowres_;
  std::optional<coding::DeltaHuffmanCodec> codec_;
  /// Φ (sign-packed for the RMPI matrix), built once; every solve runs on
  /// it, lossy ones through a mask.
  linalg::LinearOperator phi_;
  /// Ψ as an operator, materialized once (decode used to rebuild it per
  /// window).
  linalg::LinearOperator psi_;
  /// ΦΦᵀ (m × m) and its Cholesky, cached for the least-norm warm start
  /// of the unconstrained (normal-CS) solves; a lossy window factors the
  /// principal submatrix on its surviving rows.
  linalg::Matrix gram_;
  std::unique_ptr<linalg::Cholesky> gram_chol_;
  double phi_norm_ = 0.0;
  double sigma_ = 0.0;
};

/// Convenience wrapper owning a matched encoder/decoder pair.
class Codec {
 public:
  Codec(FrontEndConfig config,
        std::optional<coding::DeltaHuffmanCodec> lowres_codec);

  const FrontEndConfig& config() const noexcept { return encoder_.config(); }
  const Encoder& encoder() const noexcept { return encoder_; }
  const Decoder& decoder() const noexcept { return decoder_; }

  /// encode + decode in one call.
  DecodeResult roundtrip(const linalg::Vector& window,
                         DecodeMode mode = DecodeMode::kAuto) const;

 private:
  Encoder encoder_;
  Decoder decoder_;
};

}  // namespace csecg::core
