#include "csecg/core/frontend.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "csecg/coding/decode_error.hpp"
#include "csecg/common/check.hpp"
#include "csecg/dsp/dwt.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/obs/trace.hpp"

namespace csecg::core {
namespace {

/// The sensing matrix the decoder (and the ideal-matrix encoder path)
/// must use: the leakage-aware chip matrix for Rademacher, the configured
/// ensemble otherwise.
linalg::Matrix sensing_matrix_for(const FrontEndConfig& config,
                                  const sensing::RmpiSimulator& rmpi) {
  if (config.ensemble == sensing::Ensemble::kRademacher) {
    return rmpi.effective_matrix();
  }
  sensing::SensingConfig sensing_config;
  sensing_config.ensemble = config.ensemble;
  sensing_config.measurements = config.measurements;
  sensing_config.window = config.window;
  sensing_config.seed = config.chip_seed;
  return sensing::make_sensing_matrix(sensing_config);
}

sensing::RmpiConfig rmpi_config_from(const FrontEndConfig& config) {
  sensing::RmpiConfig rmpi;
  rmpi.channels = config.measurements;
  rmpi.window = config.window;
  rmpi.chip_seed = config.chip_seed;
  rmpi.integrator_leakage = config.integrator_leakage;
  rmpi.adc_bits = config.measurement_adc_bits;
  // After AC-coupling the signal swings within ±half of the record range.
  rmpi.input_full_scale = config.dc_reference();
  return rmpi;
}

std::optional<sensing::LowResChannel> lowres_from(
    const FrontEndConfig& config) {
  if (config.lowres_bits == 0) return std::nullopt;
  sensing::LowResConfig lowres;
  lowres.bits = config.lowres_bits;
  lowres.full_scale_bits = config.record_bits;
  return sensing::LowResChannel(lowres);
}

void check_codec_consistency(
    const FrontEndConfig& config,
    const std::optional<coding::DeltaHuffmanCodec>& codec) {
  if (config.lowres_bits == 0) return;
  CSECG_CHECK(codec.has_value(),
              "front-end: low-resolution channel enabled but no codec given");
  CSECG_CHECK(codec->code_bits() == config.lowres_bits,
              "front-end: codec trained for " << codec->code_bits()
                                              << "-bit codes, config uses "
                                              << config.lowres_bits);
}

}  // namespace

coding::DeltaHuffmanCodec train_lowres_codec(
    const FrontEndConfig& config, const ecg::SyntheticDatabase& database,
    std::size_t training_records, std::size_t windows_per_record) {
  validate(config);
  CSECG_CHECK(config.lowres_bits > 0,
              "train_lowres_codec: low-resolution channel is disabled");
  CSECG_CHECK(training_records > 0 && windows_per_record > 0,
              "train_lowres_codec: empty training request");
  CSECG_CHECK(training_records <= database.size(),
              "train_lowres_codec: only " << database.size()
                                          << " records available");
  const auto lowres = lowres_from(config);
  std::vector<std::vector<std::int64_t>> corpus;
  corpus.reserve(training_records * windows_per_record);
  for (std::size_t r = 0; r < training_records; ++r) {
    const auto windows = ecg::extract_windows(database.record(r),
                                              config.window,
                                              windows_per_record);
    for (const auto& window : windows) {
      corpus.push_back(lowres->sample(window).codes);
    }
  }
  return coding::DeltaHuffmanCodec::train(corpus, config.lowres_bits);
}

// ---------------------------------------------------------------------------
// Encoder.

Encoder::Encoder(FrontEndConfig config,
                 std::optional<coding::DeltaHuffmanCodec> lowres_codec)
    : config_(std::move(config)),
      rmpi_(rmpi_config_from(config_)),
      lowres_(lowres_from(config_)),
      codec_(std::move(lowres_codec)) {
  validate(config_);
  check_codec_consistency(config_, codec_);
  if (config_.ensemble != sensing::Ensemble::kRademacher) {
    phi_alt_ = sensing_matrix_for(config_, rmpi_);
  }
}

const std::optional<sensing::Quantizer>& Encoder::measurement_adc()
    const noexcept {
  return rmpi_.adc();
}

Frame Encoder::encode(const linalg::Vector& window) const {
  static obs::Histogram& encode_hist = obs::histogram("encode.window_ns");
  static obs::Counter& encoded_windows = obs::counter("encode.windows");
  const obs::TraceScope encode_scope("encode", "core", &encode_hist);
  encoded_windows.add();
  CSECG_CHECK(window.size() == config_.window,
              "Encoder::encode: window has " << window.size()
                                             << " samples, expected "
                                             << config_.window);
  Frame frame;
  frame.window = config_.window;
  frame.measurement_bits = config_.measurement_adc_bits;

  // CS channel on the AC-coupled signal.
  const double dc = config_.dc_reference();
  linalg::Vector ac = window;
  for (auto& v : ac) v -= dc;
  if (phi_alt_) {
    // Ideal-matrix ablation path, quantized by the same measurement ADC.
    frame.measurements = linalg::multiply(*phi_alt_, ac);
    if (rmpi_.adc()) {
      for (auto& v : frame.measurements) {
        v = rmpi_.adc()->reconstruct(rmpi_.adc()->code(v));
      }
    }
  } else {
    frame.measurements = rmpi_.measure(ac);
  }

  // Low-resolution channel on the raw signal.
  if (lowres_) {
    const sensing::LowResOutput out = lowres_->sample(window);
    frame.lowres_payload = codec_->encode(out.codes, frame.lowres_bits);
  }
  return frame;
}

// ---------------------------------------------------------------------------
// Decoder.

Decoder::Decoder(FrontEndConfig config,
                 std::optional<coding::DeltaHuffmanCodec> lowres_codec)
    : config_((validate(config), std::move(config))),
      lowres_(lowres_from(config_)),
      codec_(std::move(lowres_codec)),
      psi_(dsp::Dwt(config_.wavelet, config_.window, config_.wavelet_levels)
               .synthesis_operator()) {
  const sensing::RmpiSimulator rmpi(rmpi_config_from(config_));
  check_codec_consistency(config_, codec_);
  const linalg::Matrix phi = sensing_matrix_for(config_, rmpi);
  phi_ = linalg::LinearOperator::from_matrix(phi);
  phi_norm_ = linalg::operator_norm_estimate(phi_, 60);
  sigma_ = config_.sigma_scale * rmpi.expected_quantization_noise_norm();
  gram_ = linalg::multiply(phi, linalg::transpose(phi));
  gram_chol_ = std::make_unique<linalg::Cholesky>(gram_);
}

double Decoder::sigma(std::size_t effective_m) const noexcept {
  return sigma_ * std::sqrt(static_cast<double>(effective_m) /
                            static_cast<double>(config_.measurements));
}

DecodeResult Decoder::decode(const Frame& frame, DecodeMode mode) const {
  static obs::Counter& decoded_windows = obs::counter("decode.windows");
  obs::TraceScope decode_trace("decode", "core");
  decoded_windows.add();
  CSECG_CHECK(frame.window == config_.window,
              "Decoder::decode: frame window " << frame.window
                                               << " != config window "
                                               << config_.window);
  CSECG_CHECK(frame.measurements.size() == config_.measurements,
              "Decoder::decode: frame carries "
                  << frame.measurements.size() << " measurements, expected "
                  << config_.measurements);
  const bool frame_has_box = !frame.lowres_payload.empty();
  bool use_box = false;
  switch (mode) {
    case DecodeMode::kAuto:
      use_box = frame_has_box && lowres_.has_value();
      break;
    case DecodeMode::kHybrid:
      CSECG_CHECK(frame_has_box && lowres_.has_value(),
                  "Decoder::decode: hybrid mode requires the low-res payload"
                  " and an enabled channel");
      use_box = true;
      break;
    case DecodeMode::kNormalCs:
      use_box = false;
      break;
  }

  // The solve runs in the AC-coupled domain (x_ac = x − dc·1): the DC
  // reference is a design constant known at both ends, exactly as the
  // baseline sits outside the paper's recovery problem.  The box from the
  // low-resolution channel is shifted into the same domain.
  std::optional<recovery::BoxConstraint> box;
  if (use_box) {
    static obs::Counter& payload_errors =
        obs::counter("decode.payload_errors");
    try {
      const std::vector<std::int64_t> codes =
          codec_->decode(frame.lowres_payload, config_.window);
      // A corrupt-but-decodable stream can yield codes outside the B-bit
      // alphabet; box_from_codes would then reach into the quantizer with
      // garbage.  Treat them as payload corruption, not API misuse.
      const std::int64_t levels = std::int64_t{1} << config_.lowres_bits;
      for (const std::int64_t code : codes) {
        CSECG_DECODE_CHECK(code >= 0 && code < levels,
                           "Decoder::decode: low-res code "
                               << code << " outside the "
                               << config_.lowres_bits << "-bit range");
      }
      box = box_from_codes(codes);
    } catch (const coding::DecodeError&) {
      // The side channel is garbage for this window.  kAuto degrades to
      // the normal-CS solve (the window survives, a few dB worse);
      // kHybrid promised the caller a box, so the typed error propagates.
      payload_errors.add();
      if (mode == DecodeMode::kHybrid) throw;
      box.reset();
    }
  }
  return solve_window(frame.measurements, {}, std::move(box));
}

recovery::BoxConstraint Decoder::box_from_codes(
    const std::vector<std::int64_t>& codes) const {
  const double dc = config_.dc_reference();
  const linalg::Vector lower = lowres_->reconstruct(codes);
  recovery::BoxConstraint constraint;
  constraint.lower = lower;
  constraint.upper = lower;
  const double step = lowres_->step();
  for (std::size_t i = 0; i < config_.window; ++i) {
    constraint.lower[i] -= dc;
    constraint.upper[i] += step - dc;
  }
  return constraint;
}

DecodeResult Decoder::solve_window(
    const linalg::Vector& y, const std::vector<std::uint8_t>& mask,
    std::optional<recovery::BoxConstraint> box) const {
  const std::size_t m = config_.measurements;
  std::vector<std::size_t> kept;
  std::vector<std::size_t> lost;
  for (std::size_t i = 0; i < mask.size(); ++i) {
    (mask[i] != 0 ? kept : lost).push_back(i);
  }
  recovery::PdhgOptions options = config_.solver;
  // ‖MΦ‖₂ ≤ ‖Φ‖₂ for a row mask M, and PDHG only needs an upper bound to
  // size its steps, so the cached full-matrix norm serves every window.
  options.phi_norm_hint = phi_norm_;

  // Measurement democracy: a lost row is masked out of the cached Φ (the
  // forward skips it and writes 0 there, the adjoint reads 0 there) and
  // out of y.  The ball's dual stays exactly 0 on those rows and zeros
  // change no norm, so this is the row-dropped problem on the surviving
  // rows.
  std::optional<linalg::LinearOperator> masked;
  linalg::Vector y_masked;
  if (!lost.empty()) {
    y_masked = y;
    for (const std::size_t i : lost) y_masked[i] = 0.0;
    masked.emplace(phi_.with_row_mask(mask));
  }
  const linalg::LinearOperator& phi = masked ? *masked : phi_;

  if (!box && !masked) {
    // Least-norm warm start Φᵀ(ΦΦᵀ)⁻¹y: measurement-consistent from
    // iteration zero, so PDHG only has to shrink the ℓ1 objective.
    options.x0 = phi_.apply_adjoint(gram_chol_->solve(y));
  } else if (!box) {
    // The same start on the surviving rows, from the principal submatrix
    // of the cached ΦΦᵀ.
    const std::size_t k = kept.size();
    linalg::Matrix gram_kept(k, k);
    linalg::Vector y_kept(k);
    for (std::size_t a = 0; a < k; ++a) {
      y_kept[a] = y[kept[a]];
      for (std::size_t b = 0; b < k; ++b) {
        gram_kept(a, b) = gram_(kept[a], kept[b]);
      }
    }
    try {
      const linalg::Vector z = linalg::Cholesky(gram_kept).solve(y_kept);
      linalg::Vector z_full(m);
      for (std::size_t a = 0; a < k; ++a) z_full[kept[a]] = z[a];
      options.x0 = phi.apply_adjoint(z_full);
    } catch (const std::exception&) {
      // Surviving rows numerically dependent — cold start instead.
    }
  }

  DecodeResult result;
  result.used_box = box.has_value();
  result.solver = recovery::solve_bpdn(phi, psi_, masked ? y_masked : y,
                                       sigma(m - lost.size()), box, options);
  result.x = result.solver.x;
  const double dc = config_.dc_reference();
  for (auto& v : result.x) v += dc;
  return result;
}

LossyDecodeResult Decoder::decode_lossy(const LossyWindow& window) const {
  static obs::Counter& lossy_windows = obs::counter("decode.lossy_windows");
  obs::TraceScope decode_trace("decode_lossy", "core", nullptr, "m_eff");
  lossy_windows.add();
  const std::size_t n = config_.window;
  const std::size_t m = config_.measurements;
  CSECG_CHECK(window.window == n,
              "Decoder::decode_lossy: window length " << window.window
                                                      << " != config "
                                                      << n);
  CSECG_CHECK(window.measurements.size() == m &&
                  window.measurement_mask.size() == m,
              "Decoder::decode_lossy: measurement fields must have length "
                  << m);
  const bool has_lowres_fields = !window.lowres_mask.empty();
  CSECG_CHECK(!has_lowres_fields || (window.lowres_mask.size() == n &&
                                     window.lowres_codes.size() == n),
              "Decoder::decode_lossy: low-res fields must have length "
                  << n);

  LossyDecodeResult result;
  for (const std::uint8_t bit : window.measurement_mask) {
    result.effective_m += (bit != 0);
  }
  decode_trace.set_arg(result.effective_m);

  // Sanitize the side channel: a sample only keeps its box when its
  // packet arrived AND its code is a legal B-bit value (the reassembler
  // validates, but a CRC collision could still smuggle garbage through —
  // the decoder must never throw on a lossy stream).
  const double dc = config_.dc_reference();
  std::vector<std::int64_t> codes;
  std::vector<std::uint8_t> code_mask;
  if (has_lowres_fields && lowres_.has_value()) {
    const std::int64_t levels = std::int64_t{1} << config_.lowres_bits;
    codes.assign(n, 0);
    code_mask.assign(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t code = window.lowres_codes[i];
      if (window.lowres_mask[i] != 0 && code >= 0 && code < levels) {
        codes[i] = code;
        code_mask[i] = 1;
        ++result.boxed_samples;
      }
    }
  }

  // Whole-CS-train loss: the decoder still owes an output — emit the
  // low-resolution staircase (cell midpoints), forward-filling samples
  // whose low-res packets also vanished; with nothing at all, the
  // flat DC reference.
  if (result.effective_m < m) {
    static obs::Counter& dropped =
        obs::counter("decode.dropped_measurements");
    dropped.add(static_cast<std::uint64_t>(m - result.effective_m));
  }

  if (result.effective_m == 0) {
    static obs::Counter& lowres_only_windows =
        obs::counter("decode.lowres_only_windows");
    lowres_only_windows.add();
    result.lowres_only = true;
    result.used_box = false;
    result.x = linalg::Vector(n);
    double fill = dc;
    if (result.boxed_samples > 0) {
      const double half_step = 0.5 * lowres_->step();
      for (std::size_t i = 0; i < n; ++i) {
        if (code_mask[i] != 0) {
          fill = lowres_->reconstruct({codes[i]})[0] + half_step;
          break;
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        if (code_mask[i] != 0) {
          fill = lowres_->reconstruct({codes[i]})[0] + half_step;
        }
        result.x[i] = fill;
      }
    } else {
      for (std::size_t i = 0; i < n; ++i) result.x[i] = dc;
    }
    return result;
  }

  // Box constraint: exact cells where the low-res stream arrived, the
  // trivial full-scale cell where it did not (constraining nothing), no
  // box at all when the whole side channel is gone.
  std::optional<recovery::BoxConstraint> box;
  if (result.boxed_samples == n) {
    box = box_from_codes(codes);
  } else if (result.boxed_samples > 0) {
    recovery::BoxConstraint widened = box_from_codes(codes);
    const double lo_rail = -dc;
    const double hi_rail =
        static_cast<double>(std::int64_t{1} << config_.record_bits) - dc;
    for (std::size_t i = 0; i < n; ++i) {
      if (code_mask[i] == 0) {
        widened.lower[i] = lo_rail;
        widened.upper[i] = hi_rail;
      }
    }
    box = std::move(widened);
  }

  DecodeResult solved = solve_window(window.measurements,
                                     window.measurement_mask, std::move(box));
  result.x = std::move(solved.x);
  result.solver = std::move(solved.solver);
  result.used_box = solved.used_box;
  return result;
}

// ---------------------------------------------------------------------------
// Codec.

Codec::Codec(FrontEndConfig config,
             std::optional<coding::DeltaHuffmanCodec> lowres_codec)
    : encoder_(config, lowres_codec), decoder_(config, lowres_codec) {}

DecodeResult Codec::roundtrip(const linalg::Vector& window,
                              DecodeMode mode) const {
  return decoder_.decode(encoder_.encode(window), mode);
}

}  // namespace csecg::core
