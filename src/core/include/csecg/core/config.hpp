// Front-end configuration — the single knob set shared by the encoder
// (sensor node) and decoder (receiver).
//
// Both ends construct their sensing operator from (ensemble, m, n, seed),
// so nothing about Φ travels over the air; this mirrors how the real node
// and base station share a PRBS polynomial and seed.
#pragma once

#include <cstdint>

#include "csecg/dsp/wavelet.hpp"
#include "csecg/recovery/pdhg.hpp"
#include "csecg/sensing/matrices.hpp"

namespace csecg::core {

/// Complete description of one front-end design point.
struct FrontEndConfig {
  // --- Processing window -------------------------------------------------
  std::size_t window = 512;  ///< n — samples per fixed-size window; must be
                             ///< divisible by 2^wavelet_levels.

  // --- CS channel (paper §III-A) ------------------------------------------
  std::size_t measurements = 96;  ///< m — RMPI channels.
  /// Sensing ensemble.  kRademacher is the RMPI-realizable default and
  /// runs through the time-domain simulator; the other ensembles use an
  /// ideal y = Φx matrix path (ablation only — they have no ±1-chip analog
  /// realization) and are incompatible with integrator_leakage.
  sensing::Ensemble ensemble = sensing::Ensemble::kRademacher;
  std::uint64_t chip_seed = 2015;    ///< Shared PRBS seed.
  int measurement_adc_bits = 12;     ///< Per-channel measurement ADC.
  double integrator_leakage = 0.0;   ///< RMPI integrator non-ideality λ.

  // --- Low-resolution parallel channel (paper §II) ------------------------
  int lowres_bits = 7;  ///< B of the parallel ADC; 0 disables the channel
                        ///< (plain single-lead CS front-end).

  // --- Input format --------------------------------------------------------
  int record_bits = 11;    ///< Resolution of the raw input codes (MIT-BIH).
  int original_bits = 12;  ///< Reference resolution for CR accounting
                           ///< (paper Eq. 2 assumes 12-bit originals).

  // --- Reconstruction -------------------------------------------------------
  dsp::WaveletFamily wavelet = dsp::WaveletFamily::kDb4;
  int wavelet_levels = 5;
  double sigma_scale = 1.5;  ///< Fidelity radius σ = scale × expected
                             ///< measurement-ADC quantization noise norm.
  /// PDHG defaults for ADC-unit ECG windows, all measured by
  /// bench/bench_solver (BENCH_solver.json) on the seed-2015 reference set.
  /// dual_primal_ratio = 4e-4: the swept ratio with the fewest mean
  /// iterations summed over the hybrid (m = 96) and normal-CS (m = 256)
  /// configs; a small ratio makes the primal step large enough for
  /// ADC-unit samples.  relaxation = 1.9: of the swept ρ it is within 2%
  /// of the fewest mean iterations on both configs (374 hybrid, 353 normal
  /// CS, against 577 and 554 for plain CP at ρ = 1).  tol = 5e-5: at these
  /// settings every reference window of both configs converges under the
  /// 2000-iteration cap, with a mean SNR gap to a 30000-iteration,
  /// tol-1e-8 solve under 0.01 dB.
  recovery::PdhgOptions solver = [] {
    recovery::PdhgOptions options;
    options.max_iterations = 2000;
    options.tol = 5e-5;
    options.dual_primal_ratio = 4e-4;
    options.relaxation = 1.9;
    return options;
  }();

  /// Mid-scale DC reference subtracted before the CS mixers (the analog
  /// front-end is AC-coupled); derived from record_bits.
  double dc_reference() const noexcept;

  /// CR of the CS channel per Eq. 3 against original_bits-bit samples,
  /// in percent.  With measurement_adc_bits == original_bits this is
  /// (1 − m/n)·100, the paper's x-axis.
  double cs_compression_ratio() const noexcept;

  /// Number of measurements that realizes a target CS-channel CR (percent),
  /// clamped to [1, n].
  std::size_t measurements_for_cr(double cr_percent) const noexcept;
};

/// Validates a FrontEndConfig; throws std::invalid_argument on nonsense
/// (window/level mismatch, m > n, bad bit depths, ...).
void validate(const FrontEndConfig& config);

}  // namespace csecg::core
