// ECG compression quality metrics, exactly as defined in the paper (§IV).
//
//   PRD = ‖x − x̃‖₂ / ‖x‖₂ × 100
//   SNR = −20·log10(0.01·PRD)
//   CR  = (b_orig − b_comp) / b_orig × 100          (Eq. 3)
//   Dᵢ  = CRᵢ · i / 12                              (Eq. 2, side-channel
//                                                    overhead vs 12-bit)
//
// PRD here follows the paper's raw-sample convention (MIT-BIH style values
// with the ~1024 ADC offset included); prd_zero_mean() is provided for the
// stricter convention used by some of the ECG-compression literature.
#pragma once

#include <cstddef>

#include "csecg/linalg/vector.hpp"

namespace csecg::metrics {

/// Percentage root-mean-square difference on raw sample values.
/// Throws std::invalid_argument on size mismatch or an all-zero reference.
double prd(const linalg::Vector& original, const linalg::Vector& reconstructed);

/// PRD computed after removing the reference mean from both signals
/// (baseline-independent variant).
double prd_zero_mean(const linalg::Vector& original,
                     const linalg::Vector& reconstructed);

/// PRD values below this floor (in percent) report the capped SNR instead
/// of diverging: a window that reconstructs exactly (PRD == 0, reachable
/// via the zero-loss decode_lossy fallback on a constant or low-res-
/// dominated window) is a *success*, not an error.
inline constexpr double kPrdFloorPercent = 1e-10;

/// SNR reported for PRD ≤ kPrdFloorPercent: −20·log10(0.01·floor) = 240 dB.
inline constexpr double kSnrCapDb = 240.0;

/// SNR in dB from a PRD percentage: −20·log10(0.01·PRD).  PRD below
/// kPrdFloorPercent (including an exact 0) is clamped to the floor and
/// returns kSnrCapDb, counted under `metrics.prd_floor_hits`; a negative
/// or NaN PRD throws std::invalid_argument.
double snr_from_prd(double prd_percent);

/// Reconstruction SNR in dB, computed directly.
double snr(const linalg::Vector& original, const linalg::Vector& reconstructed);

/// Compression ratio per Eq. 3, in percent (0 = no compression).
/// Throws std::invalid_argument if bits_original == 0.
double compression_ratio(std::size_t bits_original, std::size_t bits_compressed);

/// Side-channel overhead Dᵢ per Eq. 2, in percent: the low-resolution
/// channel spends `compressed_fraction`·bits_per_sample of an assumed
/// 12-bit original per sample.
double side_channel_overhead(double compressed_fraction, int bits_per_sample,
                             int original_bits = 12);

/// Net compression ratio of the hybrid scheme: CS-channel CR minus the
/// low-resolution side-channel overhead (both in percent).
double net_compression_ratio(double cs_cr_percent, double overhead_percent);

}  // namespace csecg::metrics
