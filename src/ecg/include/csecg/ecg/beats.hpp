// Beat morphologies and rhythm (RR-interval) modelling.
//
// The synthetic database stands in for MIT-BIH (see DESIGN.md §2), so it
// must cover the same qualitative beat diversity: normal sinus beats,
// premature ventricular contractions (wide bizarre QRS, no P wave,
// discordant T), atrial premature beats (early, preserved QRS), and
// bundle-branch-block-like chronically wide QRS.  Each morphology is a set
// of five Gaussian extrema (P, Q, R, S, T) in the McSharry phase model.
#pragma once

#include <array>
#include <cstddef>
#include <vector>

#include "csecg/rng/xoshiro.hpp"

namespace csecg::ecg {

/// Beat classes available to the synthesizer.
enum class BeatType {
  kNormal,  ///< Normal sinus beat.
  kPvc,     ///< Premature ventricular contraction.
  kApc,     ///< Atrial (supraventricular) premature beat.
  kWide,    ///< Chronically wide QRS (bundle-branch-block-like).
  kAfib,    ///< Fibrillating-atria beat: no P wave, normal QRS.
};

/// Gaussian-extrema morphology in the phase domain: z'(θ) contributions at
/// angles theta_deg (degrees in (−180, 180]), amplitudes a (mV-scale), and
/// widths b (radians).
struct BeatMorphology {
  std::array<double, 5> theta_deg;  ///< P, Q, R, S, T event angles.
  std::array<double, 5> a;          ///< Event amplitudes.
  std::array<double, 5> b;          ///< Event Gaussian widths.
};

/// Canonical morphology for a beat type (McSharry defaults for kNormal).
BeatMorphology beat_morphology(BeatType type);

/// Applies a deterministic per-record morphology perturbation: amplitude
/// scale and width scale (both around 1.0) model inter-subject variation.
BeatMorphology scale_morphology(const BeatMorphology& base,
                                double amplitude_scale, double width_scale);

/// One scheduled beat: its type and the RR interval (seconds) from the
/// previous beat to this one.
struct ScheduledBeat {
  BeatType type = BeatType::kNormal;
  double rr_seconds = 0.8;
};

/// Configuration of the rhythm generator.
struct RhythmConfig {
  double mean_hr_bpm = 70.0;   ///< Mean heart rate.
  double lf_amplitude = 0.04;  ///< Mayer-wave RR modulation depth (~0.1 Hz).
  double hf_amplitude = 0.03;  ///< Respiratory sinus arrhythmia (~0.25 Hz).
  double lf_hz = 0.1;
  double hf_hz = 0.25;
  double rr_jitter = 0.01;     ///< Per-beat white RR jitter (relative).
  double pvc_probability = 0.0;
  double apc_probability = 0.0;
  bool chronically_wide = false;  ///< All non-ectopic beats are kWide.
  /// Atrial fibrillation: the "irregularly irregular" rhythm — RR drawn
  /// i.i.d. (no LF/HF structure), P waves absent on every beat.
  bool atrial_fibrillation = false;
};

/// Validates the configuration; throws std::invalid_argument on nonsense
/// (non-positive heart rate, probabilities outside [0,1], ...).
void validate(const RhythmConfig& config);

/// Generates a beat schedule covering at least `duration_seconds`:
/// quasi-periodic RR fluctuation from two spectral peaks (LF ≈ 0.1 Hz
/// Mayer waves, HF ≈ 0.25 Hz respiratory arrhythmia), white jitter, and
/// ectopic beats with premature coupling and compensatory pause.
std::vector<ScheduledBeat> generate_rhythm(const RhythmConfig& config,
                                           double duration_seconds,
                                           rng::Xoshiro256& gen);

}  // namespace csecg::ecg
