#include "csecg/ecg/ecgsyn.hpp"

#include <array>
#include <cmath>
#include <numbers>
#include <optional>
#include <vector>

#include "csecg/common/check.hpp"
#include "csecg/dsp/fir.hpp"

namespace csecg::ecg {
namespace {

constexpr double kPi = std::numbers::pi;
constexpr double kTwoPi = 2.0 * std::numbers::pi;

// Each phase-domain Gaussian event integrates to a z-excursion of a·b², so
// the canonical morphology's R peak is a_R·b_R² = 0.3.  The reference
// ECGSYN implementation rescales its output to a physiological range; we
// apply the equivalent fixed gain so a normal R wave lands near 1.1 mV.
constexpr double kOutputGainMv = 3.6;

/// Wraps an angle into [−π, π]: fmod(θ + π, 2π), plus 2π if negative, − π.
/// fmod is the identity on (−2π, 2π) and returns a − 2π, exactly, on
/// [2π, 4π); every phase the model forms lands there, so only other
/// values pay for the library call (DESIGN.md §2).
double wrap_phase(double theta) {
  double a = theta + kPi;
  if (a >= kTwoPi && a < 2.0 * kTwoPi) {
    a -= kTwoPi;
  } else if (!(a > -kTwoPi && a < kTwoPi)) {
    a = std::fmod(a, kTwoPi);
  }
  if (a < 0.0) a += kTwoPi;
  return a - kPi;
}

/// A beat morphology's five Gaussian events with their per-sample
/// constants (angle in radians, 2b²) worked out once.
struct Waves {
  std::array<double, 5> theta_rad;
  std::array<double, 5> a;
  std::array<double, 5> two_b_squared;
};

Waves waves_of(const BeatMorphology& morph) {
  Waves w{};
  for (std::size_t i = 0; i < 5; ++i) {
    w.theta_rad[i] = morph.theta_deg[i] * kPi / 180.0;
    w.a[i] = morph.a[i];
    w.two_b_squared[i] = 2.0 * morph.b[i] * morph.b[i];
  }
  return w;
}

/// −Σᵢ aᵢ·Δθᵢ·exp(−Δθᵢ²/(2bᵢ²)): the part of dz/dt that depends only on
/// the phase and the morphology, not on z.
double gauss_sum(double theta, const Waves& waves) {
  double acc = 0.0;
  for (std::size_t i = 0; i < 5; ++i) {
    const double dtheta = wrap_phase(theta - waves.theta_rad[i]);
    acc -= waves.a[i] * dtheta *
           std::exp(-dtheta * dtheta / waves.two_b_squared[i]);
  }
  return acc;
}

}  // namespace

void validate(const EcgSynConfig& config) {
  CSECG_CHECK(config.fs_hz > 0.0, "EcgSynConfig: fs_hz must be positive");
  CSECG_CHECK(config.oversample >= 1 && config.oversample <= 64,
              "EcgSynConfig: oversample out of range: " << config.oversample);
  CSECG_CHECK(config.amplitude_scale > 0.0 && config.width_scale > 0.0,
              "EcgSynConfig: scales must be positive");
  CSECG_CHECK(config.respiration_mv >= 0.0 && config.respiration_hz >= 0.0,
              "EcgSynConfig: respiration parameters must be non-negative");
  validate(config.rhythm);
}

SynthesizedEcg synthesize(const EcgSynConfig& config, double duration_seconds,
                          rng::Xoshiro256& gen) {
  validate(config);
  CSECG_CHECK(duration_seconds > 0.0, "synthesize: duration must be positive");

  const auto schedule = generate_rhythm(config.rhythm, duration_seconds, gen);
  const double fs_int = config.fs_hz * config.oversample;
  const double dt = 1.0 / fs_int;
  const auto total_fine =
      static_cast<std::size_t>(std::ceil(duration_seconds * fs_int));

  // Pre-scale each distinct morphology once.
  auto waves_for = [&config](BeatType type) {
    return waves_of(scale_morphology(beat_morphology(type),
                                     config.amplitude_scale,
                                     config.width_scale));
  };
  const Waves waves_normal = waves_for(BeatType::kNormal);
  const Waves waves_pvc = waves_for(BeatType::kPvc);
  const Waves waves_apc = waves_for(BeatType::kApc);
  const Waves waves_wide = waves_for(BeatType::kWide);
  const Waves waves_afib = waves_for(BeatType::kAfib);
  auto select = [&](BeatType type) -> const Waves& {
    switch (type) {
      case BeatType::kPvc:
        return waves_pvc;
      case BeatType::kApc:
        return waves_apc;
      case BeatType::kWide:
        return waves_wide;
      case BeatType::kAfib:
        return waves_afib;
      case BeatType::kNormal:
        break;
    }
    return waves_normal;
  };

  // An oversampled signal is anti-aliased and decimated as it is
  // integrated, so only the filter's last 63 fine samples are held;
  // otherwise the fine grid is the output.
  const auto factor = static_cast<std::size_t>(config.oversample);
  std::optional<dsp::FirDecimator> decimator;
  std::vector<double> fine;
  if (factor > 1) {
    const double cutoff = 0.45 / static_cast<double>(factor);
    decimator.emplace(dsp::design_lowpass(cutoff, 63), factor, total_fine);
  } else {
    fine.reserve(total_fine);
  }
  std::vector<BeatAnnotation> fine_beats;

  // Start mid-diastole so the window does not open on a QRS complex.
  double theta = -kPi;
  double z = 0.0;
  std::size_t beat_index = 0;
  double omega = kTwoPi / schedule.front().rr_seconds;
  const Waves* waves = &select(schedule.front().type);
  bool annotated_this_beat = false;

  for (std::size_t k = 0; k < total_fine; ++k) {
    const double t = static_cast<double>(k) * dt;
    const double z0 = config.respiration_mv *
                      std::sin(kTwoPi * config.respiration_hz * t);
    const double next_theta_unwrapped = theta + dt * omega;
    // RK4 on z; θ advances linearly within a beat so intermediate phases
    // are exact.  Stages 2 and 3 share θ, hence one Gaussian sum.
    const double g1 = gauss_sum(theta, *waves);
    const double g23 = gauss_sum(wrap_phase(theta + 0.5 * dt * omega), *waves);
    const double g4 = gauss_sum(wrap_phase(next_theta_unwrapped), *waves);
    auto dz = [omega, z0](double g, double z_at) {
      return g * omega - (z_at - z0);
    };
    const double k1 = dz(g1, z);
    const double k2 = dz(g23, z + 0.5 * dt * k1);
    const double k3 = dz(g23, z + 0.5 * dt * k2);
    const double k4 = dz(g4, z + dt * k3);
    z += dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4);
    if (decimator) {
      decimator->push(z * kOutputGainMv);
    } else {
      fine.push_back(z * kOutputGainMv);
    }

    // Annotate the R peak when the phase crosses zero.
    if (!annotated_this_beat && theta < 0.0 && next_theta_unwrapped >= 0.0) {
      fine_beats.push_back({k, schedule[beat_index].type});
      annotated_this_beat = true;
    }

    // Beat boundary: phase wraps past +π.
    if (next_theta_unwrapped >= kPi) {
      theta = next_theta_unwrapped - kTwoPi;
      if (beat_index + 1 < schedule.size()) {
        ++beat_index;
        omega = kTwoPi / schedule[beat_index].rr_seconds;
        waves = &select(schedule[beat_index].type);
      }
      annotated_this_beat = false;
    } else {
      theta = next_theta_unwrapped;
    }
  }

  SynthesizedEcg out;
  out.fs_hz = config.fs_hz;
  out.signal_mv =
      decimator ? decimator->finish() : linalg::Vector(std::move(fine));
  out.beats.reserve(fine_beats.size());
  for (const BeatAnnotation& ann : fine_beats) {
    BeatAnnotation coarse = ann;
    coarse.sample /= factor;
    if (coarse.sample < out.signal_mv.size()) out.beats.push_back(coarse);
  }
  return out;
}

}  // namespace csecg::ecg
