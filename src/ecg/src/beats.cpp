#include "csecg/ecg/beats.hpp"

#include <cmath>

#include "csecg/common/check.hpp"
#include "csecg/rng/distributions.hpp"

namespace csecg::ecg {

BeatMorphology beat_morphology(BeatType type) {
  // Base angles/amplitudes/widths from McSharry et al., IEEE TBME 2003,
  // Table 1; ectopic variants follow standard electrophysiology: PVC has
  // no P wave, a wide high-amplitude QRS and a discordant (inverted) T.
  switch (type) {
    case BeatType::kNormal:
      return BeatMorphology{{-70.0, -15.0, 0.0, 15.0, 100.0},
                            {1.2, -5.0, 30.0, -7.5, 0.75},
                            {0.25, 0.1, 0.1, 0.1, 0.4}};
    case BeatType::kPvc:
      return BeatMorphology{{-70.0, -20.0, 0.0, 25.0, 110.0},
                            {0.0, -8.0, 24.0, -10.0, -1.1},
                            {0.25, 0.22, 0.26, 0.24, 0.45}};
    case BeatType::kApc:
      // Early beat with an altered (often biphasic-looking) P wave.
      return BeatMorphology{{-75.0, -15.0, 0.0, 15.0, 100.0},
                            {0.7, -5.0, 28.0, -7.5, 0.7},
                            {0.18, 0.1, 0.1, 0.1, 0.4}};
    case BeatType::kWide:
      return BeatMorphology{{-70.0, -18.0, 0.0, 20.0, 105.0},
                            {1.0, -6.0, 26.0, -9.0, -0.6},
                            {0.25, 0.16, 0.18, 0.17, 0.42}};
    case BeatType::kAfib:
      // Conducted beat during atrial fibrillation: normal ventricular
      // complex, absent P wave (fibrillatory baseline is left to the
      // noise model).
      return BeatMorphology{{-70.0, -15.0, 0.0, 15.0, 100.0},
                            {0.0, -5.0, 30.0, -7.5, 0.75},
                            {0.25, 0.1, 0.1, 0.1, 0.4}};
  }
  throw std::invalid_argument("unknown BeatType");
}

BeatMorphology scale_morphology(const BeatMorphology& base,
                                double amplitude_scale, double width_scale) {
  CSECG_CHECK(amplitude_scale > 0.0 && width_scale > 0.0,
              "scale_morphology: scales must be positive, got "
                  << amplitude_scale << ", " << width_scale);
  BeatMorphology out = base;
  for (double& a : out.a) a *= amplitude_scale;
  for (double& b : out.b) b *= width_scale;
  return out;
}

void validate(const RhythmConfig& config) {
  CSECG_CHECK(config.mean_hr_bpm > 20.0 && config.mean_hr_bpm < 250.0,
              "RhythmConfig: mean_hr_bpm out of physiological range: "
                  << config.mean_hr_bpm);
  CSECG_CHECK(config.pvc_probability >= 0.0 && config.pvc_probability <= 1.0,
              "RhythmConfig: pvc_probability out of [0,1]");
  CSECG_CHECK(config.apc_probability >= 0.0 && config.apc_probability <= 1.0,
              "RhythmConfig: apc_probability out of [0,1]");
  CSECG_CHECK(config.pvc_probability + config.apc_probability <= 1.0,
              "RhythmConfig: ectopy probabilities exceed 1");
  CSECG_CHECK(config.lf_amplitude >= 0.0 && config.hf_amplitude >= 0.0 &&
                  config.rr_jitter >= 0.0,
              "RhythmConfig: modulation depths must be non-negative");
  CSECG_CHECK(config.lf_amplitude + config.hf_amplitude +
                      3.0 * config.rr_jitter <
                  0.9,
              "RhythmConfig: RR modulation too deep; RR could go negative");
}

std::vector<ScheduledBeat> generate_rhythm(const RhythmConfig& config,
                                           double duration_seconds,
                                           rng::Xoshiro256& gen) {
  validate(config);
  CSECG_CHECK(duration_seconds > 0.0,
              "generate_rhythm: duration must be positive");
  const double rr_mean = 60.0 / config.mean_hr_bpm;
  const double phase_lf = rng::uniform(gen, 0.0, 2.0 * 3.14159265358979);
  const double phase_hf = rng::uniform(gen, 0.0, 2.0 * 3.14159265358979);

  std::vector<ScheduledBeat> beats;
  double t = 0.0;
  bool pending_compensatory = false;
  while (t < duration_seconds) {
    ScheduledBeat beat;
    if (config.atrial_fibrillation) {
      // Irregularly irregular: i.i.d. RR with a wide spread, no memory,
      // no respiratory structure; ventricular ectopy still possible.
      beat.type = rng::uniform01(gen) < config.pvc_probability
                      ? BeatType::kPvc
                      : BeatType::kAfib;
      beat.rr_seconds =
          std::max(0.25, rr_mean * rng::uniform(gen, 0.55, 1.55));
      beats.push_back(beat);
      t += beat.rr_seconds;
      continue;
    }
    // Two-peak RR spectrum (Mayer + respiratory), evaluated at beat time.
    const double modulation =
        config.lf_amplitude *
            std::sin(2.0 * 3.14159265358979 * config.lf_hz * t + phase_lf) +
        config.hf_amplitude *
            std::sin(2.0 * 3.14159265358979 * config.hf_hz * t + phase_hf) +
        config.rr_jitter * rng::normal(gen);
    double rr = rr_mean * (1.0 + modulation);

    const double u = rng::uniform01(gen);
    if (pending_compensatory) {
      // Full compensatory pause after a PVC.
      beat.type = config.chronically_wide ? BeatType::kWide
                                          : BeatType::kNormal;
      rr *= 1.45;
      pending_compensatory = false;
    } else if (u < config.pvc_probability) {
      beat.type = BeatType::kPvc;
      rr *= 0.62;  // Premature coupling interval.
      pending_compensatory = true;
    } else if (u < config.pvc_probability + config.apc_probability) {
      beat.type = BeatType::kApc;
      rr *= 0.78;  // Early, with a less-than-compensatory pause handled
                   // by the natural rhythm resuming next beat.
    } else {
      beat.type = config.chronically_wide ? BeatType::kWide
                                          : BeatType::kNormal;
    }
    beat.rr_seconds = std::max(rr, 0.2);  // Physiological floor (300 bpm).
    beats.push_back(beat);
    t += beat.rr_seconds;
  }
  return beats;
}

}  // namespace csecg::ecg
