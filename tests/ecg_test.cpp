// Unit tests for csecg::ecg — rhythm generation, the dynamical
// synthesizer, noise models, digitization, and the synthetic database.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ios>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "csecg/ecg/beats.hpp"
#include "csecg/ecg/ecgsyn.hpp"
#include "csecg/ecg/noise.hpp"
#include "csecg/ecg/record.hpp"
#include "csecg/linalg/vector.hpp"
#include "csecg/rng/xoshiro.hpp"

namespace csecg::ecg {
namespace {

using linalg::Vector;

// ---------------------------------------------------------------------------
// Beats & rhythm.

TEST(BeatMorphologies, PvcHasNoPWave) {
  EXPECT_EQ(beat_morphology(BeatType::kPvc).a[0], 0.0);
  EXPECT_NE(beat_morphology(BeatType::kNormal).a[0], 0.0);
}

TEST(BeatMorphologies, PvcQrsWiderThanNormal) {
  const auto pvc = beat_morphology(BeatType::kPvc);
  const auto normal = beat_morphology(BeatType::kNormal);
  EXPECT_GT(pvc.b[2], 2.0 * normal.b[2]);  // R-wave width.
}

TEST(BeatMorphologies, PvcTWaveDiscordant) {
  // Normal T is upright, PVC T is inverted.
  EXPECT_GT(beat_morphology(BeatType::kNormal).a[4], 0.0);
  EXPECT_LT(beat_morphology(BeatType::kPvc).a[4], 0.0);
}

TEST(ScaleMorphology, ScalesAmplitudesAndWidths) {
  const auto base = beat_morphology(BeatType::kNormal);
  const auto scaled = scale_morphology(base, 2.0, 0.5);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_DOUBLE_EQ(scaled.a[i], 2.0 * base.a[i]);
    EXPECT_DOUBLE_EQ(scaled.b[i], 0.5 * base.b[i]);
    EXPECT_DOUBLE_EQ(scaled.theta_deg[i], base.theta_deg[i]);
  }
  EXPECT_THROW(scale_morphology(base, 0.0, 1.0), std::invalid_argument);
  EXPECT_THROW(scale_morphology(base, 1.0, -1.0), std::invalid_argument);
}

TEST(RhythmConfigValidation, RejectsNonsense) {
  RhythmConfig bad;
  bad.mean_hr_bpm = 0.0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = RhythmConfig{};
  bad.pvc_probability = 1.5;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = RhythmConfig{};
  bad.pvc_probability = 0.6;
  bad.apc_probability = 0.6;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = RhythmConfig{};
  bad.lf_amplitude = 0.5;
  bad.hf_amplitude = 0.5;
  EXPECT_THROW(validate(bad), std::invalid_argument);
}

TEST(GenerateRhythm, CoversRequestedDuration) {
  rng::Xoshiro256 gen(1);
  RhythmConfig config;
  const auto beats = generate_rhythm(config, 60.0, gen);
  double total = 0.0;
  for (const auto& b : beats) total += b.rr_seconds;
  EXPECT_GE(total, 60.0);
  EXPECT_LT(total, 63.0);  // No runaway.
}

TEST(GenerateRhythm, MeanRateMatchesConfig) {
  rng::Xoshiro256 gen(2);
  RhythmConfig config;
  config.mean_hr_bpm = 80.0;
  const auto beats = generate_rhythm(config, 300.0, gen);
  double total = 0.0;
  for (const auto& b : beats) total += b.rr_seconds;
  const double hr = 60.0 * static_cast<double>(beats.size()) / total;
  EXPECT_NEAR(hr, 80.0, 3.0);
}

TEST(GenerateRhythm, PvcFollowedByCompensatoryPause) {
  rng::Xoshiro256 gen(3);
  RhythmConfig config;
  config.pvc_probability = 0.3;
  const auto beats = generate_rhythm(config, 120.0, gen);
  const double rr_mean = 60.0 / config.mean_hr_bpm;
  int pvcs = 0;
  for (std::size_t i = 0; i + 1 < beats.size(); ++i) {
    if (beats[i].type == BeatType::kPvc) {
      ++pvcs;
      EXPECT_LT(beats[i].rr_seconds, rr_mean);        // Premature.
      EXPECT_GT(beats[i + 1].rr_seconds, rr_mean);    // Pause.
      EXPECT_NE(beats[i + 1].type, BeatType::kPvc);   // Never back-to-back.
    }
  }
  EXPECT_GT(pvcs, 10);
}

TEST(GenerateRhythm, ChronicallyWideProducesWideBeats) {
  rng::Xoshiro256 gen(4);
  RhythmConfig config;
  config.chronically_wide = true;
  const auto beats = generate_rhythm(config, 30.0, gen);
  for (const auto& b : beats) {
    EXPECT_TRUE(b.type == BeatType::kWide || b.type == BeatType::kPvc ||
                b.type == BeatType::kApc);
  }
}

TEST(GenerateRhythm, DeterministicGivenSeed) {
  RhythmConfig config;
  config.pvc_probability = 0.1;
  rng::Xoshiro256 g1(7);
  rng::Xoshiro256 g2(7);
  const auto a = generate_rhythm(config, 60.0, g1);
  const auto b = generate_rhythm(config, 60.0, g2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].type, b[i].type);
    EXPECT_DOUBLE_EQ(a[i].rr_seconds, b[i].rr_seconds);
  }
}

// ---------------------------------------------------------------------------
// Synthesizer.

TEST(EcgSyn, ConfigValidation) {
  EcgSynConfig config;
  config.fs_hz = 0.0;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config = EcgSynConfig{};
  config.oversample = 0;
  EXPECT_THROW(validate(config), std::invalid_argument);
  config = EcgSynConfig{};
  config.amplitude_scale = -1.0;
  EXPECT_THROW(validate(config), std::invalid_argument);
}

TEST(EcgSyn, ProducesRequestedLength) {
  rng::Xoshiro256 gen(10);
  EcgSynConfig config;
  const SynthesizedEcg ecg = synthesize(config, 10.0, gen);
  EXPECT_NEAR(static_cast<double>(ecg.signal_mv.size()), 3600.0, 4.0);
  EXPECT_EQ(ecg.fs_hz, 360.0);
}

TEST(EcgSyn, BeatCountMatchesHeartRate) {
  rng::Xoshiro256 gen(11);
  EcgSynConfig config;
  config.rhythm.mean_hr_bpm = 72.0;
  const SynthesizedEcg ecg = synthesize(config, 60.0, gen);
  // ~72 beats in a minute (allow transient at the ends).
  EXPECT_NEAR(static_cast<double>(ecg.beats.size()), 72.0, 6.0);
}

TEST(EcgSyn, RPeaksAlignWithAnnotations) {
  rng::Xoshiro256 gen(12);
  EcgSynConfig config;
  const SynthesizedEcg ecg = synthesize(config, 30.0, gen);
  ASSERT_GT(ecg.beats.size(), 10u);
  // Signal near each normal-beat annotation should contain the window max.
  for (std::size_t k = 2; k < ecg.beats.size() - 2; ++k) {
    if (ecg.beats[k].type != BeatType::kNormal) continue;
    const std::size_t s = ecg.beats[k].sample;
    double local_max = -1e9;
    std::size_t argmax = 0;
    const std::size_t lo = s >= 40 ? s - 40 : 0;
    const std::size_t hi = std::min(ecg.signal_mv.size() - 1, s + 40);
    for (std::size_t i = lo; i <= hi; ++i) {
      if (ecg.signal_mv[i] > local_max) {
        local_max = ecg.signal_mv[i];
        argmax = i;
      }
    }
    EXPECT_NEAR(static_cast<double>(argmax), static_cast<double>(s), 6.0);
  }
}

TEST(EcgSyn, AmplitudeInPhysiologicalRange) {
  rng::Xoshiro256 gen(13);
  EcgSynConfig config;
  const SynthesizedEcg ecg = synthesize(config, 20.0, gen);
  const double peak = linalg::norm_inf(ecg.signal_mv);
  EXPECT_GT(peak, 0.4);   // R waves present.
  EXPECT_LT(peak, 4.0);   // Not blowing up.
}

TEST(EcgSyn, DeterministicGivenSeed) {
  EcgSynConfig config;
  rng::Xoshiro256 g1(21);
  rng::Xoshiro256 g2(21);
  const SynthesizedEcg a = synthesize(config, 5.0, g1);
  const SynthesizedEcg b = synthesize(config, 5.0, g2);
  ASSERT_EQ(a.signal_mv.size(), b.signal_mv.size());
  EXPECT_EQ(a.signal_mv, b.signal_mv);
}

TEST(EcgSyn, PvcBeatsVisiblyLargerOrWider) {
  rng::Xoshiro256 gen(14);
  EcgSynConfig config;
  config.rhythm.pvc_probability = 0.25;
  const SynthesizedEcg ecg = synthesize(config, 60.0, gen);
  int pvcs = 0;
  for (const auto& b : ecg.beats) {
    if (b.type == BeatType::kPvc) ++pvcs;
  }
  EXPECT_GT(pvcs, 5);
}

// ---------------------------------------------------------------------------
// Noise.

TEST(Noise, ValidationRejectsNegatives) {
  NoiseConfig bad;
  bad.emg_mv = -0.1;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = NoiseConfig{};
  bad.powerline_hz = 0.0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
}

TEST(Noise, BaselineWanderRmsMatches) {
  rng::Xoshiro256 gen(30);
  const Vector w = baseline_wander(36000, 360.0, 0.33, 0.1, gen);
  const double rms = linalg::norm2(w) / std::sqrt(36000.0);
  EXPECT_NEAR(rms, 0.1, 0.03);
}

TEST(Noise, BaselineWanderIsLowFrequency) {
  rng::Xoshiro256 gen(31);
  const Vector w = baseline_wander(3600, 360.0, 0.33, 0.1, gen);
  // Sample-to-sample differences are tiny compared to amplitude.
  double max_diff = 0.0;
  for (std::size_t i = 1; i < w.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(w[i] - w[i - 1]));
  }
  EXPECT_LT(max_diff, 0.01);
}

TEST(Noise, EmgRmsMatches) {
  rng::Xoshiro256 gen(32);
  const Vector e = emg_noise(50000, 0.05, gen);
  const double rms = linalg::norm2(e) / std::sqrt(50000.0);
  EXPECT_NEAR(rms, 0.05, 0.005);
}

TEST(Noise, ZeroAmplitudeIsSilent) {
  rng::Xoshiro256 gen(33);
  EXPECT_EQ(linalg::norm2(emg_noise(100, 0.0, gen)), 0.0);
  EXPECT_EQ(linalg::norm2(baseline_wander(100, 360.0, 0.33, 0.0, gen)), 0.0);
  EXPECT_EQ(linalg::norm2(powerline(100, 360.0, 50.0, 0.0, gen)), 0.0);
}

TEST(Noise, PowerlineIsNarrowband) {
  rng::Xoshiro256 gen(34);
  const std::size_t n = 3600;
  const Vector p = powerline(n, 360.0, 60.0, 0.1, gen);
  // Correlate against 60 Hz quadrature pair; most energy must live there.
  double c_re = 0.0;
  double c_im = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = static_cast<double>(i) / 360.0;
    c_re += p[i] * std::cos(2.0 * 3.14159265358979 * 60.0 * t);
    c_im += p[i] * std::sin(2.0 * 3.14159265358979 * 60.0 * t);
  }
  const double tone_energy = (c_re * c_re + c_im * c_im) / (n / 2.0);
  EXPECT_GT(tone_energy, 0.8 * linalg::norm2_squared(p));
}

TEST(Noise, AddNoiseAddsConfiguredMix) {
  rng::Xoshiro256 gen(35);
  Vector signal(7200);
  NoiseConfig config;
  config.baseline_wander_mv = 0.05;
  config.emg_mv = 0.02;
  config.powerline_mv = 0.01;
  add_noise(signal, 360.0, config, gen);
  EXPECT_GT(linalg::norm2(signal), 0.0);
}

// ---------------------------------------------------------------------------
// Digitization & records.

TEST(Digitize, RoundTripWithinHalfLsb) {
  Vector mv{0.0, 0.5, -0.5, 1.0};
  const auto codes = digitize(mv, 200.0, 1024, 11);
  EXPECT_EQ(codes[0], 1024);
  EXPECT_EQ(codes[1], 1124);
  EXPECT_EQ(codes[2], 924);
  EXPECT_EQ(codes[3], 1224);
}

TEST(Digitize, ClipsAtRails) {
  Vector mv{100.0, -100.0};
  const auto codes = digitize(mv, 200.0, 1024, 11);
  EXPECT_EQ(codes[0], 2047);
  EXPECT_EQ(codes[1], 0);
}

TEST(Digitize, Validation) {
  EXPECT_THROW(digitize(Vector{0.0}, 0.0, 1024, 11), std::invalid_argument);
  EXPECT_THROW(digitize(Vector{0.0}, 200.0, 1024, 1), std::invalid_argument);
}

TEST(RecordConfigValidation, RejectsNonsense) {
  RecordConfig bad;
  bad.duration_seconds = 0.0;
  EXPECT_THROW(validate(bad), std::invalid_argument);
  bad = RecordConfig{};
  bad.adc_offset = 4096;
  EXPECT_THROW(validate(bad), std::invalid_argument);
}

TEST(Profiles, FortyEightDistinctNames) {
  const auto& profiles = mitbih_surrogate_profiles();
  ASSERT_EQ(profiles.size(), 48u);
  std::set<std::string> names;
  for (const auto& p : profiles) names.insert(p.name);
  EXPECT_EQ(names.size(), 48u);
  EXPECT_EQ(profiles.front().name, "100");
  EXPECT_EQ(profiles.back().name, "234");
}

TEST(Profiles, EctopyAndWideMarkersApplied) {
  const auto& profiles = mitbih_surrogate_profiles();
  bool found_ectopic = false;
  bool found_wide = false;
  for (const auto& p : profiles) {
    if (p.name == "208") {
      EXPECT_GT(p.rhythm.pvc_probability, 0.05);
      found_ectopic = true;
    }
    if (p.name == "109") {
      EXPECT_TRUE(p.rhythm.chronically_wide);
      found_wide = true;
    }
  }
  EXPECT_TRUE(found_ectopic);
  EXPECT_TRUE(found_wide);
}

TEST(GenerateRecord, ProducesPlausibleMitBihSamples) {
  RecordConfig config;
  config.duration_seconds = 20.0;
  const EcgRecord rec =
      generate_record(mitbih_surrogate_profiles()[0], config, 42);
  ASSERT_EQ(rec.size(), 7200u);
  // Baseline near the 1024 offset, excursions within the 11-bit range.
  double sum = 0.0;
  for (auto s : rec.samples) {
    ASSERT_GE(s, 0);
    ASSERT_LE(s, 2047);
    sum += s;
  }
  EXPECT_NEAR(sum / 7200.0, 1024.0, 60.0);
}

TEST(Database, LazyCachedAccess) {
  RecordConfig config;
  config.duration_seconds = 10.0;
  const SyntheticDatabase db(config, 7);
  EXPECT_EQ(db.size(), 48u);
  const EcgRecord& a = db.record(3);
  const EcgRecord& b = db.record(3);
  EXPECT_EQ(&a, &b);  // Cached.
  EXPECT_EQ(a.name, db.name(3));
  EXPECT_THROW(db.record(48), std::invalid_argument);
  EXPECT_THROW(db.name(48), std::invalid_argument);
}

TEST(Database, RecordsDifferAcrossIndices) {
  RecordConfig config;
  config.duration_seconds = 10.0;
  const SyntheticDatabase db(config, 7);
  EXPECT_NE(db.record(0).samples, db.record(1).samples);
}

TEST(Database, SameSeedReproducible) {
  RecordConfig config;
  config.duration_seconds = 5.0;
  const SyntheticDatabase db1(config, 99);
  const SyntheticDatabase db2(config, 99);
  EXPECT_EQ(db1.record(5).samples, db2.record(5).samples);
}

TEST(Database, DifferentSeedDiffers) {
  RecordConfig config;
  config.duration_seconds = 5.0;
  const SyntheticDatabase db1(config, 1);
  const SyntheticDatabase db2(config, 2);
  EXPECT_NE(db1.record(5).samples, db2.record(5).samples);
}

// FNV-1a 64 over little-endian integers.
class Fnv1a {
 public:
  void eat(std::uint64_t value, int bytes) {
    for (int b = 0; b < bytes; ++b) {
      h_ ^= (value >> (8 * b)) & 0xFFu;
      h_ *= 0x100000001b3ULL;
    }
  }
  // Each beat as its sample index (8 bytes) then its type code (1 byte).
  void eat(const std::vector<BeatAnnotation>& beats) {
    for (const BeatAnnotation& beat : beats) {
      eat(beat.sample, 8);
      eat(static_cast<std::uint64_t>(beat.type), 1);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

// A record's samples (4 bytes each), then its beats.
std::uint64_t record_hash(const EcgRecord& record) {
  Fnv1a h;
  for (const std::int32_t s : record.samples) {
    h.eat(static_cast<std::uint32_t>(s), 4);
  }
  h.eat(record.beats);
  return h.value();
}

// Pins the seed-2015 database every experiment and benchmark runs on: a
// normal record, a heavy-ectopy record and an AF record, full length.  A
// change that moves one record byte fails here; a deliberate change to
// the surrogate data updates these hashes and says so.
TEST(Database, GoldenRecordHashesSeed2015) {
  const SyntheticDatabase db({}, 2015);
  struct Golden {
    std::size_t index;
    const char* name;
    std::size_t beats;
    std::uint64_t hash;
  };
  for (const Golden& g : {Golden{0, "100", 55, 0x4f6cb2327c81406fULL},
                          Golden{6, "106", 90, 0x5b6028b49b2c0069ULL},
                          Golden{25, "202", 78, 0x7e1a7ddab8f2cd56ULL}}) {
    const EcgRecord& record = db.record(g.index);
    EXPECT_EQ(record.name, g.name);
    EXPECT_EQ(record.size(), 21600u) << g.name;
    EXPECT_EQ(record.beats.size(), g.beats) << g.name;
    EXPECT_EQ(record_hash(record), g.hash)
        << g.name << ": 0x" << std::hex << record_hash(record);
  }
}

// The synthesizer's own output, before noise and digitization, bit for
// bit (each double's 8 bytes, then the beats): digitization rounds to
// 1/200 mV, so a last-bit change in synthesize can leave the record
// hashes above unchanged.  Hashes taken before the synthesis speed-ups.
TEST(EcgSyn, GoldenSignalBitsSeed2015) {
  const std::pair<std::size_t, std::uint64_t> golden[] = {
      {0, 0xae8d78e266b7d904ULL},
      {6, 0xca681af0653c1ef1ULL},
      {25, 0x9b837cf1a2921630ULL}};
  for (const auto& [index, hash] : golden) {
    const RecordProfile& profile = mitbih_surrogate_profiles()[index];
    EcgSynConfig config;
    config.rhythm = profile.rhythm;
    config.amplitude_scale = profile.amplitude_scale;
    config.width_scale = profile.width_scale;
    rng::Xoshiro256 gen(2015);
    const SynthesizedEcg out = synthesize(config, 20.0, gen);
    Fnv1a h;
    for (const double v : out.signal_mv) {
      h.eat(std::bit_cast<std::uint64_t>(v), 8);
    }
    h.eat(out.beats);
    EXPECT_EQ(h.value(), hash)
        << profile.name << ": 0x" << std::hex << h.value();
  }
}

TEST(Database, ConcurrentFirstAccessMatchesSerial) {
  RecordConfig config;
  config.duration_seconds = 5.0;
  constexpr std::size_t kRecords = 8;
  constexpr std::size_t kThreads = 4;
  const SyntheticDatabase serial(config, 11);
  const SyntheticDatabase shared(config, 11);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    // Each thread walks the records from a different start, odd threads
    // backwards, so first accesses collide and interleave.
    threads.emplace_back([&shared, t] {
      for (std::size_t i = 0; i < kRecords; ++i) {
        const std::size_t step = (t % 2 == 0) ? i : kRecords - 1 - i;
        shared.record((step + 2 * t) % kRecords);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t r = 0; r < kRecords; ++r) {
    const EcgRecord& a = serial.record(r);
    const EcgRecord& b = shared.record(r);
    EXPECT_EQ(a.samples, b.samples) << r;
    ASSERT_EQ(a.beats.size(), b.beats.size()) << r;
    for (std::size_t i = 0; i < a.beats.size(); ++i) {
      EXPECT_EQ(a.beats[i].sample, b.beats[i].sample) << r;
      EXPECT_EQ(a.beats[i].type, b.beats[i].type) << r;
    }
  }
}

TEST(Windows, ExtractionCoversRecord) {
  RecordConfig config;
  config.duration_seconds = 20.0;
  const SyntheticDatabase db(config, 7);
  const auto windows = extract_windows(db.record(0), 512, 4);
  ASSERT_EQ(windows.size(), 4u);
  for (const auto& w : windows) EXPECT_EQ(w.size(), 512u);
}

TEST(Windows, TooShortRecordThrows) {
  RecordConfig config;
  config.duration_seconds = 2.0;
  const SyntheticDatabase db(config, 7);
  EXPECT_THROW(extract_windows(db.record(0), 512, 10),
               std::invalid_argument);
}

TEST(Windows, WindowRangeValidation) {
  RecordConfig config;
  config.duration_seconds = 5.0;
  const SyntheticDatabase db(config, 7);
  EXPECT_THROW(db.record(0).window(1790, 100), std::invalid_argument);
}


TEST(Afib, IrregularlyIrregularRhythm) {
  rng::Xoshiro256 gen(50);
  RhythmConfig config;
  config.atrial_fibrillation = true;
  config.mean_hr_bpm = 80.0;
  const auto beats = generate_rhythm(config, 120.0, gen);
  // All conducted beats are kAfib (no APC/compensatory logic).
  double rr_min = 10.0;
  double rr_max = 0.0;
  for (const auto& b : beats) {
    EXPECT_TRUE(b.type == BeatType::kAfib || b.type == BeatType::kPvc);
    rr_min = std::min(rr_min, b.rr_seconds);
    rr_max = std::max(rr_max, b.rr_seconds);
  }
  // Wide i.i.d. RR spread, unlike sinus rhythm's few-percent modulation.
  EXPECT_GT(rr_max / rr_min, 1.8);
}

TEST(Afib, NoPWaveMorphology) {
  EXPECT_EQ(beat_morphology(BeatType::kAfib).a[0], 0.0);
  // QRS preserved (same R amplitude as a normal beat).
  EXPECT_EQ(beat_morphology(BeatType::kAfib).a[2],
            beat_morphology(BeatType::kNormal).a[2]);
}

TEST(Afib, SurrogateProfilesFlagAfRecords) {
  for (const auto& p : mitbih_surrogate_profiles()) {
    if (p.name == "202" || p.name == "219" || p.name == "222") {
      EXPECT_TRUE(p.rhythm.atrial_fibrillation) << p.name;
    }
    if (p.name == "100") {
      EXPECT_FALSE(p.rhythm.atrial_fibrillation);
    }
  }
}

TEST(Afib, SynthesizesAndDigitizes) {
  RecordConfig config;
  config.duration_seconds = 15.0;
  RecordProfile profile = mitbih_surrogate_profiles()[0];
  profile.rhythm.atrial_fibrillation = true;
  const EcgRecord record = generate_record(profile, config, 99);
  EXPECT_EQ(record.size(), 5400u);
  int afib_beats = 0;
  for (const auto& beat : record.beats) {
    if (beat.type == BeatType::kAfib) ++afib_beats;
  }
  EXPECT_GT(afib_beats, 10);
}

}  // namespace
}  // namespace csecg::ecg
