#include "csecg/ecg/record.hpp"

#include <algorithm>
#include <cmath>

#include "csecg/common/check.hpp"
#include "csecg/rng/distributions.hpp"

namespace csecg::ecg {
namespace {

// The 48 MIT-BIH record names, in database order.
const char* const kRecordNames[] = {
    "100", "101", "102", "103", "104", "105", "106", "107", "108", "109",
    "111", "112", "113", "114", "115", "116", "117", "118", "119", "121",
    "122", "123", "124", "200", "201", "202", "203", "205", "207", "208",
    "209", "210", "212", "213", "214", "215", "217", "219", "220", "221",
    "222", "223", "228", "230", "231", "232", "233", "234"};
constexpr std::size_t kRecordCount = 48;

// Records with a heavy PVC burden in the real database.
bool heavy_ectopy(const std::string& name) {
  for (const char* id : {"106", "119", "200", "201", "203", "208", "210",
                         "215", "221", "228", "233"}) {
    if (name == id) return true;
  }
  return false;
}

// Records with chronically wide QRS (bundle-branch block) in the real
// database.
bool wide_qrs(const std::string& name) {
  for (const char* id : {"109", "111", "207", "214"}) {
    if (name == id) return true;
  }
  return false;
}

// Noisier ambulatory records.
bool noisy(const std::string& name) {
  for (const char* id : {"104", "105", "108", "203", "222", "228"}) {
    if (name == id) return true;
  }
  return false;
}

// Records in atrial fibrillation/flutter for long stretches in the real
// database.
bool afib(const std::string& name) {
  for (const char* id : {"202", "219", "222"}) {
    if (name == id) return true;
  }
  return false;
}

}  // namespace

void validate(const RecordConfig& config) {
  CSECG_CHECK(config.duration_seconds > 0.0,
              "RecordConfig: duration must be positive");
  CSECG_CHECK(config.fs_hz > 0.0, "RecordConfig: fs must be positive");
  CSECG_CHECK(config.adc_bits >= 2 && config.adc_bits <= 24,
              "RecordConfig: adc_bits out of range: " << config.adc_bits);
  CSECG_CHECK(config.adc_gain > 0.0, "RecordConfig: gain must be positive");
  CSECG_CHECK(config.adc_offset >= 0 &&
                  config.adc_offset < (1 << config.adc_bits),
              "RecordConfig: offset outside ADC range");
}

double EcgRecord::to_mv(std::int32_t adu) const {
  return (static_cast<double>(adu) - config.adc_offset) / config.adc_gain;
}

linalg::Vector EcgRecord::window(std::size_t start, std::size_t length) const {
  CSECG_CHECK(start + length <= samples.size(),
              "EcgRecord::window out of range: [" << start << ", "
                                                  << start + length << ") of "
                                                  << samples.size());
  linalg::Vector out(length);
  for (std::size_t i = 0; i < length; ++i) {
    out[i] = static_cast<double>(samples[start + i]);
  }
  return out;
}

std::vector<std::int32_t> digitize(const linalg::Vector& signal_mv,
                                   double adc_gain, int adc_offset,
                                   int adc_bits) {
  CSECG_CHECK(adc_gain > 0.0, "digitize: gain must be positive");
  CSECG_CHECK(adc_bits >= 2 && adc_bits <= 24,
              "digitize: adc_bits out of range: " << adc_bits);
  const std::int32_t max_code = (1 << adc_bits) - 1;
  std::vector<std::int32_t> out(signal_mv.size());
  for (std::size_t i = 0; i < signal_mv.size(); ++i) {
    const double code =
        std::round(signal_mv[i] * adc_gain + static_cast<double>(adc_offset));
    out[i] = static_cast<std::int32_t>(
        std::clamp(code, 0.0, static_cast<double>(max_code)));
  }
  return out;
}

const std::vector<RecordProfile>& mitbih_surrogate_profiles() {
  static const std::vector<RecordProfile> profiles = [] {
    std::vector<RecordProfile> out;
    out.reserve(kRecordCount);
    for (std::size_t i = 0; i < kRecordCount; ++i) {
      RecordProfile p;
      p.name = kRecordNames[i];
      // Deterministic per-record parameter spread, index-derived so the
      // database is stable across versions.
      const double u = static_cast<double>(i) / (kRecordCount - 1);
      auto spread = [i](std::size_t stride) {
        return static_cast<double>((i * stride) % kRecordCount) /
               static_cast<double>(kRecordCount);
      };
      p.rhythm.mean_hr_bpm = 55.0 + 40.0 * spread(7);
      p.rhythm.lf_amplitude = 0.03 + 0.03 * u;
      p.rhythm.hf_amplitude = 0.02 + 0.03 * (1.0 - u);
      p.rhythm.rr_jitter = 0.008 + 0.012 * spread(5);
      p.amplitude_scale = 0.75 + 0.5 * spread(11);
      p.width_scale = 0.9 + 0.2 * spread(3);
      if (heavy_ectopy(p.name)) {
        p.rhythm.pvc_probability = 0.08 + 0.10 * u;
        p.rhythm.apc_probability = 0.02;
      } else {
        p.rhythm.pvc_probability = 0.005;
        p.rhythm.apc_probability = 0.01;
      }
      p.rhythm.chronically_wide = wide_qrs(p.name);
      p.rhythm.atrial_fibrillation = afib(p.name);
      p.noise.baseline_wander_mv = noisy(p.name) ? 0.12 : 0.04;
      p.noise.emg_mv = noisy(p.name) ? 0.035 : 0.012;
      p.noise.powerline_mv = (i % 7 == 0) ? 0.01 : 0.0;
      p.noise.powerline_hz = 60.0;  // US recordings.
      out.push_back(std::move(p));
    }
    return out;
  }();
  return profiles;
}

EcgRecord generate_record(const RecordProfile& profile,
                          const RecordConfig& config, std::uint64_t seed) {
  validate(config);
  rng::Xoshiro256 gen(seed);

  EcgSynConfig syn;
  syn.fs_hz = config.fs_hz;
  syn.rhythm = profile.rhythm;
  syn.amplitude_scale = profile.amplitude_scale;
  syn.width_scale = profile.width_scale;

  SynthesizedEcg clean = synthesize(syn, config.duration_seconds, gen);
  add_noise(clean.signal_mv, config.fs_hz, profile.noise, gen);

  EcgRecord record;
  record.name = profile.name;
  record.config = config;
  record.samples = digitize(clean.signal_mv, config.adc_gain,
                            config.adc_offset, config.adc_bits);
  record.beats = std::move(clean.beats);
  return record;
}

SyntheticDatabase::SyntheticDatabase(RecordConfig config, std::uint64_t seed)
    : config_(config),
      seed_(seed),
      slots_(std::make_unique<Slot[]>(kRecordCount)) {
  validate(config_);
}

std::size_t SyntheticDatabase::size() const noexcept { return kRecordCount; }

const EcgRecord& SyntheticDatabase::record(std::size_t index) const {
  CSECG_CHECK(index < kRecordCount,
              "SyntheticDatabase: index " << index << " out of range");
  // The slot's lock covers check + fill; generation is deterministic per
  // index, so contention only costs the losers a wait, never a different
  // record, and workers on different records never wait for each other.
  Slot& slot = slots_[index];
  const std::lock_guard<std::mutex> lock(slot.mutex);
  if (!slot.record) {
    const RecordProfile& profile = mitbih_surrogate_profiles()[index];
    // Per-record seed: SplitMix over (database seed, index).
    std::uint64_t s = seed_ + 0x9E3779B97F4A7C15ULL * (index + 1);
    const std::uint64_t record_seed = rng::splitmix64(s);
    slot.record = std::make_unique<EcgRecord>(
        generate_record(profile, config_, record_seed));
  }
  return *slot.record;
}

const std::string& SyntheticDatabase::name(std::size_t index) const {
  CSECG_CHECK(index < kRecordCount,
              "SyntheticDatabase: index " << index << " out of range");
  return mitbih_surrogate_profiles()[index].name;
}

std::vector<linalg::Vector> extract_windows(const EcgRecord& record,
                                            std::size_t length,
                                            std::size_t count) {
  CSECG_CHECK(length > 0 && count > 0,
              "extract_windows: length and count must be positive");
  const auto skip = static_cast<std::size_t>(record.config.fs_hz);
  CSECG_CHECK(record.size() >= skip + length * count,
              "extract_windows: record too short ("
                  << record.size() << " samples) for " << count
                  << " windows of " << length);
  const std::size_t usable = record.size() - skip;
  const std::size_t stride = usable / count;
  std::vector<linalg::Vector> windows;
  windows.reserve(count);
  for (std::size_t w = 0; w < count; ++w) {
    windows.push_back(record.window(skip + w * stride, length));
  }
  return windows;
}

}  // namespace csecg::ecg
