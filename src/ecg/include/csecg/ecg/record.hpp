// Digitized ECG records and the synthetic MIT-BIH-like database.
//
// The MIT-BIH Arrhythmia Database the paper evaluates on (48 two-channel
// half-hour ambulatory records, 360 Hz, 11-bit over 10 mV, baseline at ADC
// code 1024, nominal gain 200 ADU/mV) is not redistributable here, so
// SyntheticDatabase generates 48 single-lead surrogate records with the
// same digital format and a comparable spread of heart rates, morphologies,
// ectopy burden, and noise (see DESIGN.md §2).  Record names reuse the
// MIT-BIH numbering ("100"…"234") so experiment tables read like the
// paper's, and the per-record generation seed derives only from the global
// database seed and the record index — records are bit-reproducible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "csecg/ecg/ecgsyn.hpp"
#include "csecg/ecg/noise.hpp"
#include "csecg/linalg/vector.hpp"

namespace csecg::ecg {

/// Digitization / generation parameters of a record.
struct RecordConfig {
  double duration_seconds = 60.0;
  double fs_hz = 360.0;
  int adc_bits = 11;          ///< MIT-BIH resolution.
  double adc_gain = 200.0;    ///< ADC units per millivolt.
  int adc_offset = 1024;      ///< ADC code of 0 mV (mid-range).
};

/// Validates a RecordConfig; throws std::invalid_argument on nonsense.
void validate(const RecordConfig& config);

/// A digitized single-lead ECG record in MIT-BIH-style raw ADC units.
struct EcgRecord {
  std::string name;                      ///< e.g. "100".
  RecordConfig config;
  std::vector<std::int32_t> samples;     ///< Raw ADC codes.
  std::vector<BeatAnnotation> beats;     ///< R-peak annotations.

  std::size_t size() const noexcept { return samples.size(); }

  /// Converts an ADC code back to millivolts.
  double to_mv(std::int32_t adu) const;

  /// Copies samples [start, start+length) as doubles (raw ADC units, the
  /// representation the paper computes PRD on).  Throws
  /// std::invalid_argument if the range exceeds the record.
  linalg::Vector window(std::size_t start, std::size_t length) const;
};

/// Uniformly quantizes a millivolt signal to ADC codes with clipping at
/// the rails [0, 2^bits − 1].
std::vector<std::int32_t> digitize(const linalg::Vector& signal_mv,
                                   double adc_gain, int adc_offset,
                                   int adc_bits);

/// Per-record generation profile (heart rate, morphology, ectopy, noise).
struct RecordProfile {
  std::string name;
  RhythmConfig rhythm;
  NoiseConfig noise;
  double amplitude_scale = 1.0;
  double width_scale = 1.0;
};

/// The 48 surrogate profiles standing in for the MIT-BIH records, in
/// database order.  Deterministic (no RNG involved).
const std::vector<RecordProfile>& mitbih_surrogate_profiles();

/// Generates one record from a profile.
EcgRecord generate_record(const RecordProfile& profile,
                          const RecordConfig& config, std::uint64_t seed);

/// Lazily generated, cached database of the 48 surrogate records.
class SyntheticDatabase {
 public:
  explicit SyntheticDatabase(RecordConfig config = {},
                             std::uint64_t seed = 2015);

  /// Number of records (always 48, matching MIT-BIH).
  std::size_t size() const noexcept;

  /// Record by index; generated on first access and cached.  Thread-safe
  /// (the parallel experiment runner pulls records from pool workers):
  /// each record has its own lock, so different records generate
  /// concurrently.  Throws std::invalid_argument if index ≥ size().
  const EcgRecord& record(std::size_t index) const;

  /// Record name by index (no generation cost).
  const std::string& name(std::size_t index) const;

  const RecordConfig& config() const noexcept { return config_; }

 private:
  RecordConfig config_;
  std::uint64_t seed_;
  // One cache slot per record; the lock guards the fill.
  struct Slot {
    std::mutex mutex;
    std::unique_ptr<EcgRecord> record;
  };
  std::unique_ptr<Slot[]> slots_;
};

/// Extracts `count` non-overlapping analysis windows of `length` samples,
/// evenly spaced through the record (skipping the first second of
/// transient).  Throws std::invalid_argument if the record is too short
/// for the request.
std::vector<linalg::Vector> extract_windows(const EcgRecord& record,
                                            std::size_t length,
                                            std::size_t count);

}  // namespace csecg::ecg
