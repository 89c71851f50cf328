// Shared helpers for the experiment benches.
//
// Every figure/table bench honours two environment variables so the full
// 48-record MIT-BIH-scale sweep can be reproduced when CPU time allows:
//   CSECG_RECORDS  — records to evaluate (default 8, max 48)
//   CSECG_WINDOWS  — analysis windows per record (default 1)
#pragma once

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "csecg/coding/delta.hpp"
#include "csecg/coding/zero_run_codec.hpp"
#include "csecg/core/frontend.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/ecg/record.hpp"

namespace csecg::bench {

/// The positive integer in environment variable `name`, clamped to
/// `max_value`, or `fallback` when unset.  Any other value prints one line
/// to stderr and exits 1, so a mistyped budget never runs the default.
inline std::size_t env_or(const char* name, std::size_t fallback,
                          std::size_t max_value) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const char* end = value + std::strlen(value);
  std::size_t parsed = 0;
  const auto [stop, error] = std::from_chars(value, end, parsed);
  if (error == std::errc::result_out_of_range) parsed = max_value;
  if (stop != end || error == std::errc::invalid_argument || parsed < 1) {
    std::fprintf(stderr, "%s=\"%s\": expected a positive integer\n", name,
                 value);
    std::exit(1);
  }
  return std::min(parsed, max_value);
}

inline std::size_t records_budget() { return env_or("CSECG_RECORDS", 8, 48); }
inline std::size_t windows_budget() { return env_or("CSECG_WINDOWS", 1, 64); }

/// For the benches that train the low-resolution codec and evaluate it on
/// records it has not seen: records [0, train_records) train, and the
/// eval_count records after them are held out.  Training takes the
/// CSECG_RECORDS budget but always leaves at least one record of the
/// database to hold out; evaluation takes up to 8 of the rest.
struct HeldOutSplit {
  std::size_t train_records;
  std::size_t eval_count;
};

inline HeldOutSplit held_out_split(std::size_t database_size) {
  const std::size_t train = std::min(records_budget(), database_size - 1);
  return {train, std::min<std::size_t>(8, database_size - train)};
}

/// The database every bench evaluates on: 60-second surrogate records,
/// fixed seed 2015 so all benches and EXPERIMENTS.md agree.
inline const ecg::SyntheticDatabase& shared_database() {
  static const ecg::SyntheticDatabase database = [] {
    ecg::RecordConfig config;
    config.duration_seconds = 60.0;
    return ecg::SyntheticDatabase(config, 2015);
  }();
  return database;
}

/// The paper's Fig. 7 CR grid (percent).
inline const std::vector<double>& fig7_cr_grid() {
  static const std::vector<double> grid = {50.0, 56.0, 62.0, 69.0, 75.0,
                                           81.0, 88.0, 94.0, 97.0};
  return grid;
}

/// Fraction of decoded windows whose solve converged.
inline double converged_fraction(
    const std::vector<core::RecordReport>& reports) {
  std::size_t converged = 0;
  std::size_t windows = 0;
  for (const auto& r : reports) {
    converged += r.converged_windows;
    windows += r.windows.size();
  }
  return windows == 0 ? 0.0
                      : static_cast<double>(converged) /
                            static_cast<double>(windows);
}

/// One design point decoded in both modes over the first records of
/// shared_database().
struct DesignPoint {
  core::FrontEndConfig config;
  std::vector<core::RecordReport> hybrid;
  std::vector<core::RecordReport> normal;

  /// The reports of `mode` (kHybrid or kNormalCs).
  const std::vector<core::RecordReport>& reports(core::DecodeMode mode) const {
    return mode == core::DecodeMode::kHybrid ? hybrid : normal;
  }
};

/// Decodes `records` × `windows` of shared_database() at every config in
/// hybrid and in normal-CS mode, one codec per config and each (config,
/// mode) point once.  Figures, headline search and ablations read it.
inline std::vector<DesignPoint> sweep(
    const std::vector<core::FrontEndConfig>& configs,
    const coding::DeltaHuffmanCodec& lowres_codec, std::size_t records,
    std::size_t windows) {
  const auto& database = shared_database();
  std::vector<DesignPoint> points;
  points.reserve(configs.size());
  for (const auto& config : configs) {
    const core::Codec codec(config, lowres_codec);
    points.push_back(
        {config,
         core::run_database(codec, database, records, windows,
                            core::DecodeMode::kHybrid),
         core::run_database(codec, database, records, windows,
                            core::DecodeMode::kNormalCs)});
  }
  return points;
}

/// One side-channel depth decoded in hybrid mode.
struct DepthPoint {
  int bits;
  std::vector<core::RecordReport> hybrid;
};

/// Decodes `records` × `windows` of shared_database() in hybrid mode at
/// `measurements` channels and every side-channel depth from 3 to 10 bits,
/// each depth with the codebook core::train_lowres_codec trains for it.
/// The depth ablation reads it.
inline std::vector<DepthPoint> depth_sweep(std::size_t measurements,
                                           std::size_t records,
                                           std::size_t windows) {
  const auto& database = shared_database();
  std::vector<DepthPoint> points;
  for (int bits = 3; bits <= 10; ++bits) {
    core::FrontEndConfig config;
    config.measurements = measurements;
    config.lowres_bits = bits;
    const core::Codec codec(config,
                            core::train_lowres_codec(config, database));
    points.push_back({bits, core::run_database(codec, database, records,
                                               windows,
                                               core::DecodeMode::kHybrid)});
  }
  return points;
}

/// `base` at each channel count of `ms`, in order.
inline std::vector<core::FrontEndConfig> at_measurements(
    const core::FrontEndConfig& base, const std::vector<std::size_t>& ms) {
  std::vector<core::FrontEndConfig> configs(ms.size(), base);
  for (std::size_t i = 0; i < ms.size(); ++i) configs[i].measurements = ms[i];
  return configs;
}

/// The §VI channel-count grid that the headline min-m search walks.
inline const std::vector<std::size_t>& headline_m_grid() {
  static const std::vector<std::size_t> grid = {
      16, 24, 32, 48, 64, 96, 128, 160, 192, 240, 288, 352, 448, 512};
  return grid;
}

/// Walks `points` in order and returns the first whose averaged SNR in
/// `mode` reaches `target_db`; the last point if none does.  On a sweep
/// over headline_m_grid() that is the §VI min-m search, with m = 512 as
/// the fallback.  `points` must not be empty.
inline const DesignPoint& min_m(const std::vector<DesignPoint>& points,
                                double target_db, core::DecodeMode mode) {
  const auto found = std::find_if(
      points.begin(), points.end(), [&](const DesignPoint& point) {
        return core::averaged_snr(point.reports(mode)) >= target_db;
      });
  return found == points.end() ? points.back() : *found;
}

/// Counts of delta values, in value order.
using DeltaCounts = std::map<std::int64_t, std::uint64_t>;

/// Shannon entropy of `counts` in bits/sample.
inline double entropy_bits(const DeltaCounts& counts) {
  return coding::entropy_bits({counts.begin(), counts.end()});
}

/// One quantization depth of the §II side channel: its scalar and zero-run
/// delta-Huffman codecs trained offline, the training corpus's deltas, and
/// the codecs' cost summed over the held-out windows.
struct LowResDepth {
  int bits;
  coding::DeltaHuffmanCodec scalar;
  coding::ZeroRunDeltaCodec zero_run;
  DeltaCounts train_deltas;
  double scalar_bits = 0.0;
  double zero_run_bits = 0.0;
  double raw_bits = 0.0;
  double samples = 0.0;
  DeltaCounts eval_deltas = {};
};

/// Trains both codecs at every depth from 3 to 10 bits on `windows`
/// windows of shared_database() records [0, train_records) and evaluates
/// them on the eval_records records after those.  Fig. 4, Fig. 5, Fig. 6,
/// Table I and the coder ablation all read it.
inline std::vector<LowResDepth> lowres_sweep(std::size_t train_records,
                                             std::size_t eval_records,
                                             std::size_t windows) {
  const auto& database = shared_database();
  std::vector<LowResDepth> depths;
  for (int bits = 3; bits <= 10; ++bits) {
    core::FrontEndConfig config;
    config.lowres_bits = bits;
    sensing::LowResConfig lowres_config;
    lowres_config.bits = bits;
    const sensing::LowResChannel channel(lowres_config);
    const auto record_codes = [&](std::size_t r) {
      std::vector<std::vector<std::int64_t>> codes;
      for (const auto& window : ecg::extract_windows(
               database.record(r), config.window, windows)) {
        codes.push_back(channel.sample(window).codes);
      }
      return codes;
    };
    const auto count_deltas = [](const std::vector<std::int64_t>& codes,
                                 DeltaCounts& counts) {
      for (auto diff : coding::delta_encode(codes).diffs) ++counts[diff];
    };

    std::vector<std::vector<std::int64_t>> corpus;
    DeltaCounts train_deltas;
    for (std::size_t r = 0; r < train_records; ++r) {
      for (auto& codes : record_codes(r)) {
        count_deltas(codes, train_deltas);
        corpus.push_back(std::move(codes));
      }
    }
    // The scalar codebook comes from the call every core::Codec is built
    // with, so the figures price the codebook the codec ships.
    LowResDepth depth{
        bits,
        core::train_lowres_codec(config, database, train_records, windows),
        coding::ZeroRunDeltaCodec::train(corpus, bits),
        std::move(train_deltas)};
    for (std::size_t r = train_records; r < train_records + eval_records;
         ++r) {
      for (const auto& codes : record_codes(r)) {
        depth.scalar_bits +=
            static_cast<double>(depth.scalar.encoded_bits(codes));
        depth.zero_run_bits +=
            static_cast<double>(depth.zero_run.encoded_bits(codes));
        depth.raw_bits += static_cast<double>(codes.size()) * bits;
        depth.samples += static_cast<double>(codes.size());
        count_deltas(codes, depth.eval_deltas);
      }
    }
    depths.push_back(std::move(depth));
  }
  return depths;
}

/// Prints the bench banner.  `records` × `windows` is the workload the
/// bench actually runs, after its own caps and floors on the
/// CSECG_RECORDS / CSECG_WINDOWS budget; 0 records marks a bench that
/// evaluates models only.
inline void print_header(const char* experiment, const char* paper_ref,
                         std::size_t records, std::size_t windows) {
  std::printf("# %s\n", experiment);
  std::printf("# reproduces: %s\n", paper_ref);
  if (records == 0) {
    std::printf("# workload: analytical models, no records\n");
  } else {
    std::printf("# workload: %zu records x %zu windows\n", records, windows);
  }
}

}  // namespace csecg::bench
