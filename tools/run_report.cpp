// run_report: one-command observability report for a front-end run.
//
// Runs a synthetic-database experiment (optionally traced), then prints a
// human-readable report: the
// per-record table, the worst-N windows by SNR, the MAD-flagged outliers
// and the headline pipeline counters.  On request it also drops the raw
// artifacts next to the report:
//
//   --records N      records to run (default 4)
//   --windows N      windows per record (default 6)
//   --worst N        worst windows to list (default 5)
//   --link           run the lossy-link pipeline instead of the clean codec
//   --ledger FILE    write the per-window quality ledger (JSONL)
//   --trace FILE     enable tracing and write Chrome trace-event JSON
//                    (open in ui.perfetto.dev or chrome://tracing)
//   --snapshot FILE  write the obs counters/histograms snapshot JSON
//
// The ledger rows contain only deterministic fields, so two runs with
// different CSECG_THREADS settings produce byte-identical --ledger output.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "csecg/core/runner.hpp"
#include "csecg/link/session.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/obs/trace.hpp"

namespace {

using namespace csecg;

struct Options {
  std::size_t records = 4;
  std::size_t windows = 6;
  std::size_t worst = 5;
  bool link = false;
  const char* ledger_path = nullptr;
  const char* trace_path = nullptr;
  const char* snapshot_path = nullptr;
};

[[noreturn]] void usage_error(const char* message) {
  std::fprintf(stderr,
               "run_report: %s\n"
               "usage: run_report [--records N] [--windows N] [--worst N] "
               "[--link] [--ledger FILE] [--trace FILE] [--snapshot FILE]\n",
               message);
  std::exit(1);
}

std::size_t parse_count(const char* text, const char* flag) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < 1) {
    std::fprintf(stderr, "run_report: %s expects a positive integer, got '%s'\n",
                 flag, text);
    std::exit(1);
  }
  return static_cast<std::size_t>(value);
}

Options parse_options(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (std::strcmp(arg, "--records") == 0 && has_value) {
      opts.records = parse_count(argv[++i], arg);
    } else if (std::strcmp(arg, "--windows") == 0 && has_value) {
      opts.windows = parse_count(argv[++i], arg);
    } else if (std::strcmp(arg, "--worst") == 0 && has_value) {
      opts.worst = parse_count(argv[++i], arg);
    } else if (std::strcmp(arg, "--link") == 0) {
      opts.link = true;
    } else if (std::strcmp(arg, "--ledger") == 0 && has_value) {
      opts.ledger_path = argv[++i];
    } else if (std::strcmp(arg, "--trace") == 0 && has_value) {
      opts.trace_path = argv[++i];
    } else if (std::strcmp(arg, "--snapshot") == 0 && has_value) {
      opts.snapshot_path = argv[++i];
    } else {
      usage_error(arg);
    }
  }
  return opts;
}

bool write_file(const char* path, const std::string& text) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "run_report: cannot write %s\n", path);
    return false;
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return true;
}

/// A window flattened out of its record report, for the worst-N ranking.
struct RankedWindow {
  std::string record;
  std::size_t window = 0;
  const core::WindowMetrics* metrics = nullptr;
  bool outlier = false;
};

/// Prints the per-record table — record, SNR, PRD, the path's own `cost`
/// columns (headed `cost_header`), converged/solved and outlier count —
/// then the worst-N windows by SNR across all records.
template <typename Report, typename Cost>
void print_records(const std::vector<Report>& reports, const char* cost_header,
                   Cost cost, std::size_t worst) {
  std::printf("  %-10s %9s %9s %s %6s %9s\n", "record", "snr(dB)", "prd(%)",
              cost_header, "conv", "outliers");
  std::vector<RankedWindow> ranked;
  for (const Report& r : reports) {
    std::printf("  %-10s %9.2f %9.2f ", r.record_name.c_str(), r.mean_snr,
                r.mean_prd);
    cost(r);
    std::printf(" %3zu/%zu %9zu\n", r.converged_windows, r.solved_windows,
                r.outlier_windows.size());
    std::size_t next_outlier = 0;
    for (std::size_t w = 0; w < r.windows.size(); ++w) {
      const bool outlier = next_outlier < r.outlier_windows.size() &&
                           r.outlier_windows[next_outlier] == w;
      if (outlier) ++next_outlier;
      ranked.push_back({r.record_name, w, &r.windows[w], outlier});
    }
  }

  std::sort(ranked.begin(), ranked.end(),
            [](const RankedWindow& a, const RankedWindow& b) {
              if (a.metrics->snr != b.metrics->snr) {
                return a.metrics->snr < b.metrics->snr;
              }
              if (a.record != b.record) return a.record < b.record;
              return a.window < b.window;
            });
  const std::size_t n = std::min(worst, ranked.size());
  std::printf("\nworst %zu windows by SNR:\n", n);
  std::printf("  %-10s %6s %9s %9s %6s %5s %-9s %s\n", "record", "win",
              "snr(dB)", "prd(%)", "iters", "conv", "exit", "flag");
  for (std::size_t i = 0; i < n; ++i) {
    const RankedWindow& w = ranked[i];
    const core::WindowMetrics& m = *w.metrics;
    std::printf("  %-10s %6zu %9.2f %9.2f %6d %5s %-9s %s\n",
                w.record.c_str(), w.window, m.snr, m.prd, m.iterations,
                m.converged ? "yes" : "NO",
                m.solved ? recovery::exit_name(m.exit) : "none",
                w.outlier ? "OUTLIER" : "");
  }
}

/// Runs the clean codec, prints its report and returns its ledger.
std::string run_clean(const Options& opts) {
  ecg::RecordConfig record_config;
  record_config.duration_seconds = 30.0;
  const ecg::SyntheticDatabase database(record_config, 2015);

  core::FrontEndConfig config;
  config.window = 256;
  config.measurements = 48;
  config.wavelet_levels = 4;
  const auto lowres_codec = core::train_lowres_codec(config, database, 3, 3);
  const core::Codec codec(config, lowres_codec);

  const auto reports = core::run_database(codec, database, opts.records,
                                          opts.windows, core::DecodeMode::kAuto);

  std::printf("clean-codec run: %zu records x %zu windows (n=%zu, m=%zu)\n\n",
              opts.records, opts.windows, config.window, config.measurements);
  print_records(
      reports, "  netCR%",
      [](const core::RecordReport& r) {
        std::printf("%8.1f", r.net_cr_percent);
      },
      opts.worst);
  return core::to_jsonl(reports, codec.decoder(), core::DecodeMode::kAuto);
}

/// Runs the lossy link, prints its report and returns its ledger.
std::string run_link(const Options& opts) {
  ecg::RecordConfig record_config;
  record_config.duration_seconds = 30.0;
  const ecg::SyntheticDatabase database(record_config, 2015);

  core::FrontEndConfig config;
  config.window = 256;
  config.measurements = 48;
  config.wavelet_levels = 4;
  const auto lowres_codec = core::train_lowres_codec(config, database, 3, 3);

  // The telemetry_link example's ~5% burst-loss channel with selective
  // repeat — the configuration whose outliers are worth staring at.
  link::LinkSessionConfig link;
  link.channel.kind = link::ChannelKind::kGilbertElliott;
  link.channel.ge_good_to_bad = 0.02;
  link.channel.ge_bad_to_good = 0.20;
  link.channel.ge_erasure_bad = 0.55;
  link.arq.mode = link::ArqMode::kSelectiveRepeat;
  link.arq.max_retries = 4;
  const link::LinkSession session(config, lowres_codec, link);

  const auto reports = link::run_link_database(session, database, opts.records,
                                               opts.windows);

  std::printf(
      "lossy-link run: %zu records x %zu windows (n=%zu, m=%zu, ~5%% loss)\n\n",
      opts.records, opts.windows, config.window, config.measurements);
  print_records(
      reports, " delivery   retx",
      [](const link::LinkRecordReport& r) {
        std::printf("%8.1f%% %6zu", r.delivery_rate * 100.0,
                    r.retransmissions);
      },
      opts.worst);
  return link::to_jsonl(reports, session);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse_options(argc, argv);

  // Tracing only when asked (it costs a per-thread ring buffer).
  if (opts.trace_path != nullptr) obs::set_trace_enabled(true);

  std::string ledger;
  try {
    ledger = opts.link ? run_link(opts) : run_clean(opts);
  } catch (const std::invalid_argument& e) {
    // Counts the database or its records cannot satisfy.
    std::fprintf(stderr, "run_report: %s\n", e.what());
    return 1;
  }

  // Headline counters, straight from the registry the run fed.
  std::printf("\npipeline counters:\n");
  for (const char* name :
       {"runner.windows", "runner.non_converged_windows", "link.windows",
        "link.packets", "link.dropped_packets", "link.arq.retransmissions",
        "solver.pdhg.solves", "solver.pdhg.iterations",
        "trace.dropped_events"}) {
    const std::uint64_t value = obs::counter(name).value();
    if (value > 0) std::printf("  %-28s %12llu\n", name,
                               static_cast<unsigned long long>(value));
  }

  if (opts.ledger_path != nullptr && write_file(opts.ledger_path, ledger)) {
    std::printf("\nwrote %s (%zu rows)\n", opts.ledger_path,
                static_cast<std::size_t>(
                    std::count(ledger.begin(), ledger.end(), '\n')));
  }
  if (opts.trace_path != nullptr &&
      write_file(opts.trace_path, obs::trace_json())) {
    std::printf("wrote %s (%zu events — open in ui.perfetto.dev)\n",
                opts.trace_path, obs::trace_event_count());
  }
  if (opts.snapshot_path != nullptr &&
      write_file(opts.snapshot_path, obs::snapshot_json())) {
    std::printf("wrote %s\n", opts.snapshot_path);
  }
  return 0;
}
