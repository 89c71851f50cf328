// Solver convergence bench: what the PDHG stopping tolerance, the
// dual/primal step ratio and the relaxation ρ buy.
//
// For the hybrid config (m = 96 plus the 7-bit side channel) and the
// normal-CS config (m = 256, no side channel), every window is run through
// core::run_database at each point of three sweeps, each varying one
// setting with the others at their defaults: the x-change tolerance,
// dual_primal_ratio, and relaxation.  The default setting lies on all
// three sweeps and is decoded once.  Each window is decoded once more as
// the reference: plain CP (ρ = 1) with a 30000-iteration cap and a
// tolerance far below the sweep.  Per point it records mean and p95
// iterations, the converged fraction, the exit reasons, mean SNR, the
// mean |SNR − reference SNR| gap and ms per window: the point's wall time
// (encode and decode, records running concurrently on the thread pool) ×
// pool threads / windows.  Timings are reported, never gated.
//
// Window set: records [0, CSECG_RECORDS) × CSECG_WINDOWS windows of the
// seed-2015 database, default 16 × 4 — the decode benchmark's reference
// set.  Results land in BENCH_solver.json.  Exits 2 when, on either
// config, fewer than 95% of the windows converge at the default settings,
// or the default ratio or relaxation needs more than 1.25× the mean
// iterations of the best swept value.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "csecg/common/check.hpp"
#include "csecg/parallel/thread_pool.hpp"

namespace {

using namespace csecg;
using Clock = std::chrono::steady_clock;

constexpr int kReferenceIterations = 30000;
constexpr double kReferenceTol = 1e-8;
constexpr double kMinConvergedFrac = 0.95;
constexpr double kMaxIterationsOverBest = 1.25;
const std::vector<double> kTolerances = {1e-5, 3e-5, 5e-5, 1e-4};
const std::vector<double> kRatios = {1e-4, 2e-4, 4e-4, 8e-4, 1.6e-3, 1e-2};
const std::vector<double> kRelaxations = {1.0, 1.5, 1.8, 1.9, 1.95};
constexpr std::size_t kExitReasons = 4;

struct Row {
  double tol = 0.0;
  double ratio = 0.0;
  double relaxation = 0.0;
  int max_iterations = 0;
  double iterations_mean = 0.0;
  double iterations_p95 = 0.0;
  double converged_frac = 0.0;
  std::array<std::size_t, kExitReasons> exits{};
  double mean_snr_db = 0.0;
  double snr_gap_db = 0.0;  ///< Against the reference (0 for itself).
  double ms_per_window = 0.0;
  std::vector<double> snrs;
};

struct ConfigRun {
  std::string name;
  core::FrontEndConfig config;
  Row reference;
  std::vector<Row> tol_sweep;
  std::vector<Row> ratio_sweep;
  std::vector<Row> relax_sweep;
  /// Gate inputs: the default-settings row, and its mean iterations over
  /// the fewest of any swept ratio and of any swept relaxation.
  double converged_frac = 0.0;
  double iterations_over_best = 0.0;
  double relaxation_over_best = 0.0;
  bool pass = false;
};

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

/// Nearest-rank p95.
double p95(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(0.95 * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

Row decode_all(const core::FrontEndConfig& config,
               const std::optional<coding::DeltaHuffmanCodec>& lowres_codec,
               std::size_t records, std::size_t windows,
               parallel::ThreadPool& pool) {
  const core::Codec codec(config, lowres_codec);
  const auto start = Clock::now();
  const auto reports =
      core::run_database(codec, bench::shared_database(), records, windows,
                         core::DecodeMode::kAuto, pool);
  const double ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start)
          .count();
  Row row;
  row.tol = config.solver.tol;
  row.ratio = config.solver.dual_primal_ratio;
  row.relaxation = config.solver.relaxation;
  row.max_iterations = config.solver.max_iterations;
  std::vector<double> iterations;
  std::size_t converged = 0;
  for (const core::RecordReport& report : reports) {
    for (const core::WindowMetrics& m : report.windows) {
      iterations.push_back(m.iterations);
      row.snrs.push_back(m.snr);
      converged += m.converged;
      ++row.exits[static_cast<std::size_t>(m.exit)];
    }
  }
  const auto count = static_cast<double>(iterations.size());
  row.iterations_mean = mean(iterations);
  row.iterations_p95 = p95(iterations);
  row.converged_frac = static_cast<double>(converged) / count;
  row.mean_snr_db = mean(row.snrs);
  row.ms_per_window = ms * static_cast<double>(pool.threads()) / count;
  return row;
}

ConfigRun run_config(const std::string& name, core::FrontEndConfig config,
                     std::size_t records, std::size_t windows,
                     parallel::ThreadPool& pool) {
  std::optional<coding::DeltaHuffmanCodec> lowres_codec;
  if (config.lowres_bits > 0) {
    lowres_codec =
        core::train_lowres_codec(config, bench::shared_database());
  }

  ConfigRun run;
  run.name = name;
  run.config = config;
  core::FrontEndConfig reference = config;
  reference.solver.max_iterations = kReferenceIterations;
  reference.solver.tol = kReferenceTol;
  reference.solver.relaxation = 1.0;
  run.reference = decode_all(reference, lowres_codec, records, windows, pool);
  // Each distinct (tol, ratio, relaxation) decodes once; the default
  // setting is a point of all three sweeps.
  std::map<std::array<double, 3>, Row> decoded;
  const auto decode_at = [&](double tol, double ratio, double relaxation) {
    const std::array<double, 3> key = {tol, ratio, relaxation};
    auto found = decoded.find(key);
    if (found == decoded.end()) {
      core::FrontEndConfig swept = config;
      swept.solver.tol = tol;
      swept.solver.dual_primal_ratio = ratio;
      swept.solver.relaxation = relaxation;
      Row row = decode_all(swept, lowres_codec, records, windows, pool);
      std::vector<double> gaps;
      for (std::size_t i = 0; i < row.snrs.size(); ++i) {
        gaps.push_back(std::fabs(row.snrs[i] - run.reference.snrs[i]));
      }
      row.snr_gap_db = mean(gaps);
      found = decoded.emplace(key, std::move(row)).first;
    }
    return found->second;
  };
  const recovery::PdhgOptions& defaults = config.solver;
  for (const double tol : kTolerances) {
    run.tol_sweep.push_back(
        decode_at(tol, defaults.dual_primal_ratio, defaults.relaxation));
  }
  for (const double ratio : kRatios) {
    run.ratio_sweep.push_back(
        decode_at(defaults.tol, ratio, defaults.relaxation));
  }
  for (const double relaxation : kRelaxations) {
    run.relax_sweep.push_back(
        decode_at(defaults.tol, defaults.dual_primal_ratio, relaxation));
  }

  const auto at_default = std::find_if(
      run.tol_sweep.begin(), run.tol_sweep.end(),
      [&](const Row& row) { return row.tol == config.solver.tol; });
  CSECG_CHECK(at_default != run.tol_sweep.end(),
              "bench_solver: the default tol must be one of kTolerances");
  const auto over_best = [&](const std::vector<Row>& sweep) {
    double best = at_default->iterations_mean;
    for (const Row& row : sweep) best = std::min(best, row.iterations_mean);
    return at_default->iterations_mean / best;
  };
  run.converged_frac = at_default->converged_frac;
  run.iterations_over_best = over_best(run.ratio_sweep);
  run.relaxation_over_best = over_best(run.relax_sweep);
  run.pass = run.converged_frac >= kMinConvergedFrac &&
             run.iterations_over_best <= kMaxIterationsOverBest &&
             run.relaxation_over_best <= kMaxIterationsOverBest;
  return run;
}

void print_row(const char* config, const Row& row) {
  std::printf("%s,%g,%g,%g,%d,%.1f,%.0f,%.3f,%.3f,%.4f,%.2f\n", config,
              row.tol, row.ratio, row.relaxation, row.max_iterations,
              row.iterations_mean, row.iterations_p95, row.converged_frac,
              row.mean_snr_db, row.snr_gap_db, row.ms_per_window);
}

void write_row(std::FILE* json, const Row& row, const char* indent) {
  std::fprintf(json,
               "%s{\"tol\": %g, \"dual_primal_ratio\": %g, "
               "\"relaxation\": %g, \"max_iterations\": %d, "
               "\"iterations_mean\": %.2f, \"iterations_p95\": %.0f, "
               "\"converged_frac\": %.4f, \"exit\": {",
               indent, row.tol, row.ratio, row.relaxation, row.max_iterations,
               row.iterations_mean, row.iterations_p95, row.converged_frac);
  for (std::size_t e = 0; e < kExitReasons; ++e) {
    std::fprintf(json, "\"%s\": %zu%s",
                 recovery::exit_name(static_cast<recovery::PdhgExit>(e)),
                 row.exits[e], e + 1 < kExitReasons ? ", " : "");
  }
  std::fprintf(json,
               "}, \"mean_snr_db\": %.4f, \"snr_gap_db\": %.4f, "
               "\"ms_per_window\": %.3f}",
               row.mean_snr_db, row.snr_gap_db, row.ms_per_window);
}

void write_sweep(std::FILE* json, const char* name,
                 const std::vector<Row>& rows) {
  std::fprintf(json, ",\n      \"%s\": [\n", name);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    write_row(json, rows[i], "        ");
    std::fprintf(json, "%s\n", i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "      ]");
}

}  // namespace

int main() {
  const std::size_t records = bench::env_or("CSECG_RECORDS", 16, 48);
  const std::size_t windows_per_record = bench::env_or("CSECG_WINDOWS", 4, 64);
  std::printf("# bench_solver\n");
  std::printf("# PDHG tolerance, dual/primal ratio and relaxation sweeps "
              "vs a %d-iteration reference\n",
              kReferenceIterations);
  std::printf("# workload: %zu records x %zu windows (CSECG_RECORDS / "
              "CSECG_WINDOWS to rescale)\n",
              records, windows_per_record);

  const core::FrontEndConfig defaults;
  parallel::ThreadPool pool;

  core::FrontEndConfig normal = defaults;
  normal.measurements = 256;
  normal.lowres_bits = 0;
  std::vector<ConfigRun> runs;
  runs.push_back(
      run_config("hybrid", defaults, records, windows_per_record, pool));
  runs.push_back(
      run_config("normal_cs", normal, records, windows_per_record, pool));

  std::printf("config,tol,dual_primal_ratio,relaxation,max_iterations,"
              "iterations_mean,iterations_p95,converged_frac,mean_snr_db,"
              "snr_gap_db,ms_per_window\n");
  bool pass = true;
  for (const ConfigRun& run : runs) {
    print_row(run.name.c_str(), run.reference);
    for (const Row& row : run.tol_sweep) print_row(run.name.c_str(), row);
    for (const Row& row : run.ratio_sweep) print_row(run.name.c_str(), row);
    for (const Row& row : run.relax_sweep) print_row(run.name.c_str(), row);
    pass = pass && run.pass;
  }
  for (const ConfigRun& run : runs) {
    std::printf("# %s at the default tol %g, ratio %g, relaxation %g: "
                "converged %.3f (bar: >= %.2f), mean iterations %.2fx the "
                "best swept ratio's and %.2fx the best swept relaxation's "
                "(bar: <= %.2f)\n",
                run.name.c_str(), defaults.solver.tol,
                defaults.solver.dual_primal_ratio, defaults.solver.relaxation,
                run.converged_frac, kMinConvergedFrac,
                run.iterations_over_best, run.relaxation_over_best,
                kMaxIterationsOverBest);
  }

  std::FILE* json = std::fopen("BENCH_solver.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_solver.json\n");
    return 1;
  }
  std::fprintf(json, "{\n  \"bench\": \"solver\",\n");
  std::fprintf(json,
               "  \"workload\": {\"records\": %zu, \"windows_per_record\": "
               "%zu, \"database_seed\": 2015, \"threads\": %zu},\n",
               records, windows_per_record, pool.threads());
  std::fprintf(json,
               "  \"default_tol\": %g,\n  \"default_dual_primal_ratio\": %g,\n"
               "  \"default_relaxation\": %g,\n"
               "  \"min_converged_frac\": %.2f,\n"
               "  \"max_iterations_over_best\": %.2f,\n",
               defaults.solver.tol, defaults.solver.dual_primal_ratio,
               defaults.solver.relaxation, kMinConvergedFrac,
               kMaxIterationsOverBest);
  std::fprintf(json, "  \"configs\": [\n");
  for (std::size_t c = 0; c < runs.size(); ++c) {
    const ConfigRun& run = runs[c];
    std::fprintf(json,
                 "    {\"name\": \"%s\", \"measurements\": %zu, "
                 "\"lowres_bits\": %d, \"converged_frac_at_default\": %.4f, "
                 "\"iterations_over_best\": %.3f, "
                 "\"relaxation_over_best\": %.3f, \"pass\": %s,\n"
                 "      \"reference\": ",
                 run.name.c_str(), run.config.measurements,
                 run.config.lowres_bits, run.converged_frac,
                 run.iterations_over_best, run.relaxation_over_best,
                 run.pass ? "true" : "false");
    write_row(json, run.reference, "");
    write_sweep(json, "tol_sweep", run.tol_sweep);
    write_sweep(json, "ratio_sweep", run.ratio_sweep);
    write_sweep(json, "relax_sweep", run.relax_sweep);
    std::fprintf(json, "}%s\n", c + 1 < runs.size() ? "," : "");
  }
  std::fprintf(json, "  ],\n  \"pass\": %s\n}\n", pass ? "true" : "false");
  std::fclose(json);
  std::printf("# wrote BENCH_solver.json\n");
  return pass ? 0 : 2;
}
