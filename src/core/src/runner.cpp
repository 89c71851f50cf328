#include "csecg/core/runner.hpp"

#include <algorithm>

#include "csecg/common/check.hpp"
#include "csecg/metrics/quality.hpp"
#include "csecg/metrics/stats.hpp"
#include "csecg/obs/json.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/obs/trace.hpp"

namespace csecg::core {

namespace {

const char* decode_mode_name(DecodeMode mode) {
  switch (mode) {
    case DecodeMode::kHybrid:
      return "hybrid";
    case DecodeMode::kNormalCs:
      return "normal_cs";
    case DecodeMode::kAuto:
    default:
      return "auto";
  }
}

/// One quality-ledger JSONL row for a cleanly decoded window.  Every field
/// is deterministic (no wall-clock times — those live in the trace and the
/// histograms), which is what makes the ledger bit-identical across
/// CSECG_THREADS settings.
std::string ledger_row(const RecordReport& report, std::size_t w,
                       std::uint64_t seq, const Decoder& decoder,
                       DecodeMode mode, bool outlier) {
  const WindowMetrics& m = report.windows[w];
  const std::size_t measurements = decoder.config().measurements;
  std::string row;
  row.reserve(320);
  row += "{\"kind\":\"window\",\"record\":";
  obs::append_json_string(row, report.record_name);
  row += ",\"seq\":";
  obs::append_json_u64(row, seq);
  row += ",\"window\":";
  obs::append_json_u64(row, static_cast<std::uint64_t>(w));
  row += ",\"m\":";
  obs::append_json_u64(row, static_cast<std::uint64_t>(measurements));
  row += ",\"sigma\":";
  obs::append_json_double(row, decoder.sigma(measurements));
  row += ",\"solver\":\"pdhg\",\"decode_mode\":\"";
  row += decode_mode_name(mode);
  row += "\",\"iterations\":";
  obs::append_json_u64(row, static_cast<std::uint64_t>(
                                m.iterations < 0 ? 0 : m.iterations));
  row += ",\"converged\":";
  obs::append_json_bool(row, m.converged);
  row += ",\"exit\":\"";
  row += recovery::exit_name(m.exit);
  row += '"';
  row += ",\"ball_violation\":";
  obs::append_json_double(row, m.ball_violation);
  row += ",\"prd\":";
  obs::append_json_double(row, m.prd);
  row += ",\"snr\":";
  obs::append_json_double(row, m.snr);
  row += ",\"prd_raw\":";
  obs::append_json_double(row, m.prd_raw);
  row += ",\"snr_raw\":";
  obs::append_json_double(row, m.snr_raw);
  row += ",\"cs_bits\":";
  obs::append_json_u64(row, static_cast<std::uint64_t>(m.cs_bits));
  row += ",\"lowres_bits\":";
  obs::append_json_u64(row, static_cast<std::uint64_t>(m.lowres_bits));
  row += ",\"outlier\":";
  obs::append_json_bool(row, outlier);
  row += '}';
  return row;
}

}  // namespace

RecordReport run_record(const Codec& codec, const ecg::EcgRecord& record,
                        std::size_t window_count, DecodeMode mode,
                        parallel::ThreadPool& pool) {
  CSECG_CHECK(window_count > 0, "run_record: window_count must be positive");
  const FrontEndConfig& config = codec.config();
  const auto windows =
      ecg::extract_windows(record, config.window, window_count);

  RecordReport report;
  report.record_name = record.name;
  report.cs_cr_percent = config.cs_compression_ratio();

  // Each window encodes/decodes independently into its pre-sized slot;
  // the aggregation below then runs in window order, so the report is
  // bit-identical whatever the pool size.
  report.windows.resize(windows.size());
  pool.parallel_for(0, windows.size(), [&](std::size_t w) {
    obs::TraceScope window_trace("runner.window", "runner", "window",
                                 static_cast<std::uint64_t>(w));
    const linalg::Vector& window = windows[w];
    const bool timed = obs::enabled();
    const std::uint64_t t0 = timed ? obs::monotonic_ns() : 0;
    const Frame frame = codec.encoder().encode(window);
    const std::uint64_t t1 = timed ? obs::monotonic_ns() : 0;
    const DecodeResult decoded = codec.decoder().decode(frame, mode);
    const std::uint64_t t2 = timed ? obs::monotonic_ns() : 0;

    WindowMetrics m;
    m.prd = metrics::prd_zero_mean(window, decoded.x);
    m.snr = metrics::snr_from_prd(m.prd);
    m.prd_raw = metrics::prd(window, decoded.x);
    m.snr_raw = metrics::snr_from_prd(m.prd_raw);
    m.cs_bits = frame.cs_bits();
    m.lowres_bits = frame.lowres_bits;
    m.converged = decoded.solver.converged;
    m.exit = decoded.solver.exit;
    m.iterations = decoded.solver.iterations;
    m.ball_violation = decoded.solver.ball_violation;
    m.encode_ns = t1 - t0;
    m.decode_ns = t2 - t1;
    report.windows[w] = m;
  });

  double prd_sum = 0.0;
  double snr_sum = 0.0;
  double lowres_bits_sum = 0.0;
  std::uint64_t encode_ns_sum = 0;
  std::uint64_t decode_ns_sum = 0;
  for (const auto& m : report.windows) {
    prd_sum += m.prd;
    snr_sum += m.snr;
    lowres_bits_sum += static_cast<double>(m.lowres_bits);
    if (m.converged) {
      ++report.converged_windows;
    } else {
      ++report.non_converged_windows;
    }
    report.total_solver_iterations +=
        static_cast<std::uint64_t>(m.iterations);
    report.max_solver_iterations =
        std::max(report.max_solver_iterations, m.iterations);
    report.max_ball_violation =
        std::max(report.max_ball_violation, m.ball_violation);
    encode_ns_sum += m.encode_ns;
    decode_ns_sum += m.decode_ns;
  }
  report.encode_seconds = static_cast<double>(encode_ns_sum) * 1e-9;
  report.decode_seconds = static_cast<double>(decode_ns_sum) * 1e-9;

  static obs::Counter& runner_windows = obs::counter("runner.windows");
  static obs::Counter& runner_non_converged =
      obs::counter("runner.non_converged_windows");
  static obs::Counter& runner_records = obs::counter("runner.records");
  runner_windows.add(report.windows.size());
  runner_non_converged.add(report.non_converged_windows);
  runner_records.add();

  const auto count = static_cast<double>(report.windows.size());
  report.mean_prd = prd_sum / count;
  report.mean_snr = snr_sum / count;
  const double original_bits_per_window =
      static_cast<double>(config.window) *
      static_cast<double>(config.original_bits);
  report.overhead_percent =
      lowres_bits_sum / count / original_bits_per_window * 100.0;
  report.net_cr_percent =
      metrics::net_compression_ratio(report.cs_cr_percent,
                                     report.overhead_percent);

  // Robust per-record quality fence: a window is an outlier when its SNR
  // drops below median − 3.5·1.4826·MAD over this record.  The fence and
  // flags depend only on the (deterministic) per-window metrics, so the
  // report is thread-count-invariant.
  std::vector<double> snrs(report.windows.size());
  for (std::size_t w = 0; w < report.windows.size(); ++w) {
    snrs[w] = report.windows[w].snr;
  }
  report.outlier_snr_threshold_db = metrics::mad_low_threshold(snrs);
  report.outlier_windows = metrics::mad_low_outliers(snrs);

  return report;
}

RecordReport run_record(const Codec& codec, const ecg::EcgRecord& record,
                        std::size_t window_count, DecodeMode mode) {
  return run_record(codec, record, window_count, mode,
                    parallel::global_pool());
}

std::vector<RecordReport> run_database(const Codec& codec,
                                       const ecg::SyntheticDatabase& database,
                                       std::size_t record_count,
                                       std::size_t windows_per_record,
                                       DecodeMode mode,
                                       parallel::ThreadPool& pool) {
  CSECG_CHECK(record_count > 0 && record_count <= database.size(),
              "run_database: record_count out of range");
  // Records fan out across the pool; the nested window loop inside
  // run_record detects it is already on a pool thread and runs inline.
  // Per-record slots keep the report order (and values) identical to the
  // serial run.
  std::vector<RecordReport> reports(record_count);
  pool.parallel_for(0, record_count, [&](std::size_t r) {
    reports[r] =
        run_record(codec, database.record(r), windows_per_record, mode, pool);
  });
  return reports;
}

std::vector<RecordReport> run_database(const Codec& codec,
                                       const ecg::SyntheticDatabase& database,
                                       std::size_t record_count,
                                       std::size_t windows_per_record,
                                       DecodeMode mode) {
  return run_database(codec, database, record_count, windows_per_record,
                      mode, parallel::global_pool());
}

std::string to_jsonl(const std::vector<RecordReport>& reports,
                     const Decoder& decoder, DecodeMode mode) {
  std::string out;
  std::uint64_t seq = 0;
  for (const RecordReport& report : reports) {
    std::size_t next_outlier = 0;
    for (std::size_t w = 0; w < report.windows.size(); ++w, ++seq) {
      const bool outlier = next_outlier < report.outlier_windows.size() &&
                           report.outlier_windows[next_outlier] == w;
      if (outlier) ++next_outlier;
      out += ledger_row(report, w, seq, decoder, mode, outlier);
      out += '\n';
    }
  }
  return out;
}

double averaged_snr(const std::vector<RecordReport>& reports) {
  CSECG_CHECK(!reports.empty(), "averaged_snr: no reports");
  double sum = 0.0;
  for (const auto& r : reports) sum += r.mean_snr;
  return sum / static_cast<double>(reports.size());
}

double averaged_prd(const std::vector<RecordReport>& reports) {
  CSECG_CHECK(!reports.empty(), "averaged_prd: no reports");
  double sum = 0.0;
  for (const auto& r : reports) sum += r.mean_prd;
  return sum / static_cast<double>(reports.size());
}

std::vector<double> per_record_snr(
    const std::vector<RecordReport>& reports) {
  std::vector<double> out;
  out.reserve(reports.size());
  for (const auto& r : reports) out.push_back(r.mean_snr);
  return out;
}

}  // namespace csecg::core
