#include "csecg/core/runner.hpp"

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

}  // namespace

RecordQuality run_windows(const ecg::EcgRecord& record,
                          std::size_t window_length, std::size_t window_count,
                          const WindowStep& step, parallel::ThreadPool& pool) {
  const auto windows =
      ecg::extract_windows(record, window_length, window_count);

  RecordQuality report;
  report.record_name = record.name;

  // Each window decodes independently into its pre-sized slot; the
  // reduction below then runs in window order, so the report is
  // bit-identical whatever the pool size.
  report.windows.resize(windows.size());
  pool.parallel_for(0, windows.size(), [&](std::size_t w) {
    obs::TraceScope window_trace("runner.window", "runner", nullptr,
                                 "window", static_cast<std::uint64_t>(w));
    WindowMetrics m;
    const linalg::Vector x = step(w, windows[w], m);
    m.prd = metrics::prd_zero_mean(windows[w], x);
    m.snr = metrics::snr_from_prd(m.prd);
    m.prd_raw = metrics::prd(windows[w], x);
    m.snr_raw = metrics::snr_from_prd(m.prd_raw);
    report.windows[w] = m;
  });

  double prd_sum = 0.0;
  double snr_sum = 0.0;
  std::vector<double> snrs;
  snrs.reserve(report.windows.size());
  for (const auto& m : report.windows) {
    prd_sum += m.prd;
    snr_sum += m.snr;
    snrs.push_back(m.snr);
    if (!m.solved) continue;  // Low-res staircase: no solver ran.
    ++report.solved_windows;
    ++(m.converged ? report.converged_windows : report.non_converged_windows);
  }
  const auto count = static_cast<double>(report.windows.size());
  report.mean_prd = prd_sum / count;
  report.mean_snr = snr_sum / count;

  // Robust per-record quality fence: a window is an outlier when its SNR
  // drops below median − 3.5·1.4826·MAD over this record.  The fence and
  // flags depend only on the (deterministic) per-window metrics, so the
  // report is thread-count-invariant.
  report.outlier_snr_threshold_db = metrics::mad_low_threshold(snrs);
  report.outlier_windows = metrics::mad_low_outliers(snrs);

  static obs::Counter& runner_windows = obs::counter("runner.windows");
  static obs::Counter& runner_non_converged =
      obs::counter("runner.non_converged_windows");
  static obs::Counter& runner_records = obs::counter("runner.records");
  runner_windows.add(report.windows.size());
  runner_non_converged.add(report.non_converged_windows);
  runner_records.add();
  return report;
}

RecordReport run_record(const Codec& codec, const ecg::EcgRecord& record,
                        std::size_t window_count, DecodeMode mode,
                        parallel::ThreadPool& pool) {
  const FrontEndConfig& config = codec.config();
  RecordReport report;
  static_cast<RecordQuality&>(report) = run_windows(
      record, config.window, window_count,
      [&](std::size_t, const linalg::Vector& window, WindowMetrics& m) {
        const Frame frame = codec.encoder().encode(window);
        DecodeResult decoded = codec.decoder().decode(frame, mode);
        m.cs_bits = frame.cs_bits();
        m.lowres_bits = frame.lowres_bits;
        m.m_eff = config.measurements;
        m.record_solve(decoded.solver);
        return std::move(decoded.x);
      },
      pool);

  double lowres_bits_sum = 0.0;
  for (const auto& m : report.windows) {
    lowres_bits_sum += static_cast<double>(m.lowres_bits);
  }
  const double original_bits_per_window =
      static_cast<double>(config.window) *
      static_cast<double>(config.original_bits);
  report.cs_cr_percent = config.cs_compression_ratio();
  report.overhead_percent = lowres_bits_sum /
                            static_cast<double>(report.windows.size()) /
                            original_bits_per_window * 100.0;
  report.net_cr_percent =
      metrics::net_compression_ratio(report.cs_cr_percent,
                                     report.overhead_percent);
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
  return pool.parallel_map<RecordReport>(record_count, [&](std::size_t r) {
    return run_record(codec, database.record(r), windows_per_record, mode,
                      pool);
  });
}

std::vector<RecordReport> run_database(const Codec& codec,
                                       const ecg::SyntheticDatabase& database,
                                       std::size_t record_count,
                                       std::size_t windows_per_record,
                                       DecodeMode mode) {
  return run_database(codec, database, record_count, windows_per_record,
                      mode, parallel::global_pool());
}

void append_ledger_rows(std::string& out, std::uint64_t& seq,
                        const RecordQuality& report, const Decoder& decoder,
                        const LedgerFormat& format, const LedgerTail& tail) {
  std::size_t next_outlier = 0;
  for (std::size_t w = 0; w < report.windows.size(); ++w, ++seq) {
    const WindowMetrics& m = report.windows[w];
    const bool outlier = next_outlier < report.outlier_windows.size() &&
                         report.outlier_windows[next_outlier] == w;
    if (outlier) ++next_outlier;
    std::string row;
    row.reserve(420);
    row += "{\"kind\":\"";
    row += format.kind;
    row += "\",\"record\":";
    obs::append_json_string(row, report.record_name);
    row += ",\"seq\":";
    obs::append_json_u64(row, seq);
    row += ",\"window\":";
    obs::append_json_u64(row, static_cast<std::uint64_t>(w));
    row += ",\"m\":";
    obs::append_json_u64(
        row, static_cast<std::uint64_t>(decoder.config().measurements));
    if (format.m_eff) {
      row += ",\"m_eff\":";
      obs::append_json_u64(row, static_cast<std::uint64_t>(m.m_eff));
    }
    row += ",\"sigma\":";
    obs::append_json_double(row, m.solved ? decoder.sigma(m.m_eff) : 0.0);
    row += ",\"solver\":\"pdhg\",\"decode_mode\":\"";
    row += m.solved ? format.decode_mode : "lowres_only";
    row += "\",\"iterations\":";
    obs::append_json_u64(row, static_cast<std::uint64_t>(
                                  m.iterations < 0 ? 0 : m.iterations));
    row += ",\"converged\":";
    obs::append_json_bool(row, m.converged);
    row += ",\"exit\":\"";
    row += m.solved ? recovery::exit_name(m.exit) : "none";
    row += "\",\"ball_violation\":";
    obs::append_json_double(row, m.ball_violation);
    row += ",\"prd\":";
    obs::append_json_double(row, m.prd);
    row += ",\"snr\":";
    obs::append_json_double(row, m.snr);
    tail(row, w);
    row += ",\"outlier\":";
    obs::append_json_bool(row, outlier);
    row += "}\n";
    out += row;
  }
}

std::string to_jsonl(const std::vector<RecordReport>& reports,
                     const Decoder& decoder, DecodeMode mode) {
  std::string out;
  std::uint64_t seq = 0;
  for (const RecordReport& report : reports) {
    append_ledger_rows(
        out, seq, report, decoder,
        {.kind = "window", .decode_mode = decode_mode_name(mode)},
        [&report](std::string& row, std::size_t w) {
          const WindowMetrics& m = report.windows[w];
          row += ",\"prd_raw\":";
          obs::append_json_double(row, m.prd_raw);
          row += ",\"snr_raw\":";
          obs::append_json_double(row, m.snr_raw);
          row += ",\"cs_bits\":";
          obs::append_json_u64(row, static_cast<std::uint64_t>(m.cs_bits));
          row += ",\"lowres_bits\":";
          obs::append_json_u64(row,
                               static_cast<std::uint64_t>(m.lowres_bits));
        });
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
