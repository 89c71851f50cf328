#include "csecg/link/session.hpp"

#include <algorithm>
#include <utility>

#include "csecg/common/check.hpp"
#include "csecg/metrics/quality.hpp"
#include "csecg/metrics/stats.hpp"
#include "csecg/obs/json.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/obs/span.hpp"
#include "csecg/obs/trace.hpp"
#include "csecg/rng/xoshiro.hpp"

namespace csecg::link {
namespace {

Packetizer make_packetizer(const core::Encoder& encoder,
                           const LinkSessionConfig& link,
                           const std::optional<coding::DeltaHuffmanCodec>&
                               lowres_codec) {
  CSECG_CHECK(encoder.measurement_adc().has_value(),
              "LinkSession: the front-end needs a measurement ADC "
              "(measurement_adc_bits > 0) to packetize frames");
  return Packetizer(link.packetizer, *encoder.measurement_adc(),
                    lowres_codec);
}

Reassembler make_reassembler(const core::Encoder& encoder,
                             const LinkSessionConfig& link,
                             const std::optional<coding::DeltaHuffmanCodec>&
                                 lowres_codec) {
  const core::FrontEndConfig& config = encoder.config();
  return Reassembler(config.measurements, config.window,
                     *encoder.measurement_adc(), lowres_codec,
                     link.packetizer.stream_id);
}

power::NodeEnergy price_window(const core::FrontEndConfig& config,
                               const LinkSessionConfig& link,
                               const LinkStats& stats) {
  power::RmpiDesign cs_path;
  cs_path.channels = config.measurements;
  cs_path.window = config.window;
  cs_path.adc_bits = config.measurement_adc_bits;
  cs_path.nyquist_hz = link.nyquist_hz;
  const double window_seconds =
      static_cast<double>(config.window) / link.nyquist_hz;
  if (config.lowres_bits > 0) {
    power::HybridDesign design;
    design.cs_path = cs_path;
    design.lowres_bits = config.lowres_bits;
    return power::link_window_energy(design, link.tech, link.node,
                                     stats.data_bits, stats.feedback_bits,
                                     window_seconds);
  }
  return power::link_window_energy(cs_path, link.tech, link.node,
                                   stats.data_bits, stats.feedback_bits,
                                   window_seconds);
}

/// One quality-ledger JSONL row for a window that crossed the link.  Only
/// deterministic fields (the channel substream is seeded per sequence, so
/// loss accounting is deterministic too); wall-clock timing stays in the
/// trace and histograms.
std::string link_ledger_row(const LinkRecordReport& report, std::size_t w,
                            std::uint64_t seq, const core::Decoder& decoder,
                            bool outlier) {
  const LinkWindowMetrics& m = report.windows[w];
  const double sigma_eff =
      m.lowres_only ? 0.0 : decoder.sigma(m.stats.effective_m);
  std::string row;
  row.reserve(420);
  row += "{\"kind\":\"link_window\",\"record\":";
  obs::append_json_string(row, report.record_name);
  row += ",\"seq\":";
  obs::append_json_u64(row, seq);
  row += ",\"window\":";
  obs::append_json_u64(row, static_cast<std::uint64_t>(w));
  row += ",\"m\":";
  obs::append_json_u64(
      row, static_cast<std::uint64_t>(decoder.config().measurements));
  row += ",\"m_eff\":";
  obs::append_json_u64(row, static_cast<std::uint64_t>(m.stats.effective_m));
  row += ",\"sigma\":";
  obs::append_json_double(row, sigma_eff);
  row += ",\"solver\":\"pdhg\",\"decode_mode\":\"";
  row += m.lowres_only ? "lowres_only" : "lossy";
  row += "\",\"iterations\":";
  obs::append_json_u64(row, static_cast<std::uint64_t>(
                                m.iterations < 0 ? 0 : m.iterations));
  row += ",\"converged\":";
  obs::append_json_bool(row, m.converged);
  row += ",\"exit\":\"";
  row += m.lowres_only ? "none" : recovery::exit_name(m.exit);
  row += '"';
  row += ",\"ball_violation\":";
  obs::append_json_double(row, m.ball_violation);
  row += ",\"prd\":";
  obs::append_json_double(row, m.prd);
  row += ",\"snr\":";
  obs::append_json_double(row, m.snr);
  row += ",\"packets\":";
  obs::append_json_u64(row, static_cast<std::uint64_t>(m.stats.packets));
  row += ",\"delivered\":";
  obs::append_json_u64(row, static_cast<std::uint64_t>(m.stats.delivered));
  row += ",\"dropped\":";
  obs::append_json_u64(row, static_cast<std::uint64_t>(m.stats.dropped));
  row += ",\"retransmissions\":";
  obs::append_json_u64(row,
                       static_cast<std::uint64_t>(m.stats.retransmissions));
  row += ",\"crc_failures\":";
  obs::append_json_u64(row, static_cast<std::uint64_t>(m.stats.crc_failures));
  row += ",\"data_bits\":";
  obs::append_json_u64(row, static_cast<std::uint64_t>(m.stats.data_bits));
  row += ",\"feedback_bits\":";
  obs::append_json_u64(row, static_cast<std::uint64_t>(m.stats.feedback_bits));
  row += ",\"boxed_samples\":";
  obs::append_json_u64(row,
                       static_cast<std::uint64_t>(m.stats.boxed_samples));
  row += ",\"energy_j\":";
  obs::append_json_double(row, m.energy_j);
  row += ",\"outlier\":";
  obs::append_json_bool(row, outlier);
  row += '}';
  return row;
}

}  // namespace

LinkSession::LinkSession(core::FrontEndConfig config,
                         std::optional<coding::DeltaHuffmanCodec> lowres_codec,
                         LinkSessionConfig link)
    : encoder_(config, lowres_codec),
      decoder_(config, lowres_codec),
      link_(std::move(link)),
      packetizer_(make_packetizer(encoder_, link_, lowres_codec)),
      reassembler_(make_reassembler(encoder_, link_, lowres_codec)) {
  validate(link_.channel);
  validate(link_.arq);
  power::validate(link_.tech);
  power::validate(link_.node);
  CSECG_CHECK(link_.nyquist_hz > 0.0,
              "LinkSessionConfig: nyquist_hz must be positive");
}

std::uint64_t LinkSession::channel_seed(std::uint32_t sequence) const noexcept {
  // SplitMix64 substream derivation: mix the base seed first so nearby
  // configured seeds do not produce nearby substreams, then fold in the
  // stream identity and the window sequence.
  std::uint64_t state = link_.channel.seed;
  state = rng::splitmix64(state);
  state ^= (static_cast<std::uint64_t>(link_.packetizer.stream_id) << 32) ^
           static_cast<std::uint64_t>(sequence);
  return rng::splitmix64(state);
}

WindowResult LinkSession::transmit_window(const linalg::Vector& window,
                                          std::uint32_t sequence) const {
  static obs::Histogram& packetize_hist =
      obs::histogram("link.packetize_ns");
  static obs::Histogram& transmit_hist = obs::histogram("link.transmit_ns");
  static obs::Counter& link_windows = obs::counter("link.windows");
  static obs::Counter& link_packets = obs::counter("link.packets");
  static obs::Counter& link_dropped = obs::counter("link.dropped_packets");
  static obs::Counter& link_retransmissions =
      obs::counter("link.arq.retransmissions");
  static obs::Counter& link_crc_failures = obs::counter("link.crc_failures");

  obs::TraceScope window_trace("link.window", "link", "sequence",
                               static_cast<std::uint64_t>(sequence));
  const core::Frame frame = encoder_.encode(window);
  const auto window_seq = static_cast<std::uint16_t>(sequence & 0xFFFFu);
  obs::Span packetize_span(packetize_hist);
  obs::TraceScope packetize_trace("link.packetize", "link");
  const auto packets = packetizer_.packetize(frame, window_seq);
  packetize_trace.stop();
  packetize_span.stop();

  WindowResult out;
  Channel channel(link_.channel, channel_seed(sequence));
  obs::Span transmit_span(transmit_hist);
  obs::TraceScope transmit_trace("link.transmit", "link", "packets",
                                 static_cast<std::uint64_t>(packets.size()));
  const auto delivered =
      transmit_packets(packets, channel, link_.arq, out.stats);
  transmit_trace.stop();
  transmit_span.stop();
  const ReassemblyResult reassembled =
      reassembler_.reassemble(window_seq, delivered);

  out.decoded = decoder_.decode_lossy(reassembled.window);
  out.stats.effective_m = out.decoded.effective_m;
  out.stats.boxed_samples = out.decoded.boxed_samples;
  out.energy = price_window(encoder_.config(), link_, out.stats);

  link_windows.add();
  link_packets.add(out.stats.packets);
  link_dropped.add(out.stats.dropped);
  link_retransmissions.add(out.stats.retransmissions);
  link_crc_failures.add(out.stats.crc_failures);
  return out;
}

LinkRecordReport run_link_record(const LinkSession& session,
                                 const ecg::EcgRecord& record,
                                 std::size_t window_count,
                                 std::uint32_t base_sequence,
                                 parallel::ThreadPool& pool) {
  CSECG_CHECK(window_count > 0,
              "run_link_record: window_count must be positive");
  const core::FrontEndConfig& config = session.config();
  const auto windows =
      ecg::extract_windows(record, config.window, window_count);

  LinkRecordReport report;
  report.record_name = record.name;

  // Pre-sized slots + per-window channel substreams: the loss pattern and
  // hence the report are identical for any pool size (see run_record).
  report.windows.resize(windows.size());
  pool.parallel_for(0, windows.size(), [&](std::size_t w) {
    const bool timed = obs::enabled();
    const std::uint64_t t0 = timed ? obs::monotonic_ns() : 0;
    const WindowResult result = session.transmit_window(
        windows[w], base_sequence + static_cast<std::uint32_t>(w));
    const std::uint64_t t1 = timed ? obs::monotonic_ns() : 0;

    LinkWindowMetrics m;
    m.prd = metrics::prd_zero_mean(windows[w], result.decoded.x);
    m.snr = metrics::snr_from_prd(m.prd);
    m.stats = result.stats;
    m.energy_j = result.energy.total();
    m.lowres_only = result.decoded.lowres_only;
    m.converged = result.decoded.solver.converged;
    m.exit = result.decoded.solver.exit;
    m.iterations = result.decoded.solver.iterations;
    m.ball_violation = result.decoded.solver.ball_violation;
    m.window_ns = t1 - t0;
    report.windows[w] = m;
  });

  double prd_sum = 0.0;
  double snr_sum = 0.0;
  double energy_sum = 0.0;
  std::uint64_t window_ns_sum = 0;
  std::size_t sent = 0;
  std::size_t delivered = 0;
  for (const auto& m : report.windows) {
    prd_sum += m.prd;
    snr_sum += m.snr;
    energy_sum += m.energy_j;
    sent += m.stats.packets;
    delivered += m.stats.delivered;
    report.retransmissions += m.stats.retransmissions;
    window_ns_sum += m.window_ns;
    if (m.lowres_only) {
      // No solver ran: the decoder emitted the low-res staircase.
      ++report.lowres_only_windows;
    } else {
      ++report.solved_windows;
      if (m.converged) {
        ++report.converged_windows;
      } else {
        ++report.non_converged_windows;
      }
      report.total_solver_iterations +=
          static_cast<std::uint64_t>(m.iterations);
      report.max_ball_violation =
          std::max(report.max_ball_violation, m.ball_violation);
    }
  }
  const auto count = static_cast<double>(report.windows.size());
  report.mean_prd = prd_sum / count;
  report.mean_snr = snr_sum / count;
  report.mean_energy_j = energy_sum / count;
  report.window_seconds = static_cast<double>(window_ns_sum) * 1e-9;
  report.delivery_rate =
      sent == 0 ? 1.0
                : static_cast<double>(delivered) / static_cast<double>(sent);

  // Same robust fence as core::run_record; on a lossy link the flagged
  // windows are usually the ones whose CS train took the worst losses.
  std::vector<double> snrs(report.windows.size());
  for (std::size_t w = 0; w < report.windows.size(); ++w) {
    snrs[w] = report.windows[w].snr;
  }
  report.outlier_snr_threshold_db = metrics::mad_low_threshold(snrs);
  report.outlier_windows = metrics::mad_low_outliers(snrs);

  return report;
}

LinkRecordReport run_link_record(const LinkSession& session,
                                 const ecg::EcgRecord& record,
                                 std::size_t window_count,
                                 std::uint32_t base_sequence) {
  return run_link_record(session, record, window_count, base_sequence,
                         parallel::global_pool());
}

std::vector<LinkRecordReport> run_link_database(
    const LinkSession& session, const ecg::SyntheticDatabase& database,
    std::size_t record_count, std::size_t windows_per_record,
    parallel::ThreadPool& pool) {
  CSECG_CHECK(record_count > 0 && record_count <= database.size(),
              "run_link_database: record_count out of range");
  std::vector<LinkRecordReport> reports(record_count);
  pool.parallel_for(0, record_count, [&](std::size_t r) {
    const auto base = static_cast<std::uint32_t>(r * windows_per_record);
    reports[r] = run_link_record(session, database.record(r),
                                 windows_per_record, base, pool);
  });
  return reports;
}

std::vector<LinkRecordReport> run_link_database(
    const LinkSession& session, const ecg::SyntheticDatabase& database,
    std::size_t record_count, std::size_t windows_per_record) {
  return run_link_database(session, database, record_count,
                           windows_per_record, parallel::global_pool());
}

std::string to_jsonl(const std::vector<LinkRecordReport>& reports,
                     const LinkSession& session) {
  std::string out;
  std::uint64_t seq = 0;
  for (const LinkRecordReport& report : reports) {
    std::size_t next_outlier = 0;
    for (std::size_t w = 0; w < report.windows.size(); ++w, ++seq) {
      const bool outlier = next_outlier < report.outlier_windows.size() &&
                           report.outlier_windows[next_outlier] == w;
      if (outlier) ++next_outlier;
      out += link_ledger_row(report, w, seq, session.decoder(), outlier);
      out += '\n';
    }
  }
  return out;
}

double averaged_link_snr(const std::vector<LinkRecordReport>& reports) {
  CSECG_CHECK(!reports.empty(), "averaged_link_snr: no reports");
  double sum = 0.0;
  for (const auto& r : reports) sum += r.mean_snr;
  return sum / static_cast<double>(reports.size());
}

double averaged_link_energy(const std::vector<LinkRecordReport>& reports) {
  CSECG_CHECK(!reports.empty(), "averaged_link_energy: no reports");
  double sum = 0.0;
  for (const auto& r : reports) sum += r.mean_energy_j;
  return sum / static_cast<double>(reports.size());
}

}  // namespace csecg::link
