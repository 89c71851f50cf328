#include "csecg/link/session.hpp"

#include <utility>

#include "csecg/common/check.hpp"
#include "csecg/obs/json.hpp"
#include "csecg/obs/registry.hpp"
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

  obs::TraceScope window_trace("link.window", "link", nullptr,
                               "sequence",
                               static_cast<std::uint64_t>(sequence));
  const core::Frame frame = encoder_.encode(window);
  const auto window_seq = static_cast<std::uint16_t>(sequence & 0xFFFFu);
  obs::TraceScope packetize_scope("link.packetize", "link", &packetize_hist);
  const auto packets = packetizer_.packetize(frame, window_seq);
  packetize_scope.stop();

  WindowResult out;
  Channel channel(link_.channel, channel_seed(sequence));
  obs::TraceScope transmit_scope("link.transmit", "link", &transmit_hist,
                                 "packets",
                                 static_cast<std::uint64_t>(packets.size()));
  const auto delivered =
      transmit_packets(packets, channel, link_.arq, out.stats);
  transmit_scope.stop();
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
  LinkRecordReport report;
  report.stats.resize(window_count);
  report.energy_j.resize(window_count);
  // Per-window channel substreams keep the loss pattern, and hence the
  // report, identical for any pool size.
  static_cast<core::RecordQuality&>(report) = core::run_windows(
      record, session.config().window, window_count,
      [&](std::size_t w, const linalg::Vector& window,
          core::WindowMetrics& m) {
        WindowResult result = session.transmit_window(
            window, base_sequence + static_cast<std::uint32_t>(w));
        if (!result.decoded.lowres_only) m.record_solve(result.decoded.solver);
        m.m_eff = result.decoded.effective_m;
        report.stats[w] = result.stats;
        report.energy_j[w] = result.energy.total();
        return std::move(result.decoded.x);
      },
      pool);

  double energy_sum = 0.0;
  std::size_t sent = 0;
  std::size_t delivered = 0;
  for (std::size_t w = 0; w < window_count; ++w) {
    energy_sum += report.energy_j[w];
    sent += report.stats[w].packets;
    delivered += report.stats[w].delivered;
    report.retransmissions += report.stats[w].retransmissions;
  }
  report.mean_energy_j = energy_sum / static_cast<double>(window_count);
  report.delivery_rate =
      sent == 0 ? 1.0
                : static_cast<double>(delivered) / static_cast<double>(sent);
  report.lowres_only_windows = window_count - report.solved_windows;
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
  return pool.parallel_map<LinkRecordReport>(
      record_count, [&](std::size_t r) {
        const auto base = static_cast<std::uint32_t>(r * windows_per_record);
        return run_link_record(session, database.record(r),
                               windows_per_record, base, pool);
      });
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
    core::append_ledger_rows(
        out, seq, report, session.decoder(),
        {.kind = "link_window", .decode_mode = "lossy", .m_eff = true},
        [&report](std::string& row, std::size_t w) {
          const LinkStats& s = report.stats[w];
          row += ",\"packets\":";
          obs::append_json_u64(row, static_cast<std::uint64_t>(s.packets));
          row += ",\"delivered\":";
          obs::append_json_u64(row, static_cast<std::uint64_t>(s.delivered));
          row += ",\"dropped\":";
          obs::append_json_u64(row, static_cast<std::uint64_t>(s.dropped));
          row += ",\"retransmissions\":";
          obs::append_json_u64(row,
                               static_cast<std::uint64_t>(s.retransmissions));
          row += ",\"crc_failures\":";
          obs::append_json_u64(row,
                               static_cast<std::uint64_t>(s.crc_failures));
          row += ",\"data_bits\":";
          obs::append_json_u64(row, static_cast<std::uint64_t>(s.data_bits));
          row += ",\"feedback_bits\":";
          obs::append_json_u64(row,
                               static_cast<std::uint64_t>(s.feedback_bits));
          row += ",\"boxed_samples\":";
          obs::append_json_u64(row,
                               static_cast<std::uint64_t>(s.boxed_samples));
          row += ",\"energy_j\":";
          obs::append_json_double(row, report.energy_j[w]);
        });
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
