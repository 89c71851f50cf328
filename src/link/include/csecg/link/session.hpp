// End-to-end telemetry session: the sensor's encoder, the link (packetizer
// → channel → ARQ → reassembly) and the receiver's loss-resilient decoder,
// wired into the parallel experiment runner.
//
// Determinism under threading: a Channel is stateful (RNG + Markov state),
// so the session never shares one across windows.  Each window draws its
// own Channel from a substream seed mixed (SplitMix64) from the configured
// channel seed, the stream id and the window's global sequence number —
// the loss pattern of window k is the same whatever thread decodes it and
// whatever order windows complete in, so parallel link experiments are
// bit-identical to serial runs.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "csecg/coding/delta_huffman_codec.hpp"
#include "csecg/core/config.hpp"
#include "csecg/core/frontend.hpp"
#include "csecg/core/runner.hpp"
#include "csecg/ecg/record.hpp"
#include "csecg/link/arq.hpp"
#include "csecg/link/channel.hpp"
#include "csecg/link/packetizer.hpp"
#include "csecg/parallel/thread_pool.hpp"
#include "csecg/power/models.hpp"
#include "csecg/power/node_energy.hpp"

namespace csecg::link {

/// Everything about the link below the frame layer.
struct LinkSessionConfig {
  PacketizerConfig packetizer;
  ChannelConfig channel;
  ArqConfig arq;
  /// Energy pricing of the node (analog model + radio constants).
  power::TechnologyParams tech;
  power::NodeEnergyParams node;
  /// Input Nyquist rate, for window duration (MIT-BIH format: 360 Hz).
  double nyquist_hz = 360.0;
};

/// Outcome of one window crossing the link.
struct WindowResult {
  core::LossyDecodeResult decoded;
  LinkStats stats;
  power::NodeEnergy energy;  ///< Analog + TX/RX radio + digital, priced
                             ///< from the bits the ARQ actually spent.
};

/// Owns a matched encoder/decoder pair plus the link between them.
class LinkSession {
 public:
  /// The codec is required iff the low-resolution channel is enabled;
  /// throws std::invalid_argument when the front-end has no measurement
  /// ADC (nothing to packetize) or the MTU cannot carry the frame fields.
  LinkSession(core::FrontEndConfig config,
              std::optional<coding::DeltaHuffmanCodec> lowres_codec,
              LinkSessionConfig link);

  const core::FrontEndConfig& config() const noexcept {
    return encoder_.config();
  }
  const LinkSessionConfig& link_config() const noexcept { return link_; }
  const core::Encoder& encoder() const noexcept { return encoder_; }
  const core::Decoder& decoder() const noexcept { return decoder_; }

  /// Deterministic per-window channel substream seed.
  std::uint64_t channel_seed(std::uint32_t sequence) const noexcept;

  /// encode → packetize → impair → ARQ → reassemble → decode_lossy for one
  /// raw window (length n, record-unit ADC codes).  `sequence` is the
  /// window's global index; it selects the channel substream and stamps
  /// the packets' window_seq (mod 2^16).  Never throws on link loss.
  /// Thread-safe: all shared state is read-only.
  WindowResult transmit_window(const linalg::Vector& window,
                               std::uint32_t sequence) const;

 private:
  core::Encoder encoder_;
  core::Decoder decoder_;
  LinkSessionConfig link_;
  Packetizer packetizer_;
  Reassembler reassembler_;
};

/// A record that crossed the link: the shared quality record plus, beside
/// each window, what the link spent on it, and the link aggregates.
struct LinkRecordReport : core::RecordQuality {
  std::vector<LinkStats> stats;  ///< Per window, parallel to `windows`.
  std::vector<double> energy_j;  ///< Whole-node energy per window.
  double delivery_rate = 1.0;   ///< Unique packets delivered / sent.
  double mean_energy_j = 0.0;
  std::size_t retransmissions = 0;
  std::size_t lowres_only_windows = 0;  ///< Windows where no solve ran.
};

/// Streams `window_count` windows of one record through the session: the
/// shared core::run_windows loop with a transmit_window step, so windows
/// decode concurrently on the pool and the report is bit-identical for any
/// thread count.  `base_sequence` offsets the windows' global sequence
/// numbers so different records draw disjoint channel substreams.
LinkRecordReport run_link_record(const LinkSession& session,
                                 const ecg::EcgRecord& record,
                                 std::size_t window_count,
                                 std::uint32_t base_sequence,
                                 parallel::ThreadPool& pool);

/// run_link_record on the process-wide pool.
LinkRecordReport run_link_record(const LinkSession& session,
                                 const ecg::EcgRecord& record,
                                 std::size_t window_count,
                                 std::uint32_t base_sequence = 0);

/// Runs the first `record_count` database records through the link,
/// fanning records across the pool; record r's windows use sequences
/// [r·windows_per_record, (r+1)·windows_per_record).
std::vector<LinkRecordReport> run_link_database(
    const LinkSession& session, const ecg::SyntheticDatabase& database,
    std::size_t record_count, std::size_t windows_per_record,
    parallel::ThreadPool& pool);

/// run_link_database on the process-wide pool.
std::vector<LinkRecordReport> run_link_database(
    const LinkSession& session, const ecg::SyntheticDatabase& database,
    std::size_t record_count, std::size_t windows_per_record);

/// The per-window quality ledger of `reports`, streamed through `session`:
/// one JSONL row per window, newline-terminated, in report order, with
/// `seq` the window's position across all `reports`.  Rows are
/// core::append_ledger_rows' shared prefix (kind "link_window", with
/// m_eff) and a tail of the window's LinkStats and energy_j.
std::string to_jsonl(const std::vector<LinkRecordReport>& reports,
                     const LinkSession& session);

/// Mean of per-record mean SNRs.
double averaged_link_snr(const std::vector<LinkRecordReport>& reports);

/// Mean of per-record mean per-window energies (joules).
double averaged_link_energy(const std::vector<LinkRecordReport>& reports);

}  // namespace csecg::link
