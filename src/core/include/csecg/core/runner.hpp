// Experiment runner: streams records through a codec and aggregates the
// paper's metrics (PRD/SNR per window, CR and side-channel overhead per
// record).  The Fig. 7/8 benches and the examples are thin wrappers over
// these calls.
//
// One loop serves every path: run_windows extracts a record's windows,
// runs a caller's per-window step on the pool and reduces the window
// records in order.  run_record's step is encode → decode; the lossy
// link's runner (csecg::link::run_link_record) passes one that sends the
// window across the link.  Both ledgers go through append_ledger_rows, so
// their shared keys cannot drift apart.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "csecg/core/frontend.hpp"
#include "csecg/ecg/record.hpp"
#include "csecg/parallel/thread_pool.hpp"

namespace csecg::core {

/// Quality and solve record of one decoded window — the one per-window
/// result, whether the window was decoded from its frame or crossed a
/// lossy link first.
///
/// Two PRD conventions are reported.  The headline `prd`/`snr` is the
/// zero-mean variant (reference energy excludes the ~1024-code ADC
/// baseline): it lands in the paper's 0–25 dB value range and makes the
/// high-CR collapse of normal CS visible, exactly as in Fig. 7.  The raw
/// variant (baseline included, the literal §IV formula) is also recorded;
/// it shifts both methods up by the same baseline-energy factor.
struct WindowMetrics {
  double prd = 0.0;       ///< Zero-mean PRD (%) — headline metric.
  double snr = 0.0;       ///< −20·log10(PRD/100) in dB.
  double prd_raw = 0.0;   ///< Raw-sample PRD (%).
  double snr_raw = 0.0;   ///< SNR from raw PRD.
  /// Frame payload bits of the clean codec (0 on the link, whose air
  /// bits are in its LinkStats).
  std::size_t cs_bits = 0;
  std::size_t lowres_bits = 0;
  std::size_t m_eff = 0;  ///< Measurements the solve ran on (m if clean).
  /// False only where a lossy link lost the whole CS train and the
  /// low-resolution staircase stood in; the solve fields are then unset.
  bool solved = false;
  bool converged = false;
  /// Why the solve stopped.
  recovery::PdhgExit exit = recovery::PdhgExit::kCapChange;
  int iterations = 0;
  double ball_violation = 0.0;   ///< max(0, ‖Φx−y‖−σ) at solver exit.

  /// Copies a solve's outcome into the solve fields and marks it solved.
  void record_solve(const recovery::PdhgResult& solver) noexcept {
    solved = true;
    converged = solver.converged;
    exit = solver.exit;
    iterations = solver.iterations;
    ball_violation = solver.ball_violation;
  }
};

/// What run_windows reduces for one record, on any path.
///
/// The convergence counts exist because mean_prd/mean_snr alone cannot be
/// trusted: a window whose solver hit the iteration cap still contributes
/// its (possibly garbage) PRD to the mean.  Consumers should treat any
/// report with non_converged_windows > 0 as suspect and inspect the
/// per-window `converged` flags (the counters also surface globally under
/// `runner.*` in obs::snapshot_json()).
struct RecordQuality {
  std::string record_name;
  std::vector<WindowMetrics> windows;
  double mean_prd = 0.0;
  double mean_snr = 0.0;
  /// Windows where a solve ran; converged + non_converged == solved.
  std::size_t solved_windows = 0;
  std::size_t converged_windows = 0;
  std::size_t non_converged_windows = 0;  ///< Hit the iteration cap.
  /// Indices of windows whose SNR fell below the robust (MAD-based) lower
  /// fence `median − 3.5·1.4826·MAD` over this record's windows.  Empty for
  /// clean records; the same indices are marked `"outlier":true` in the
  /// ledger rows.  On a lossy link they are usually the windows whose CS
  /// train took the worst losses.
  std::vector<std::size_t> outlier_windows;
  /// The SNR fence (dB) the flags above were cut at.
  double outlier_snr_threshold_db = 0.0;
};

/// A clean-codec record: the shared quality record plus the bit budget.
struct RecordReport : RecordQuality {
  double cs_cr_percent = 0.0;       ///< CS-channel CR (config-determined).
  double overhead_percent = 0.0;    ///< Measured side-channel overhead Dᵢ.
  double net_cr_percent = 0.0;      ///< cs_cr − overhead.
};

/// One window of a run: decodes raw window `w` (`window`, length n) its
/// own way, fills `m`'s solve, m_eff and bit fields, and returns the
/// reconstruction; run_windows fills the quality fields from it.
/// Called concurrently for different windows.
using WindowStep = std::function<linalg::Vector(
    std::size_t w, const linalg::Vector& window, WindowMetrics& m)>;

/// The one per-record loop: extracts `window_count` windows of
/// `window_length` samples from `record`, runs `step` on each on the pool
/// into a pre-sized slot, then reduces in window order (means, convergence
/// counts, MAD outlier fence), so the result is bit-identical for any
/// thread count.  Throws std::invalid_argument if the record is too short.
RecordQuality run_windows(const ecg::EcgRecord& record,
                          std::size_t window_length, std::size_t window_count,
                          const WindowStep& step, parallel::ThreadPool& pool);

/// Encodes/decodes `window_count` windows of one record, decoding windows
/// concurrently on the given pool (run_windows with an encode → decode
/// step).  Throws std::invalid_argument if the record is too short.
RecordReport run_record(const Codec& codec, const ecg::EcgRecord& record,
                        std::size_t window_count, DecodeMode mode,
                        parallel::ThreadPool& pool);

/// run_record on the process-wide pool (CSECG_THREADS controls its size).
RecordReport run_record(const Codec& codec, const ecg::EcgRecord& record,
                        std::size_t window_count,
                        DecodeMode mode = DecodeMode::kAuto);

/// Runs the first `record_count` database records, fanning records out
/// across the pool (window decodes inside each record then run inline).
/// Deterministic: reports land in pre-sized per-record slots, so the
/// result is bit-identical to the serial run.
std::vector<RecordReport> run_database(const Codec& codec,
                                       const ecg::SyntheticDatabase& database,
                                       std::size_t record_count,
                                       std::size_t windows_per_record,
                                       DecodeMode mode,
                                       parallel::ThreadPool& pool);

/// run_database on the process-wide pool.
std::vector<RecordReport> run_database(const Codec& codec,
                                       const ecg::SyntheticDatabase& database,
                                       std::size_t record_count,
                                       std::size_t windows_per_record,
                                       DecodeMode mode = DecodeMode::kAuto);

/// What distinguishes one path's ledger rows inside the shared key prefix.
struct LedgerFormat {
  const char* kind = "window";  ///< "window" (clean) or "link_window".
  /// decode_mode of solved rows; unsolved rows say "lowres_only".
  const char* decode_mode = "auto";
  bool m_eff = false;  ///< Rows carry m_eff after m.
};

/// Appends a path's own keys for window `w` to its ledger row.
using LedgerTail = std::function<void(std::string& row, std::size_t w)>;

/// Appends one quality-ledger JSONL row per window of `report` to `out`,
/// numbering them from `seq` (advanced past them).  Each row is the
/// shared prefix `kind, record, seq, window, m, [m_eff,] sigma, solver,
/// decode_mode, iterations, converged, exit, ball_violation, prd, snr`,
/// then `tail`'s keys, then `outlier`.  σ is decoder.sigma(m_eff), and 0
/// with exit "none" where no solve ran.  Rows carry only deterministic
/// facts — no wall-clock times — so a run's ledger is byte-identical for
/// any thread count.
void append_ledger_rows(std::string& out, std::uint64_t& seq,
                        const RecordQuality& report, const Decoder& decoder,
                        const LedgerFormat& format, const LedgerTail& tail);

/// The per-window quality ledger of `reports`, decoded by `decoder` in
/// `mode`: one JSONL row per window, newline-terminated, in report order
/// (see append_ledger_rows; the tail is prd_raw, snr_raw, cs_bits,
/// lowres_bits).  A row's `seq` is the window's position across all
/// `reports` (record r, window w of a run_database result gets
/// r·windows_per_record + w).
std::string to_jsonl(const std::vector<RecordReport>& reports,
                     const Decoder& decoder, DecodeMode mode);

/// Mean of per-record mean SNRs (the paper's "averaged SNR over records").
double averaged_snr(const std::vector<RecordReport>& reports);

/// Mean of per-record mean PRDs.
double averaged_prd(const std::vector<RecordReport>& reports);

/// Per-record mean SNRs, in record order (Fig. 8 box-plot samples).
std::vector<double> per_record_snr(const std::vector<RecordReport>& reports);

}  // namespace csecg::core
