// Experiment runner: streams records through a codec and aggregates the
// paper's metrics (PRD/SNR per window, CR and side-channel overhead per
// record).  The Fig. 7/8 benches and the examples are thin wrappers over
// these calls.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "csecg/core/frontend.hpp"
#include "csecg/ecg/record.hpp"
#include "csecg/parallel/thread_pool.hpp"

namespace csecg::core {

/// Quality/cost metrics of one decoded window.
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
  std::size_t cs_bits = 0;
  std::size_t lowres_bits = 0;
  bool converged = false;
  /// Why the solve stopped.
  recovery::PdhgExit exit = recovery::PdhgExit::kCapChange;
  int iterations = 0;
  double ball_violation = 0.0;   ///< max(0, ‖Φx−y‖−σ) at solver exit.
  std::uint64_t encode_ns = 0;   ///< Encode wall time (0 if obs disabled).
  std::uint64_t decode_ns = 0;   ///< Decode wall time (0 if obs disabled).
};

/// Aggregate over one record.
///
/// The convergence block exists because mean_prd/mean_snr alone cannot be
/// trusted: a window whose solver hit the iteration cap still contributes
/// its (possibly garbage) PRD to the mean.  Consumers should treat any
/// report with non_converged_windows > 0 as suspect and inspect the
/// per-window `converged` flags (the counters also surface globally under
/// `runner.*` in obs::snapshot_json()).
struct RecordReport {
  std::string record_name;
  std::vector<WindowMetrics> windows;
  double mean_prd = 0.0;
  double mean_snr = 0.0;
  double cs_cr_percent = 0.0;       ///< CS-channel CR (config-determined).
  double overhead_percent = 0.0;    ///< Measured side-channel overhead Dᵢ.
  double net_cr_percent = 0.0;      ///< cs_cr − overhead.
  // --- Solver convergence (ISSUE 3) ---------------------------------------
  std::size_t converged_windows = 0;
  std::size_t non_converged_windows = 0;  ///< Hit the iteration cap.
  std::uint64_t total_solver_iterations = 0;
  int max_solver_iterations = 0;          ///< Worst window.
  double max_ball_violation = 0.0;        ///< Worst residual excess at exit.
  // --- Per-stage wall time (zero when obs::set_enabled(false)) ------------
  double encode_seconds = 0.0;
  double decode_seconds = 0.0;
  // --- Quality-outlier flagging (ISSUE 4) ----------------------------------
  /// Indices of windows whose SNR fell below the robust (MAD-based) lower
  /// fence `median − 3.5·1.4826·MAD` over this record's windows.  Empty for
  /// clean records; the same indices are marked `"outlier":true` in the
  /// to_jsonl() rows.
  std::vector<std::size_t> outlier_windows;
  /// The SNR fence (dB) the flags above were cut at.
  double outlier_snr_threshold_db = 0.0;
};

/// Encodes/decodes `window_count` windows of one record, decoding windows
/// concurrently on the given pool.  Every window's metrics are written
/// into a pre-sized slot and the aggregates are reduced in window order,
/// so the report is bit-identical for any thread count.  Throws
/// std::invalid_argument if the record is too short.
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

/// The per-window quality ledger of `reports`, decoded by `decoder` in
/// `mode`: one JSONL row per window, newline-terminated, in report order.
/// A row's `seq` is the window's position across all `reports` (record r,
/// window w of a run_database result gets r·windows_per_record + w).  Rows
/// carry only deterministic facts — no wall-clock times — so the ledger of
/// a run is byte-identical for any thread count.
std::string to_jsonl(const std::vector<RecordReport>& reports,
                     const Decoder& decoder, DecodeMode mode);

/// Mean of per-record mean SNRs (the paper's "averaged SNR over records").
double averaged_snr(const std::vector<RecordReport>& reports);

/// Mean of per-record mean PRDs.
double averaged_prd(const std::vector<RecordReport>& reports);

/// Per-record mean SNRs, in record order (Fig. 8 box-plot samples).
std::vector<double> per_record_snr(const std::vector<RecordReport>& reports);

}  // namespace csecg::core
