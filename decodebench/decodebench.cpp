// decodebench — the csecg decode benchmark.
//
// Drives the public API the way a receiver does: a closed loop of
// P = min(nproc, 4) workers on one parallel::ThreadPool, each taking the
// next window of a fixed window set as soon as its previous window is done.
// The set is records 0..15 × 4 windows of the seed's SyntheticDatabase; the
// loop cycles through it for the measured time.  Workloads (README.md says
// why each exists):
//   hybrid_ref   m = 96, 7-bit side channel: Encoder::encode → Decoder::decode
//   normal_cr50  m = 256, no side channel: the same chain, plain CS
//   lossy_link   m = 96 through link::LinkSession::transmit_window at 10%
//                i.i.d. packet erasure, no ARQ
//
// The last stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}: end-to-end metrics with --trace 0, per-layer metrics from a
// traced run with --trace 1.  Every run also decodes the first pass of the
// window set on a 1-worker pool; if any P-worker output differs from it bit
// for bit (traced lossy_link: if the recomposed link pipeline differs from
// transmit_window), or any output is non-finite or of the wrong length, the
// run prints "correct": false with no metrics and exits 1.
//
// Usage:
//   decodebench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//               [--spans FILE] [--reference-dir DIR] [--commit ID]
//   decodebench --workload NAME --write-reference --reference-dir DIR
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "csecg/coding/delta_huffman_codec.hpp"
#include "csecg/core/config.hpp"
#include "csecg/core/frontend.hpp"
#include "csecg/dsp/dwt.hpp"
#include "csecg/ecg/record.hpp"
#include "csecg/linalg/matrix.hpp"
#include "csecg/linalg/operator.hpp"
#include "csecg/linalg/solve.hpp"
#include "csecg/link/arq.hpp"
#include "csecg/link/channel.hpp"
#include "csecg/link/packetizer.hpp"
#include "csecg/link/session.hpp"
#include "csecg/metrics/quality.hpp"
#include "csecg/parallel/thread_pool.hpp"
#include "csecg/rng/xoshiro.hpp"
#include "csecg/sensing/rmpi.hpp"

namespace {

using namespace csecg;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kDefaultSeed = 2015;
constexpr std::size_t kRecords = 16;
constexpr std::size_t kWindowsPerRecord = 4;
/// Every window is decoded at least this often in a measured loop, so each
/// has a median latency and the windows beyond p95 hold over ten samples.
constexpr std::size_t kMinRepeats = 4;
constexpr int kSetupRepeats = 8;
constexpr int kReferenceIterations = 30000;
constexpr std::size_t kMaxWorkers = 4;
#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "gcc " __VERSION__;
#endif

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

/// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

/// Latency percentile over the distinct windows of each window's median
/// latency across its repeats.  A window's work is the same on every repeat,
/// so the median strips the repeats a burst of host contention slowed, and
/// the percentile is one of the program's work, not of the scheduler's.
/// `window_of[i]` is the distinct window sample i decoded.
double window_quantile(const std::vector<double>& samples,
                       const std::vector<std::size_t>& window_of,
                       std::size_t distinct, double q) {
  std::vector<std::vector<double>> repeats(distinct);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    repeats[window_of[i]].push_back(samples[i]);
  }
  std::vector<double> medians;
  for (const auto& r : repeats) {
    if (!r.empty()) medians.push_back(median(r));
  }
  return quantile(medians, q);
}

// ---------------------------------------------------------------------------
// Workloads and set-up.

enum class Path { kCodec, kLink };

struct Workload {
  std::string name;
  Path path = Path::kCodec;
  core::FrontEndConfig config;
  link::LinkSessionConfig link;  ///< Read on Path::kLink only.
};

/// The seed draws the database and the channel substreams; it changes no
/// other property of the workload.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "hybrid_ref") return w;
  if (name == "normal_cr50") {
    w.config.measurements = 256;
    w.config.lowres_bits = 0;
    return w;
  }
  if (name == "lossy_link") {
    w.path = Path::kLink;
    w.link.channel.kind = link::ChannelKind::kPacketErasure;
    w.link.channel.erasure_rate = 0.10;
    w.link.arq.mode = link::ArqMode::kNone;
    std::uint64_t state = seed;
    w.link.channel.seed = rng::splitmix64(state);
    return w;
  }
  return std::nullopt;
}

/// What set-up builds: the database, the window set and the front-end
/// objects under test.
struct Bench {
  std::unique_ptr<ecg::SyntheticDatabase> database;
  std::vector<linalg::Vector> windows;
  std::optional<coding::DeltaHuffmanCodec> lowres_codec;
  std::optional<core::Codec> codec;          ///< Path::kCodec.
  std::optional<link::LinkSession> session;  ///< Path::kLink.

  const core::Encoder& encoder() const {
    return codec ? codec->encoder() : session->encoder();
  }
  const core::Decoder& decoder() const {
    return codec ? codec->decoder() : session->decoder();
  }
};

struct SetupTimes {
  double synthesis_s = 0.0;  ///< Record synthesis and window extraction.
  double construct_s = 0.0;  ///< Codec / LinkSession construction.
  double total_s = 0.0;      ///< Both, plus side-channel codebook training.
};

SetupTimes build(const Workload& w, std::uint64_t seed, Bench& bench) {
  const core::FrontEndConfig& config = w.config;
  const auto t0 = Clock::now();
  bench.database = std::make_unique<ecg::SyntheticDatabase>(
      ecg::RecordConfig{}, seed);
  bench.windows.clear();
  for (std::size_t r = 0; r < kRecords; ++r) {
    for (auto& window : ecg::extract_windows(bench.database->record(r),
                                             config.window,
                                             kWindowsPerRecord)) {
      bench.windows.push_back(std::move(window));
    }
  }
  const auto t1 = Clock::now();
  bench.lowres_codec.reset();
  if (config.lowres_bits > 0) {
    bench.lowres_codec = core::train_lowres_codec(config, *bench.database);
  }
  const auto t2 = Clock::now();
  bench.codec.reset();
  bench.session.reset();
  if (w.path == Path::kCodec) {
    bench.codec.emplace(config, bench.lowres_codec);
  } else {
    bench.session.emplace(config, bench.lowres_codec, w.link);
  }
  const auto t3 = Clock::now();
  return {seconds_between(t0, t1), seconds_between(t2, t3),
          seconds_between(t0, t3)};
}

// ---------------------------------------------------------------------------
// One window.

struct Outcome {
  linalg::Vector x;
  bool ok = false;  ///< No exception, length n, every sample finite.
  std::string error;
  double snr_db = 0.0;
  bool solved = false;  ///< A PDHG solve ran (not the low-res-only path).
  int iterations = 0;
  bool converged = false;
  double ball_violation = 0.0;
  double box_violation = 0.0;
  link::LinkStats stats;  ///< Path::kLink only.
  bool lowres_only = false;
  double energy_uj = 0.0;  ///< transmit_window only.
};

void take_solver(Outcome& out, const recovery::PdhgResult& solver) {
  out.iterations = solver.iterations;
  out.converged = solver.converged;
  out.ball_violation = solver.ball_violation;
  out.box_violation = solver.box_violation;
}

/// The public call chain a caller runs per window.
Outcome run_window(const Bench& bench, std::size_t seq) {
  const linalg::Vector& window = bench.windows[seq % bench.windows.size()];
  Outcome out;
  if (bench.codec) {
    const core::Frame frame = bench.codec->encoder().encode(window);
    core::DecodeResult result = bench.codec->decoder().decode(frame);
    out.x = std::move(result.x);
    out.solved = true;
    take_solver(out, result.solver);
  } else {
    link::WindowResult result = bench.session->transmit_window(
        window, static_cast<std::uint32_t>(seq));
    out.x = std::move(result.decoded.x);
    out.lowres_only = result.decoded.lowres_only;
    out.solved = !out.lowres_only;
    take_solver(out, result.decoded.solver);
    out.stats = result.stats;
    out.energy_uj = result.energy.total() * 1e6;
  }
  return out;
}

/// In-memory span log of one worker.  Spans of one window share its
/// sequence number as id; `parent` indexes the same log (-1 for a root).
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::int64_t parent = -1;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class SpanLog {
 public:
  SpanLog() { spans_.reserve(16384); }
  std::int64_t open(const char* name, std::uint64_t id, std::int64_t parent) {
    spans_.push_back({name, id, parent, now_ns(), 0});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void close(std::int64_t index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  }
  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// The link pipeline transmit_window runs, rebuilt from public parts so
/// each stage gets its own span.
struct LinkParts {
  link::Packetizer packetizer;
  link::Reassembler reassembler;
};

LinkParts make_link_parts(const Workload& w, const Bench& bench) {
  const sensing::Quantizer& adc = *bench.encoder().measurement_adc();
  return {link::Packetizer(w.link.packetizer, adc, bench.lowres_codec),
          link::Reassembler(w.config.measurements, w.config.window, adc,
                            bench.lowres_codec, w.link.packetizer.stream_id)};
}

/// run_window with a span around every public call.  The side-channel
/// payload is decoded once more on its own (a replay: the decoder does the
/// same work internally) so the coding layer has a time.
Outcome run_window_traced(const Workload& w, const Bench& bench,
                          const LinkParts* parts, std::size_t seq,
                          SpanLog& log) {
  const linalg::Vector& window = bench.windows[seq % bench.windows.size()];
  const std::int64_t root = log.open("window", seq, -1);
  std::int64_t span = log.open("core.encode", seq, root);
  const core::Frame frame = bench.encoder().encode(window);
  log.close(span);
  if (!frame.lowres_payload.empty()) {
    span = log.open("coding.lowres_decode", seq, root);
    const std::vector<std::int64_t> codes =
        bench.lowres_codec->decode(frame.lowres_payload, frame.window);
    log.close(span);
    if (codes.size() != frame.window) {
      throw std::runtime_error("side-channel replay decoded a short window");
    }
  }
  Outcome out;
  if (parts == nullptr) {
    span = log.open("core.decode", seq, root);
    core::DecodeResult result = bench.decoder().decode(frame);
    log.close(span);
    out.x = std::move(result.x);
    out.solved = true;
    take_solver(out, result.solver);
  } else {
    const auto window_seq = static_cast<std::uint16_t>(seq & 0xFFFFu);
    span = log.open("link.packetize", seq, root);
    const auto packets = parts->packetizer.packetize(frame, window_seq);
    log.close(span);
    span = log.open("link.transmit", seq, root);
    link::Channel channel(w.link.channel,
                          bench.session->channel_seed(
                              static_cast<std::uint32_t>(seq)));
    const auto delivered =
        link::transmit_packets(packets, channel, w.link.arq, out.stats);
    log.close(span);
    span = log.open("link.reassemble", seq, root);
    const link::ReassemblyResult reassembled =
        parts->reassembler.reassemble(window_seq, delivered);
    log.close(span);
    span = log.open("core.decode_lossy", seq, root);
    core::LossyDecodeResult decoded =
        bench.decoder().decode_lossy(reassembled.window);
    log.close(span);
    out.stats.effective_m = decoded.effective_m;
    out.stats.boxed_samples = decoded.boxed_samples;
    out.x = std::move(decoded.x);
    out.lowres_only = decoded.lowres_only;
    out.solved = !out.lowres_only;
    take_solver(out, decoded.solver);
  }
  log.close(root);
  return out;
}

/// Validates the output against its source window and scores it.
void finish(Outcome& out, const linalg::Vector& window) {
  if (!out.error.empty()) return;
  if (out.x.size() != window.size()) {
    out.error = "output has " + std::to_string(out.x.size()) +
                " samples, expected " + std::to_string(window.size());
    return;
  }
  for (const double v : out.x) {
    if (!std::isfinite(v)) {
      out.error = "non-finite output sample";
      return;
    }
  }
  out.snr_db =
      metrics::snr_from_prd(metrics::prd_zero_mean(window, out.x));
  out.ok = true;
}

// ---------------------------------------------------------------------------
// The closed loop.

struct LoopResult {
  std::vector<Outcome> first_pass;  ///< Outcomes of seq < window count.
  std::vector<double> latency_ms;   ///< Every window, worker by worker.
  std::vector<std::size_t> window_of;  ///< The distinct window of each.
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::uint64_t solver_iterations = 0;  ///< Σ over every window.
  double wall_s = 0.0;
  double busy_s = 0.0;  ///< Σ window wall time.
};

/// Runs `window_fn(seq, worker)` on every pool thread, each taking the next
/// sequence number as soon as its previous window is done, until `seconds`
/// have passed and at least `min_windows` windows were taken.
template <typename WindowFn>
LoopResult closed_loop(parallel::ThreadPool& pool, const Bench& bench,
                       double seconds, std::size_t min_windows,
                       WindowFn&& window_fn) {
  const std::size_t workers = pool.threads();
  const std::size_t distinct = bench.windows.size();
  LoopResult result;
  result.first_pass.resize(distinct);
  std::vector<std::vector<double>> latency(workers);
  std::vector<std::vector<std::size_t>> window_of(workers);
  std::vector<std::size_t> failed(workers, 0);
  std::vector<std::uint64_t> iterations(workers, 0);
  std::atomic<std::size_t> next{0};
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  pool.parallel_for(0, workers, [&](std::size_t worker) {
    latency[worker].reserve(4096);
    for (;;) {
      const std::size_t seq = next.fetch_add(1, std::memory_order_relaxed);
      if (seq >= min_windows && Clock::now() >= deadline) break;
      Outcome out;
      const auto t0 = Clock::now();
      try {
        out = window_fn(seq, worker);
      } catch (const std::exception& e) {
        out.error = e.what();
      }
      const auto t1 = Clock::now();
      latency[worker].push_back(seconds_between(t0, t1) * 1e3);
      window_of[worker].push_back(seq % distinct);
      finish(out, bench.windows[seq % distinct]);
      if (!out.ok) ++failed[worker];
      if (out.solved) {
        iterations[worker] += static_cast<std::uint64_t>(out.iterations);
      }
      if (seq < distinct) result.first_pass[seq] = std::move(out);
    }
  });
  result.wall_s = seconds_between(start, Clock::now());
  for (std::size_t t = 0; t < workers; ++t) {
    result.latency_ms.insert(result.latency_ms.end(), latency[t].begin(),
                             latency[t].end());
    result.window_of.insert(result.window_of.end(), window_of[t].begin(),
                            window_of[t].end());
    result.failed += failed[t];
    result.solver_iterations += iterations[t];
  }
  result.attempted = result.latency_ms.size();
  for (const double ms : result.latency_ms) result.busy_s += ms * 1e-3;
  return result;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_stats(const link::LinkStats& a, const link::LinkStats& b) {
  return a.packets == b.packets && a.delivered == b.delivered &&
         a.dropped == b.dropped && a.retransmissions == b.retransmissions &&
         a.crc_failures == b.crc_failures && a.data_bits == b.data_bits &&
         a.feedback_bits == b.feedback_bits &&
         same_bits(a.backoff_ms, b.backoff_ms) &&
         a.effective_m == b.effective_m && a.boxed_samples == b.boxed_samples;
}

/// Empty when every window of `run` matches `reference` bit for bit (x,
/// and the link accounting on Path::kLink); else the first difference.
std::string compare(const std::vector<Outcome>& run,
                    const std::vector<Outcome>& reference, bool link_stats) {
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const Outcome& a = run[i];
    const Outcome& b = reference[i];
    if (!a.ok || !b.ok) {
      return "window " + std::to_string(i) + " failed: " +
             (a.ok ? b.error : a.error);
    }
    if (a.x.size() != b.x.size() ||
        std::memcmp(a.x.data(), b.x.data(), a.x.size() * sizeof(double)) !=
            0) {
      return "window " + std::to_string(i) +
             ": P-worker output differs from the 1-worker pass";
    }
    if (link_stats && !same_stats(a.stats, b.stats)) {
      return "window " + std::to_string(i) + ": link accounting differs";
    }
  }
  return {};
}

// ---------------------------------------------------------------------------
// Paired kernel replay.  Each pool thread alternates one timed decode with
// a replay of as many PDHG iterations' kernels (Φ, Φᵀ, Ψᵀ, Ψ in solver
// order, plus the extra Φ of every tenth iteration's convergence check) at
// the workload's shapes, each call timed on its own.  Decode and replay
// thus share the machine's state, cache and memory-bandwidth contention
// included, and the glue (decode time per iteration minus the kernels) is
// a difference of two numbers taken side by side.  The ΦΦᵀ solve is timed
// last.

struct KernelTimes {
  double phi_us = 0.0;
  double phi_adjoint_us = 0.0;
  double dwt_forward_us = 0.0;
  double dwt_inverse_us = 0.0;
  double gram_solve_us = 0.0;
  double decode_us_per_iteration = 0.0;  ///< Of the paired decodes.
};

constexpr std::size_t kPairedRounds = 4;
constexpr int kReplayGramSolves = 200;

template <typename Fn>
void time_call(Fn&& fn, double& total_us) {
  const auto t0 = Clock::now();
  fn();
  total_us += seconds_between(t0, Clock::now()) * 1e6;
}

/// One decode of the paired phase.
struct PairedDecode {
  double decode_us = 0.0;
  int iterations = 0;
  std::size_t rows = 0;  ///< Rows of the Φ it solved with (m_eff if lossy).
};

/// `decode_fn(seq, worker)` decodes one window into a PairedDecode.  The
/// replay that follows it uses Φ at the same row count.
template <typename DecodeFn>
KernelTimes replay_kernels(const core::FrontEndConfig& config,
                           const linalg::Vector& window,
                           parallel::ThreadPool& pool, DecodeFn&& decode_fn) {
  sensing::RmpiConfig rmpi_config;
  rmpi_config.channels = config.measurements;
  rmpi_config.window = config.window;
  rmpi_config.chip_seed = config.chip_seed;
  rmpi_config.integrator_leakage = config.integrator_leakage;
  rmpi_config.adc_bits = config.measurement_adc_bits;
  rmpi_config.input_full_scale = config.dc_reference();
  const sensing::RmpiSimulator rmpi(rmpi_config);
  const linalg::Matrix phi_dense = rmpi.effective_matrix();
  const dsp::Dwt dwt(config.wavelet, config.window, config.wavelet_levels);
  const linalg::Cholesky gram(
      linalg::multiply(phi_dense, linalg::transpose(phi_dense)));
  linalg::Vector x = window;
  for (auto& v : x) v -= config.dc_reference();
  const linalg::Vector y = linalg::multiply(phi_dense, x);

  struct Sums {
    KernelTimes us;
    double phi_calls = 0.0;
    double iterations = 0.0;
    double decode_us = 0.0;
  };
  const std::size_t workers = pool.threads();
  std::vector<Sums> sums(workers);
  pool.parallel_for(0, workers, [&](std::size_t worker) {
    Sums& s = sums[worker];
    linalg::Vector n_out(config.window);
    linalg::Vector coeffs(config.window);
    for (std::size_t round = 0; round < kPairedRounds; ++round) {
      const PairedDecode d = decode_fn(round * workers + worker, worker);
      if (d.iterations <= 0) continue;
      s.decode_us += d.decode_us;
      s.iterations += d.iterations;
      linalg::Matrix rows_dense(d.rows, config.window);
      std::copy(phi_dense.row(0), phi_dense.row(0) + d.rows * config.window,
                rows_dense.row(0));
      const linalg::LinearOperator phi =
          linalg::LinearOperator::from_matrix(rows_dense);
      linalg::Vector m_out(d.rows);
      for (int it = 1; it <= d.iterations; ++it) {
        time_call([&] { phi.apply_into(x, m_out); }, s.us.phi_us);
        time_call([&] { phi.apply_adjoint_into(m_out, n_out); },
                  s.us.phi_adjoint_us);
        time_call([&] { dwt.forward_into(x, coeffs); }, s.us.dwt_forward_us);
        time_call([&] { dwt.inverse_into(coeffs, n_out); },
                  s.us.dwt_inverse_us);
        s.phi_calls += 1.0;
        if (it % 10 == 0) {
          time_call([&] { phi.apply_into(n_out, m_out); }, s.us.phi_us);
          s.phi_calls += 1.0;
        }
      }
    }
    linalg::Vector z;
    for (int i = 0; i < kReplayGramSolves; ++i) {
      time_call([&] { z = gram.solve(y); }, s.us.gram_solve_us);
    }
  });
  Sums total;
  for (const Sums& s : sums) {
    total.us.phi_us += s.us.phi_us;
    total.us.phi_adjoint_us += s.us.phi_adjoint_us;
    total.us.dwt_forward_us += s.us.dwt_forward_us;
    total.us.dwt_inverse_us += s.us.dwt_inverse_us;
    total.us.gram_solve_us += s.us.gram_solve_us;
    total.phi_calls += s.phi_calls;
    total.iterations += s.iterations;
    total.decode_us += s.decode_us;
  }
  if (total.iterations == 0.0) return {};
  const double gram_calls =
      static_cast<double>(workers) * static_cast<double>(kReplayGramSolves);
  return {total.us.phi_us / total.phi_calls,
          total.us.phi_adjoint_us / total.iterations,
          total.us.dwt_forward_us / total.iterations,
          total.us.dwt_inverse_us / total.iterations,
          total.us.gram_solve_us / gram_calls,
          total.decode_us / total.iterations};
}

// ---------------------------------------------------------------------------
// 30k-iteration reference SNRs.

std::string reference_path(const std::string& dir, const std::string& name) {
  return dir + "/reference_" + name + ".txt";
}

/// Per-window reference SNRs when the file was made for this seed and
/// window count; empty otherwise.
std::vector<double> read_reference(const std::string& path,
                                   std::uint64_t seed, std::size_t windows) {
  std::ifstream in(path);
  if (!in) return {};
  std::string line;
  std::uint64_t file_seed = 0;
  std::size_t file_windows = 0;
  std::vector<double> snrs;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string key;
    fields >> key;
    if (key == "seed") {
      fields >> file_seed;
    } else if (key == "windows") {
      fields >> file_windows;
    } else if (key == "snr_db") {
      double v = 0.0;
      fields >> v;
      snrs.push_back(v);
    }
  }
  if (file_seed != seed || file_windows != windows || snrs.size() != windows) {
    return {};
  }
  return snrs;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) >= 0x20) {
      out += c;
    }
  }
  return out;
}

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int fail_run(std::size_t attempted, std::size_t failed,
             const std::string& why) {
  std::fprintf(stderr, "decodebench: %s\n", why.c_str());
  print_result(false, attempted, failed, {});
  return 1;
}

std::size_t available_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return static_cast<std::size_t>(count);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 20.0;
  bool trace = false;
  bool write_reference = false;
  std::string spans_path;
  std::string reference_dir = "decodebench";
  std::string commit = "unknown";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--write-reference") {
      args.write_reference = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return std::nullopt;
        args.trace = value == "1";
      } else if (flag == "--spans") {
        args.spans_path = value;
      } else if (flag == "--reference-dir") {
        args.reference_dir = value;
      } else if (flag == "--commit") {
        args.commit = value;
      } else {
        return std::nullopt;
      }
    } catch (const std::exception&) {
      return std::nullopt;
    }
  }
  if (args.workload.empty() || !(args.seconds > 0.0)) return std::nullopt;
  return args;
}

// ---------------------------------------------------------------------------
// Modes.

int write_reference(Workload w, const Args& args,
                    parallel::ThreadPool& pool) {
  w.config.solver.max_iterations = kReferenceIterations;
  Bench bench;
  build(w, args.seed, bench);
  const LoopResult ref = closed_loop(
      pool, bench, 0.0, bench.windows.size(),
      [&](std::size_t seq, std::size_t) { return run_window(bench, seq); });
  const std::string path = reference_path(args.reference_dir, w.name);
  std::ofstream out(path);
  out << "# " << kReferenceIterations
      << "-iteration reference: per-window zero-mean SNR (dB) of the first "
         "pass of the window set\n";
  out << "workload " << w.name << "\nseed " << args.seed << "\nwindows "
      << ref.first_pass.size() << "\nmax_iterations " << kReferenceIterations
      << "\n";
  std::vector<double> snrs;
  std::size_t converged = 0;
  for (const Outcome& o : ref.first_pass) {
    if (!o.ok) return fail_run(ref.attempted, ref.failed, o.error);
    out << "snr_db " << number(o.snr_db) << "\n";
    snrs.push_back(o.snr_db);
    converged += o.converged ? 1 : 0;
  }
  if (!out) {
    std::fprintf(stderr, "decodebench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("# wrote %s: mean SNR %.4f dB, %zu/%zu converged, %.1f s\n",
              path.c_str(), mean(snrs), converged, snrs.size(), ref.wall_s);
  return 0;
}

std::vector<Metric> end_to_end_metrics(const Workload& w, const Bench& bench,
                                       const LoopResult& run,
                                       const std::vector<SetupTimes>& setups) {
  std::vector<double> snrs;
  for (const Outcome& o : run.first_pass) snrs.push_back(o.snr_db);
  double side_bits = 0.0;
  for (const auto& window : bench.windows) {
    side_bits += static_cast<double>(bench.encoder().encode(window).lowres_bits);
  }
  side_bits /= static_cast<double>(bench.windows.size());
  const double overhead_pct =
      100.0 * side_bits /
      (static_cast<double>(w.config.window) *
       static_cast<double>(w.config.original_bits));
  std::vector<double> setup_s;
  for (const SetupTimes& s : setups) setup_s.push_back(s.total_s);
  const auto attempted = static_cast<double>(run.attempted);
  return {
      {"windows_per_s", attempted / run.wall_s, "1/s"},
      {"window_p50_ms",
       window_quantile(run.latency_ms, run.window_of,
                       run.first_pass.size(), 0.50),
       "ms"},
      {"window_p95_ms",
       window_quantile(run.latency_ms, run.window_of,
                       run.first_pass.size(), 0.95),
       "ms"},
      {"mean_snr_db", mean(snrs), "dB"},
      {"net_cr_pct", w.config.cs_compression_ratio() - overhead_pct, "%"},
      {"ok_frac", (attempted - static_cast<double>(run.failed)) / attempted,
       "fraction"},
      {"setup_s", median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

/// Per-name span durations and the spans file (self time = duration minus
/// the children's durations).
struct SpanSummary {
  std::vector<std::string> names;
  std::vector<std::vector<double>> durations_us;
  std::vector<double> self_us;

  std::size_t slot(const std::string& name) {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return i;
    }
    names.push_back(name);
    durations_us.emplace_back();
    self_us.push_back(0.0);
    return names.size() - 1;
  }
  double median_us(const std::string& name) const {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) return median(durations_us[i]);
    }
    return 0.0;
  }
  double total_us(const std::string& name) const {
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (names[i] == name) {
        double sum = 0.0;
        for (const double d : durations_us[i]) sum += d;
        return sum;
      }
    }
    return 0.0;
  }
};

SpanSummary summarize_spans(const std::vector<SpanLog>& logs,
                            std::uint64_t origin_ns,
                            const std::string& provenance,
                            const std::string& path) {
  SpanSummary summary;
  std::string spans_json;
  std::size_t offset = 0;
  for (std::size_t t = 0; t < logs.size(); ++t) {
    const std::vector<Span>& spans = logs[t].spans();
    std::vector<double> child_us(spans.size(), 0.0);
    for (const Span& s : spans) {
      if (s.parent >= 0) {
        child_us[static_cast<std::size_t>(s.parent)] +=
            static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
      }
    }
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const double dur = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
      const double self = dur - child_us[i];
      const std::size_t k = summary.slot(s.name);
      summary.durations_us[k].push_back(dur);
      summary.self_us[k] += self;
      if (path.empty()) continue;
      if (!spans_json.empty()) spans_json += ",\n";
      spans_json += "{\"name\":\"" + std::string(s.name) +
                    "\",\"id\":" + std::to_string(s.id) +
                    ",\"thread\":" + std::to_string(t) + ",\"index\":" +
                    std::to_string(offset + i) + ",\"parent\":" +
                    (s.parent < 0 ? std::string("-1")
                                  : std::to_string(offset + static_cast<std::size_t>(
                                                                 s.parent))) +
                    ",\"start_us\":" +
                    number(static_cast<double>(s.start_ns - origin_ns) * 1e-3) +
                    ",\"dur_us\":" + number(dur) + ",\"self_us\":" +
                    number(self) + "}";
    }
    offset += spans.size();
  }
  if (path.empty()) return summary;
  std::ofstream out(path);
  out << "{\"provenance\": " << provenance << ",\n\"summary\": {";
  for (std::size_t k = 0; k < summary.names.size(); ++k) {
    double total = 0.0;
    for (const double d : summary.durations_us[k]) total += d;
    out << (k > 0 ? ",\n" : "\n") << "\"" << summary.names[k]
        << "\": {\"count\": " << summary.durations_us[k].size()
        << ", \"total_ms\": " << number(total * 1e-3)
        << ", \"self_ms\": " << number(summary.self_us[k] * 1e-3)
        << ", \"median_us\": " << number(median(summary.durations_us[k]))
        << "}";
  }
  out << "},\n\"spans\": [\n" << spans_json << "]}\n";
  if (!out) std::fprintf(stderr, "decodebench: cannot write %s\n", path.c_str());
  return summary;
}

std::vector<Metric> per_layer_metrics(const Workload& w, const Bench& bench,
                                      const LoopResult& traced,
                                      const LoopResult& serial,
                                      const SpanSummary& spans,
                                      const KernelTimes& kernels,
                                      const std::vector<SetupTimes>& setups,
                                      const std::vector<double>& reference,
                                      std::size_t workers) {
  const bool lossy = w.path == Path::kLink;
  // Counts come from the deterministic first pass of the window set.
  std::vector<double> iterations;
  std::size_t converged = 0;
  std::size_t lowres_only = 0;
  double ball_max = 0.0;
  double box_max = 0.0;
  double packets = 0.0;
  double delivered = 0.0;
  double effective_m = 0.0;
  double energy_uj = 0.0;
  for (const Outcome& o : serial.first_pass) {
    if (o.solved) {
      iterations.push_back(static_cast<double>(o.iterations));
      converged += o.converged ? 1 : 0;
      ball_max = std::max(ball_max, o.ball_violation);
      box_max = std::max(box_max, o.box_violation);
    }
    lowres_only += o.lowres_only ? 1 : 0;
    packets += static_cast<double>(o.stats.packets);
    delivered += static_cast<double>(o.stats.delivered);
    effective_m += static_cast<double>(o.stats.effective_m);
    energy_uj += o.energy_uj;
  }
  const auto distinct = static_cast<double>(serial.first_pass.size());
  const double solved = static_cast<double>(iterations.size());

  double side_bits = 0.0;
  for (const auto& window : bench.windows) {
    side_bits += static_cast<double>(bench.encoder().encode(window).lowres_bits);
  }

  const double decode_us =
      spans.total_us("core.decode") + spans.total_us("core.decode_lossy");
  const double us_per_iteration =
      traced.solver_iterations == 0
          ? 0.0
          : decode_us / static_cast<double>(traced.solver_iterations);
  const double kernel_us = 1.1 * kernels.phi_us + kernels.phi_adjoint_us +
                           kernels.dwt_forward_us + kernels.dwt_inverse_us;

  double snr_gap = -1.0;  // No reference for this seed.
  if (!reference.empty()) {
    std::vector<double> gaps;
    for (std::size_t i = 0; i < reference.size(); ++i) {
      gaps.push_back(std::fabs(serial.first_pass[i].snr_db - reference[i]));
    }
    snr_gap = mean(gaps);
  }

  std::vector<double> synthesis_s;
  std::vector<double> construct_s;
  for (const SetupTimes& s : setups) {
    synthesis_s.push_back(s.synthesis_s);
    construct_s.push_back(s.construct_s);
  }
  const double traced_rate =
      static_cast<double>(traced.attempted) / traced.wall_s;
  const double serial_rate =
      static_cast<double>(serial.attempted) / serial.wall_s;
  const auto m = static_cast<double>(w.config.measurements);
  const auto n = static_cast<double>(w.config.window);

  return {
      {"recovery.iterations_mean", mean(iterations), "count"},
      {"recovery.iterations_p95", quantile(iterations, 0.95), "count"},
      {"recovery.us_per_iteration", us_per_iteration, "us"},
      {"recovery.glue_us_per_iteration",
       kernels.decode_us_per_iteration - kernel_us, "us"},
      {"recovery.converged_frac",
       solved == 0.0 ? 0.0 : static_cast<double>(converged) / solved,
       "fraction"},
      {"recovery.ball_violation_max", ball_max, "adc_units"},
      {"recovery.box_violation_max", box_max, "adc_units"},
      {"recovery.snr_gap_db", snr_gap, "dB"},
      {"linalg.phi_apply_us", kernels.phi_us, "us"},
      {"linalg.phi_adjoint_us", kernels.phi_adjoint_us, "us"},
      {"linalg.phi_bytes_per_apply", m * n * 8.0, "bytes"},
      {"linalg.gram_solve_us", kernels.gram_solve_us, "us"},
      {"dsp.dwt_forward_us", kernels.dwt_forward_us, "us"},
      {"dsp.dwt_inverse_us", kernels.dwt_inverse_us, "us"},
      {"core.encode_us", spans.median_us("core.encode"), "us"},
      {"core.decode_ms", spans.median_us("core.decode") * 1e-3, "ms"},
      {"core.decode_lossy_ms", spans.median_us("core.decode_lossy") * 1e-3,
       "ms"},
      {"coding.lowres_decode_us", spans.median_us("coding.lowres_decode"),
       "us"},
      {"coding.bits_per_window",
       side_bits / static_cast<double>(bench.windows.size()), "bits"},
      {"link.packetize_us", spans.median_us("link.packetize"), "us"},
      {"link.transmit_us", spans.median_us("link.transmit"), "us"},
      {"link.reassemble_us", spans.median_us("link.reassemble"), "us"},
      {"link.delivery_rate", packets == 0.0 ? 0.0 : delivered / packets,
       "fraction"},
      {"link.effective_m_mean", lossy ? effective_m / distinct : 0.0, "count"},
      {"link.lowres_only_frac", static_cast<double>(lowres_only) / distinct,
       "fraction"},
      {"link.energy_uj_per_window", energy_uj / distinct, "uJ"},
      {"parallel.busy_frac",
       traced.busy_s / (static_cast<double>(workers) * traced.wall_s),
       "fraction"},
      {"parallel.speedup", traced_rate / serial_rate, "x"},
      {"ecg.synthesis_s", median(synthesis_s), "s"},
      {"core.construct_s", median(construct_s), "s"},
      {"traced.windows_per_s", traced_rate, "1/s"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> parsed = parse_args(argc, argv);
  if (!parsed) {
    std::fprintf(stderr,
                 "usage: decodebench --workload hybrid_ref|normal_cr50|"
                 "lossy_link [--seed N] [--seconds S] [--trace 0|1] "
                 "[--spans FILE] [--reference-dir DIR] [--commit ID] "
                 "[--write-reference]\n");
    return 2;
  }
  const Args& args = *parsed;
  const std::string build_type = DECODEBENCH_BUILD_TYPE;
#ifndef NDEBUG
  const bool optimized = false;
#else
  const bool optimized = build_type == "Release";
#endif
  if (!optimized) {
    std::fprintf(stderr,
                 "decodebench: refusing to time a '%s' build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 build_type.c_str());
    return 2;
  }
  const std::optional<Workload> workload =
      make_workload(args.workload, args.seed);
  if (!workload) {
    std::fprintf(stderr, "decodebench: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  const std::size_t nproc = available_cpus();
  const std::size_t workers = std::min(nproc, kMaxWorkers);
  const std::string provenance =
      "{\"workload\": \"" + workload->name + "\", \"seed\": " +
      std::to_string(args.seed) + ", \"trace\": " +
      (args.trace ? "1" : "0") + ", \"nproc\": " + std::to_string(nproc) +
      ", \"workers\": " + std::to_string(workers) + ", \"build_type\": \"" +
      json_escape(build_type) + "\", \"compiler\": \"" +
      json_escape(kCompiler) + "\", \"cpu\": \"" + json_escape(cpu_model()) +
      "\", \"commit\": \"" + json_escape(args.commit) + "\"}";
  std::printf("# provenance %s\n", provenance.c_str());
  std::fflush(stdout);

  parallel::ThreadPool pool(workers);
  if (args.write_reference) {
    try {
      return write_reference(*workload, args, pool);
    } catch (const std::exception& e) {
      return fail_run(1, 1, std::string("reference run failed: ") + e.what());
    }
  }

  // Set-up is single-threaded.  Where CPUs run at different speeds (a
  // virtual CPU whose host hyperthread sibling is busy is ~1.5x slower),
  // one thread's time depends on the CPU it lands on, so every pool thread
  // sets up its own copy, kSetupRepeats times in all, and the median is
  // over all of them.  Worker 0's copy is the one measured.
  std::vector<std::unique_ptr<Bench>> benches;
  for (std::size_t t = 0; t < workers; ++t) {
    benches.push_back(std::make_unique<Bench>());
  }
  std::vector<SetupTimes> setups(static_cast<std::size_t>(kSetupRepeats));
  try {
    pool.parallel_for(0, workers, [&](std::size_t worker) {
      for (std::size_t i = worker; i < setups.size(); i += workers) {
        setups[i] = build(*workload, args.seed, *benches[worker]);
      }
    });
  } catch (const std::exception& e) {
    return fail_run(1, 1, std::string("set-up failed: ") + e.what());
  }
  const Bench& bench = *benches.front();
  const std::size_t distinct = bench.windows.size();
  const std::size_t min_windows = distinct * kMinRepeats;
  parallel::ThreadPool serial_pool(1);
  const auto untraced = [&](std::size_t seq, std::size_t) {
    return run_window(bench, seq);
  };

  if (!args.trace) {
    const LoopResult run =
        closed_loop(pool, bench, args.seconds, min_windows, untraced);
    const LoopResult serial =
        closed_loop(serial_pool, bench, 0.0, distinct, untraced);
    if (run.failed > 0) {
      return fail_run(run.attempted, run.failed,
                      std::to_string(run.failed) + " windows failed");
    }
    const std::string mismatch =
        compare(run.first_pass, serial.first_pass, false);
    if (!mismatch.empty()) return fail_run(run.attempted, run.failed, mismatch);
    const std::vector<Metric> metrics =
        end_to_end_metrics(*workload, bench, run, setups);
    std::printf("# %zu windows on %zu workers in %.3f s\n", run.attempted,
                workers, run.wall_s);
    for (const Metric& m : metrics) {
      if (!std::isfinite(m.value)) {
        return fail_run(run.attempted, run.failed, m.name + " is not finite");
      }
    }
    print_result(true, run.attempted, run.failed, metrics);
    return 0;
  }

  std::optional<LinkParts> parts;
  if (workload->path == Path::kLink) {
    parts.emplace(make_link_parts(*workload, bench));
  }
  std::vector<SpanLog> logs(workers);
  const std::uint64_t origin_ns = now_ns();
  const LoopResult traced = closed_loop(
      pool, bench, args.seconds, min_windows,
      [&](std::size_t seq, std::size_t worker) {
        return run_window_traced(*workload, bench, parts ? &*parts : nullptr,
                                 seq, logs[worker]);
      });
  // On lossy_link this pass runs transmit_window, so it also checks the
  // recomposed pipeline above against it, bit for bit.
  const LoopResult serial =
      closed_loop(serial_pool, bench, 0.0, distinct, untraced);
  if (traced.failed > 0) {
    return fail_run(traced.attempted, traced.failed,
                    std::to_string(traced.failed) + " windows failed");
  }
  const std::string mismatch = compare(traced.first_pass, serial.first_pass,
                                       workload->path == Path::kLink);
  if (!mismatch.empty()) {
    return fail_run(traced.attempted, traced.failed, mismatch);
  }
  std::vector<SpanLog> paired_logs(workers);
  KernelTimes kernels;
  try {
    kernels = replay_kernels(
        workload->config, bench.windows.front(), pool,
        [&](std::size_t seq, std::size_t worker) {
          SpanLog& log = paired_logs[worker];
          const std::size_t first = log.spans().size();
          const Outcome out = run_window_traced(
              *workload, bench, parts ? &*parts : nullptr, seq, log);
          double decode_us = 0.0;
          for (std::size_t i = first; i < log.spans().size(); ++i) {
            const Span& s = log.spans()[i];
            if (std::strcmp(s.name, "core.decode") == 0 ||
                std::strcmp(s.name, "core.decode_lossy") == 0) {
              decode_us = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
            }
          }
          return PairedDecode{decode_us, out.solved ? out.iterations : 0,
                              workload->path == Path::kLink
                                  ? out.stats.effective_m
                                  : workload->config.measurements};
        });
  } catch (const std::exception& e) {
    return fail_run(traced.attempted, traced.failed,
                    std::string("paired replay failed: ") + e.what());
  }
  const SpanSummary spans =
      summarize_spans(logs, origin_ns, provenance, args.spans_path);
  const std::vector<double> reference =
      read_reference(reference_path(args.reference_dir, workload->name),
                     args.seed, distinct);
  const std::vector<Metric> metrics =
      per_layer_metrics(*workload, bench, traced, serial, spans, kernels,
                        setups, reference, workers);
  std::printf("# traced: %zu windows on %zu workers in %.3f s\n",
              traced.attempted, workers, traced.wall_s);
  for (const Metric& m : metrics) {
    if (!std::isfinite(m.value)) {
      return fail_run(traced.attempted, traced.failed,
                      m.name + " is not finite");
    }
  }
  print_result(true, traced.attempted, traced.failed, metrics);
  return 0;
}
