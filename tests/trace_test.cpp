// Tests for the tracing ring buffers, the Chrome trace-event export, the
// per-window quality ledger (to_jsonl), and the MAD outlier flags the
// runners attach to their reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "csecg/core/runner.hpp"
#include "csecg/link/session.hpp"
#include "csecg/obs/json.hpp"
#include "csecg/obs/registry.hpp"
#include "csecg/obs/trace.hpp"
#include "csecg/parallel/thread_pool.hpp"

namespace csecg {
namespace {

// The trace gate is process-wide, so every test pins it to the state it
// needs and drops back to disabled on exit.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_trace_enabled(false);
    obs::trace_reset();
  }
  void TearDown() override {
    obs::set_trace_enabled(false);
    obs::trace_reset();
  }
};

// Cheap structural JSON sanity: balanced braces/brackets outside strings.
void expect_balanced_json(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // Skip the escaped character.
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    ASSERT_GE(depth, 0) << "unbalanced at byte " << i;
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(depth, 0);
}

TEST_F(TraceTest, ScopeEmitsCompleteEventWithArg) {
  obs::set_trace_enabled(true);
  {
    obs::TraceScope scope("trace_test.scope", "test", nullptr, "items");
    scope.set_arg(42);
  }
  EXPECT_GE(obs::trace_event_count(), 1u);
  const std::string json = obs::trace_json();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"trace_test.scope\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"items\":42}"), std::string::npos);
}

TEST_F(TraceTest, ScopeFeedsHistogramAndTraceTheSameDuration) {
  obs::Registry reg;
  obs::Histogram& h = reg.histogram("trace_test.both_ns");
  obs::set_trace_enabled(true);
  {
    const obs::TraceScope scope("trace_test.both", "test", &h);
  }
  const obs::Histogram::Snapshot traced = h.snapshot();
  EXPECT_EQ(traced.count, 1u);
  EXPECT_EQ(obs::trace_event_count(), 1u);
  // The trace renders dur_ns / 1000 in the shortest round-trip form, so
  // equal durations give equal strings.
  std::string dur = "\"dur\":";
  obs::append_json_double(dur, static_cast<double>(traced.sum) / 1000.0);
  const std::string json = obs::trace_json();
  EXPECT_NE(json.find(dur), std::string::npos) << dur << " in " << json;

  // Tracing off: the histogram still records, the trace does not.
  obs::set_trace_enabled(false);
  {
    const obs::TraceScope scope("trace_test.both", "test", &h);
  }
  EXPECT_EQ(h.snapshot().count, 2u);
  EXPECT_EQ(obs::trace_event_count(), 1u);
}

TEST_F(TraceTest, DisabledScopeRecordsNothingAndReadsNoClock) {
  ASSERT_FALSE(obs::trace_enabled());
  {
    obs::TraceScope scope("trace_test.dark", "test");
    obs::trace_instant("trace_test.dark_instant", "test");
  }
  EXPECT_EQ(obs::trace_event_count(), 0u);
  const std::string json = obs::trace_json();
  EXPECT_EQ(json.find("trace_test.dark"), std::string::npos);
}

TEST_F(TraceTest, InstantEventsCarryScopeMarker) {
  obs::set_trace_enabled(true);
  obs::trace_instant("trace_test.instant", "test", "iteration", 7);
  const std::string json = obs::trace_json();
  expect_balanced_json(json);
  EXPECT_NE(json.find("\"name\":\"trace_test.instant\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"iteration\":7}"), std::string::npos);
}

TEST_F(TraceTest, FullRingDropsAndCountsInsteadOfGrowing) {
  obs::set_trace_enabled(true);
  const std::size_t capacity = obs::kTraceCapacity;
  const std::uint64_t dropped_before =
      obs::counter("trace.dropped_events").value();
  const std::size_t count_before = obs::trace_event_count();

  constexpr std::size_t kOverflow = 100;
  for (std::size_t i = 0; i < capacity + kOverflow; ++i) {
    obs::trace_instant("trace_test.flood", "test");
  }
  // This thread's buffer holds exactly `capacity` events; the overflow was
  // dropped and counted, never written.
  EXPECT_EQ(obs::trace_event_count() - count_before, capacity);
  EXPECT_GE(obs::counter("trace.dropped_events").value() - dropped_before,
            kOverflow);
}

TEST_F(TraceTest, ResetEmptiesEveryBuffer) {
  obs::set_trace_enabled(true);
  obs::trace_instant("trace_test.pre_reset", "test");
  ASSERT_GE(obs::trace_event_count(), 1u);
  obs::trace_reset();
  EXPECT_EQ(obs::trace_event_count(), 0u);
  EXPECT_EQ(obs::trace_json().find("trace_test.pre_reset"),
            std::string::npos);
}

TEST_F(TraceTest, ConcurrentWritersAllLand) {
  obs::set_trace_enabled(true);
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kPerThread = 500;
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        obs::trace_instant("trace_test.mt", "test");
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(obs::trace_event_count(), kThreads * kPerThread);
  expect_balanced_json(obs::trace_json());
}

/// The `exit` values of a ledger's rows, in row order.
std::vector<std::string> ledger_exits(const std::string& ledger) {
  const std::string key = "\"exit\":\"";
  std::vector<std::string> exits;
  for (std::size_t at = ledger.find(key); at != std::string::npos;
       at = ledger.find(key, at + 1)) {
    const std::size_t begin = at + key.size();
    exits.push_back(ledger.substr(begin, ledger.find('"', begin) - begin));
  }
  return exits;
}

// A small but real front end, shared by the end-to-end ledger tests.
core::FrontEndConfig small_config() {
  core::FrontEndConfig config;
  config.window = 256;
  config.measurements = 48;
  config.wavelet_levels = 4;
  config.solver.max_iterations = 300;
  return config;
}

TEST_F(TraceTest, RunRecordLedgerIsBitIdenticalAcrossThreadCounts) {
  ecg::RecordConfig record_config;
  record_config.duration_seconds = 20.0;
  const ecg::SyntheticDatabase database(record_config, 2015);
  const core::FrontEndConfig config = small_config();
  const auto codec_book = core::train_lowres_codec(config, database, 2, 2);
  const core::Codec codec(config, codec_book);

  parallel::ThreadPool serial(1);
  const std::string serial_ledger = core::to_jsonl(
      core::run_database(codec, database, 2, 4, core::DecodeMode::kAuto,
                         serial),
      codec.decoder(), core::DecodeMode::kAuto);

  parallel::ThreadPool threaded(4);
  const std::string threaded_ledger = core::to_jsonl(
      core::run_database(codec, database, 2, 4, core::DecodeMode::kAuto,
                         threaded),
      codec.decoder(), core::DecodeMode::kAuto);

  ASSERT_FALSE(serial_ledger.empty());
  EXPECT_EQ(serial_ledger, threaded_ledger);
  // 2 records × 4 windows, one row each, newline-terminated.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(serial_ledger.begin(), serial_ledger.end(), '\n')),
            8u);
  EXPECT_NE(serial_ledger.find("\"kind\":\"window\""), std::string::npos);
  EXPECT_NE(serial_ledger.find("\"solver\":\"pdhg\""), std::string::npos);
  EXPECT_NE(serial_ledger.find("\"decode_mode\":\"auto\""),
            std::string::npos);
  EXPECT_NE(serial_ledger.find("\"sigma\":"), std::string::npos);
  // Every row names the solver's exit reason.
  const std::vector<std::string> exits = ledger_exits(serial_ledger);
  EXPECT_EQ(exits.size(), 8u);
  for (const std::string& exit : exits) {
    EXPECT_TRUE(exit == "converged" || exit == "ball" || exit == "box" ||
                exit == "x_change")
        << exit;
  }
  // Locale-proof doubles: no decimal commas anywhere in a ledger number.
  EXPECT_EQ(serial_ledger.find(",\","), std::string::npos);
}

/// The `seq` values of a ledger's rows, in row order.
std::vector<std::uint64_t> ledger_seqs(const std::string& ledger) {
  const std::string key = "\"seq\":";
  std::vector<std::uint64_t> seqs;
  for (std::size_t at = ledger.find(key); at != std::string::npos;
       at = ledger.find(key, at + 1)) {
    seqs.push_back(std::stoull(ledger.substr(at + key.size())));
  }
  return seqs;
}

TEST_F(TraceTest, SeparateRunsGiveIndependentLedgers) {
  ecg::RecordConfig record_config;
  record_config.duration_seconds = 20.0;
  const ecg::SyntheticDatabase database(record_config, 2015);
  const core::FrontEndConfig config = small_config();
  const auto codec_book = core::train_lowres_codec(config, database, 2, 2);
  const core::Codec codec(config, codec_book);

  // Two runs in one process; each ledger numbers only its own windows.
  parallel::ThreadPool pool(2);
  const std::string first = core::to_jsonl(
      core::run_database(codec, database, 2, 2, core::DecodeMode::kAuto,
                         pool),
      codec.decoder(), core::DecodeMode::kAuto);
  const std::string second = core::to_jsonl(
      core::run_database(codec, database, 3, 1, core::DecodeMode::kHybrid,
                         pool),
      codec.decoder(), core::DecodeMode::kHybrid);

  EXPECT_EQ(ledger_seqs(first), (std::vector<std::uint64_t>{0, 1, 2, 3}));
  EXPECT_EQ(ledger_seqs(second), (std::vector<std::uint64_t>{0, 1, 2}));
  EXPECT_EQ(first.find("\"decode_mode\":\"hybrid\""), std::string::npos);
  EXPECT_EQ(second.find("\"decode_mode\":\"auto\""), std::string::npos);
}

TEST_F(TraceTest, LinkLedgerRowsCarryLossAccounting) {
  ecg::RecordConfig record_config;
  record_config.duration_seconds = 20.0;
  const ecg::SyntheticDatabase database(record_config, 2015);
  const core::FrontEndConfig config = small_config();
  const auto codec_book = core::train_lowres_codec(config, database, 2, 2);

  link::LinkSessionConfig link_config;
  link_config.channel.kind = link::ChannelKind::kPacketErasure;
  link_config.channel.erasure_rate = 0.1;
  const link::LinkSession session(config, codec_book, link_config);

  parallel::ThreadPool pool(2);
  const link::LinkRecordReport report =
      link::run_link_record(session, database.record(0), 4, 0, pool);

  const std::string ledger = link::to_jsonl({report}, session);
  ASSERT_FALSE(ledger.empty());
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(ledger.begin(), ledger.end(), '\n')),
            4u);
  EXPECT_NE(ledger.find("\"kind\":\"link_window\""), std::string::npos);
  EXPECT_NE(ledger.find("\"m_eff\":"), std::string::npos);
  EXPECT_NE(ledger.find("\"retransmissions\":"), std::string::npos);
  EXPECT_NE(ledger.find("\"energy_j\":"), std::string::npos);
  EXPECT_NE(ledger.find("\"boxed_samples\":"), std::string::npos);
  // Each row's exit is its window's solver exit, "none" where no solve ran.
  const std::vector<std::string> exits = ledger_exits(ledger);
  ASSERT_EQ(exits.size(), report.windows.size());
  for (std::size_t w = 0; w < exits.size(); ++w) {
    const core::WindowMetrics& m = report.windows[w];
    EXPECT_EQ(exits[w], m.solved ? recovery::exit_name(m.exit) : "none")
        << "window " << w;
  }

  // The outlier fence is a real number and the flags point inside range.
  EXPECT_TRUE(std::isfinite(report.outlier_snr_threshold_db));
  for (const std::size_t w : report.outlier_windows) {
    EXPECT_LT(w, report.windows.size());
    EXPECT_LT(report.windows[w].snr, report.outlier_snr_threshold_db);
  }
}

TEST_F(TraceTest, RunRecordFlagsMadOutliers) {
  ecg::RecordConfig record_config;
  record_config.duration_seconds = 20.0;
  const ecg::SyntheticDatabase database(record_config, 2015);
  const core::FrontEndConfig config = small_config();
  const auto codec_book = core::train_lowres_codec(config, database, 2, 2);
  const core::Codec codec(config, codec_book);

  parallel::ThreadPool pool(1);
  const core::RecordReport report = core::run_record(
      codec, database.record(0), 4, core::DecodeMode::kAuto, pool);
  EXPECT_TRUE(std::isfinite(report.outlier_snr_threshold_db));
  // Every flagged index is in range and strictly below the fence;
  // unflagged windows are at or above it.
  std::vector<bool> flagged(report.windows.size(), false);
  for (const std::size_t w : report.outlier_windows) {
    ASSERT_LT(w, report.windows.size());
    flagged[w] = true;
    EXPECT_LT(report.windows[w].snr, report.outlier_snr_threshold_db);
  }
  for (std::size_t w = 0; w < report.windows.size(); ++w) {
    if (!flagged[w]) {
      EXPECT_GE(report.windows[w].snr, report.outlier_snr_threshold_db);
    }
  }
}

TEST_F(TraceTest, PipelineStagesShowUpInTrace) {
  ecg::RecordConfig record_config;
  record_config.duration_seconds = 20.0;
  const ecg::SyntheticDatabase database(record_config, 2015);
  const core::FrontEndConfig config = small_config();
  const auto codec_book = core::train_lowres_codec(config, database, 2, 2);
  const core::Codec codec(config, codec_book);

  obs::set_trace_enabled(true);
  obs::trace_reset();  // Drop anything the codec setup itself traced.
  parallel::ThreadPool pool(2);
  (void)core::run_record(codec, database.record(0), 3,
                         core::DecodeMode::kAuto, pool);

  const std::string json = obs::trace_json();
  expect_balanced_json(json);
  for (const char* stage :
       {"\"name\":\"runner.window\"", "\"name\":\"encode\"",
        "\"name\":\"decode\"", "\"name\":\"solver.pdhg.solve\""}) {
    EXPECT_NE(json.find(stage), std::string::npos) << stage;
  }
}

}  // namespace
}  // namespace csecg
