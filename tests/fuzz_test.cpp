// Tests for the fuzz harness itself: the mutators and campaigns must be
// bit-deterministic (a reported failure is only useful if the seed
// reproduces it), the seed corpora must be valid inputs, and a smoke
// campaign per target must complete violation-free — the tier-1 slice of
// the CI fuzz-smoke job.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <set>
#include <vector>

#include "csecg/fuzz/fixtures.hpp"
#include "csecg/fuzz/mutators.hpp"
#include "csecg/fuzz/targets.hpp"
#include "csecg/rng/xoshiro.hpp"

namespace csecg::fuzz {
namespace {

TEST(Mutators, DeterministicUnderSameSeed) {
  const Bytes input = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::vector<Bytes> pool = {{9, 9, 9}, {0xAA, 0xBB}};
  rng::Xoshiro256 a(42);
  rng::Xoshiro256 b(42);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(mutate(input, pool, a), mutate(input, pool, b));
  }
}

TEST(Mutators, HandleEmptyAndTinyInputs) {
  rng::Xoshiro256 gen(7);
  const std::vector<Bytes> pool = {{1, 2, 3}};
  for (const Bytes& input : {Bytes{}, Bytes{0x00}, Bytes{0xFF, 0x01}}) {
    for (int i = 0; i < 500; ++i) {
      // No mutator may crash or hang on degenerate inputs.
      const Bytes out = mutate(input, pool, gen);
      EXPECT_LE(out.size(), input.size() + 3 * 48 + pool[0].size() * 3);
    }
  }
}

TEST(Mutators, SpliceTakesPrefixAndSuffix) {
  rng::Xoshiro256 gen(3);
  const Bytes a(10, 0xAA);
  const Bytes b(10, 0xBB);
  for (int i = 0; i < 100; ++i) {
    const Bytes out = splice(a, b, gen);
    EXPECT_LE(out.size(), a.size() + b.size());
    // Every 0xAA run precedes every 0xBB run.
    bool seen_b = false;
    for (const std::uint8_t byte : out) {
      if (byte == 0xBB) seen_b = true;
      if (seen_b) { EXPECT_EQ(byte, 0xBB); }
    }
  }
}

TEST(Targets, NamesRoundTrip) {
  std::set<std::string_view> seen;
  for (const Target target : all_targets()) {
    const std::string_view name = target_name(target);
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
    ASSERT_TRUE(target_from_name(name).has_value());
    EXPECT_EQ(*target_from_name(name), target);
  }
  EXPECT_FALSE(target_from_name("nonsense").has_value());
}

TEST(Targets, SeedCorporaAreAccepted) {
  // Every seed input must decode cleanly: the mutation pool starts from
  // valid inputs or the campaign never leaves the outer rejection gates.
  for (const Target target : all_targets()) {
    const std::vector<Bytes> seeds = seed_corpus(target);
    ASSERT_FALSE(seeds.empty()) << target_name(target);
    for (const Bytes& seed : seeds) {
      if (target == Target::kBitReader) {
        // BitReader seeds are read *programs*: draining the stream is a
        // legitimate (rejected) ending, so only the contract applies.
        EXPECT_NO_THROW((void)run_one(target, seed));
        continue;
      }
      EXPECT_EQ(run_one(target, seed), Outcome::kAccepted)
          << target_name(target);
    }
  }
}

TEST(Targets, RegressionCorpusReplaysClean) {
  for (const Target target : all_targets()) {
    const auto corpus = regression_corpus(target);
    ASSERT_FALSE(corpus.empty()) << target_name(target);
    std::set<std::string_view> names;
    for (const RegressionInput& input : corpus) {
      EXPECT_TRUE(names.insert(input.name).second)
          << target_name(target) << "/" << input.name << " duplicated";
      EXPECT_NO_THROW((void)run_one(target, input.bytes))
          << target_name(target) << "/" << input.name;
    }
  }
}

TEST(Targets, CampaignIsDeterministic) {
  for (const Target target : all_targets()) {
    const FuzzReport first = run_target(target, 99, 2000);
    const FuzzReport second = run_target(target, 99, 2000);
    EXPECT_EQ(first.accepted, second.accepted) << target_name(target);
    EXPECT_EQ(first.rejected, second.rejected) << target_name(target);
    EXPECT_EQ(first.fingerprint, second.fingerprint)
        << target_name(target);
    // A different seed must explore a different input sequence.
    const FuzzReport other = run_target(target, 100, 2000);
    EXPECT_NE(other.fingerprint, first.fingerprint) << target_name(target);
  }
}

TEST(Targets, SmokeCampaignFindsNoViolations) {
  for (const Target target : all_targets()) {
    const FuzzReport report = run_target(target, 1, 5000);
    EXPECT_EQ(report.iterations, 5000u);
    EXPECT_EQ(report.accepted + report.rejected, 5000u);
    // The structure-aware mutators must keep reaching the deep accept
    // path, not just bounce off the outer gates.
    EXPECT_GT(report.accepted, 0u) << target_name(target);
    EXPECT_GT(report.rejected, 0u) << target_name(target);
  }
}

TEST(WriteCorpus, WritesEveryCuratedInput) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "csecg_fuzz_corpus_test";
  std::filesystem::remove_all(dir);
  std::size_t expected = 0;
  for (const Target target : all_targets()) {
    expected += regression_corpus(target).size();
  }
  EXPECT_EQ(write_regression_corpus(dir.string()), expected);
  std::size_t found = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.path().extension() == ".bin") ++found;
  }
  EXPECT_EQ(found, expected);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace csecg::fuzz
