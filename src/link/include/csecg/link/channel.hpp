// Channel impairment models for the telemetry link.
//
// Three classic radio abstractions, all driven by csecg::rng so every
// experiment is bit-reproducible:
//  * i.i.d. bit-error  — each payload bit flips with probability BER
//    (the CRC then catches essentially every hit).
//  * i.i.d. packet erasure — each packet vanishes with probability p
//    (interference, MAC collisions).
//  * Gilbert–Elliott — a two-state Markov chain (good/bad) with
//    per-state erasure probabilities; the standard model for the bursty
//    fading a body-worn 2.4 GHz radio actually sees.  Stationary loss is
//    π_bad·p_bad + π_good·p_good with π_bad = g→b / (g→b + b→g).
#pragma once

#include <cstdint>
#include <vector>

#include "csecg/rng/xoshiro.hpp"

namespace csecg::link {

/// Which impairment to apply.
enum class ChannelKind {
  kPerfect,        ///< Delivers everything untouched.
  kBitError,       ///< i.i.d. bit flips at `bit_error_rate`.
  kPacketErasure,  ///< i.i.d. packet drops at `erasure_rate`.
  kGilbertElliott, ///< Two-state burst erasures.
};

/// Channel parameters (only the fields of the selected kind are read).
struct ChannelConfig {
  ChannelKind kind = ChannelKind::kPerfect;
  double bit_error_rate = 0.0;   ///< kBitError: per-bit flip probability.
  double erasure_rate = 0.0;     ///< kPacketErasure: per-packet drop.
  double ge_good_to_bad = 0.02;  ///< kGilbertElliott: P(good→bad).
  double ge_bad_to_good = 0.25;  ///< kGilbertElliott: P(bad→good).
  double ge_erasure_good = 0.0;  ///< Drop probability in the good state.
  double ge_erasure_bad = 0.5;   ///< Drop probability in the bad state.
  std::uint64_t seed = 0x2EC6;   ///< Substream seed (see Channel ctor).
};

/// Validates a ChannelConfig; throws std::invalid_argument when any
/// probability leaves [0, 1] or a Gilbert–Elliott chain cannot mix.
void validate(const ChannelConfig& config);

/// One directional lossy pipe.  Holds the RNG and (for Gilbert–Elliott)
/// the Markov state, so a Channel instance is NOT thread-safe; create one
/// per window from a per-window substream seed for deterministic parallel
/// experiments (LinkSession does exactly that).
class Channel {
 public:
  explicit Channel(const ChannelConfig& config);

  /// Same, but with the RNG seeded from `seed_override` instead of
  /// config.seed — the hook for per-window substreams.
  Channel(const ChannelConfig& config, std::uint64_t seed_override);

  const ChannelConfig& config() const noexcept { return config_; }

  /// Pushes one packet through the channel.  Returns false when the
  /// packet is erased; otherwise the bytes may have been corrupted in
  /// place (bit-error kind).
  bool transmit(std::vector<std::uint8_t>& packet);

 private:
  ChannelConfig config_;
  rng::Xoshiro256 gen_;
  bool ge_bad_ = false;
};

}  // namespace csecg::link
