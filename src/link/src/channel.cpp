#include "csecg/link/channel.hpp"

#include "csecg/common/check.hpp"
#include "csecg/rng/distributions.hpp"

namespace csecg::link {
namespace {

bool is_probability(double p) { return p >= 0.0 && p <= 1.0; }

double stationary_bad(const ChannelConfig& config) {
  return config.ge_good_to_bad /
         (config.ge_good_to_bad + config.ge_bad_to_good);
}

}  // namespace

void validate(const ChannelConfig& config) {
  CSECG_CHECK(is_probability(config.bit_error_rate) &&
                  is_probability(config.erasure_rate) &&
                  is_probability(config.ge_good_to_bad) &&
                  is_probability(config.ge_bad_to_good) &&
                  is_probability(config.ge_erasure_good) &&
                  is_probability(config.ge_erasure_bad),
              "ChannelConfig: probabilities must lie in [0, 1]");
  if (config.kind == ChannelKind::kGilbertElliott) {
    CSECG_CHECK(config.ge_good_to_bad + config.ge_bad_to_good > 0.0,
                "ChannelConfig: Gilbert–Elliott chain cannot mix "
                "(both transition probabilities zero)");
  }
}

Channel::Channel(const ChannelConfig& config)
    : Channel(config, config.seed) {}

Channel::Channel(const ChannelConfig& config, std::uint64_t seed_override)
    : config_(config), gen_(seed_override) {
  validate(config_);
  if (config_.kind == ChannelKind::kGilbertElliott) {
    // Start from the stationary distribution so short packet trains see
    // the model's long-run loss rate without a burn-in bias.
    ge_bad_ = rng::uniform01(gen_) < stationary_bad(config_);
  }
}

bool Channel::transmit(std::vector<std::uint8_t>& packet) {
  switch (config_.kind) {
    case ChannelKind::kPerfect:
      return true;
    case ChannelKind::kBitError: {
      if (config_.bit_error_rate <= 0.0) return true;
      for (auto& byte : packet) {
        for (int bit = 0; bit < 8; ++bit) {
          if (rng::bernoulli(gen_, config_.bit_error_rate)) {
            byte = static_cast<std::uint8_t>(byte ^ (1u << bit));
          }
        }
      }
      return true;
    }
    case ChannelKind::kPacketErasure:
      return !rng::bernoulli(gen_, config_.erasure_rate);
    case ChannelKind::kGilbertElliott: {
      const double p_loss =
          ge_bad_ ? config_.ge_erasure_bad : config_.ge_erasure_good;
      const bool delivered = !rng::bernoulli(gen_, p_loss);
      const double p_flip =
          ge_bad_ ? config_.ge_bad_to_good : config_.ge_good_to_bad;
      if (rng::bernoulli(gen_, p_flip)) ge_bad_ = !ge_bad_;
      return delivered;
    }
  }
  return true;
}

}  // namespace csecg::link
