#include "csecg/dsp/fir.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "csecg/common/check.hpp"

namespace csecg::dsp {

std::vector<double> design_lowpass(double cutoff_normalized,
                                   std::size_t taps) {
  CSECG_CHECK(cutoff_normalized > 0.0 && cutoff_normalized < 0.5,
              "design_lowpass cutoff must be in (0, 0.5), got "
                  << cutoff_normalized);
  CSECG_CHECK(taps >= 3 && taps % 2 == 1,
              "design_lowpass taps must be odd and >= 3, got " << taps);
  std::vector<double> h(taps);
  const auto mid = static_cast<double>(taps - 1) / 2.0;
  const double two_pi = 2.0 * std::numbers::pi;
  double sum = 0.0;
  for (std::size_t i = 0; i < taps; ++i) {
    const double t = static_cast<double>(i) - mid;
    const double sinc = (t == 0.0)
                            ? 2.0 * cutoff_normalized
                            : std::sin(two_pi * cutoff_normalized * t) /
                                  (std::numbers::pi * t);
    const double window =
        0.54 - 0.46 * std::cos(two_pi * static_cast<double>(i) /
                               static_cast<double>(taps - 1));
    h[i] = sinc * window;
    sum += h[i];
  }
  // Normalize to unit DC gain.
  for (double& v : h) v /= sum;
  return h;
}

linalg::Vector convolve(const linalg::Vector& x,
                        const std::vector<double>& h) {
  CSECG_CHECK(!x.empty() && !h.empty(), "convolve: empty operand");
  linalg::Vector y(x.size() + h.size() - 1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (std::size_t k = 0; k < h.size(); ++k) y[i + k] += xi * h[k];
  }
  return y;
}

linalg::Vector filter_same(const linalg::Vector& x,
                           const std::vector<double>& h) {
  CSECG_CHECK(h.size() % 2 == 1, "filter_same requires odd-length filter");
  const linalg::Vector full = convolve(x, h);
  const std::size_t delay = (h.size() - 1) / 2;
  linalg::Vector y(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) y[i] = full[i + delay];
  return y;
}

linalg::Vector filter_decimate(const linalg::Vector& x,
                               const std::vector<double>& h,
                               std::size_t factor) {
  FirDecimator decimator(h, factor, x.size());
  for (const double sample : x) decimator.push(sample);
  return decimator.finish();
}

FirDecimator::FirDecimator(const std::vector<double>& h, std::size_t factor,
                           std::size_t inputs)
    : reversed_(h.rbegin(), h.rend()),
      factor_(factor),
      inputs_(inputs),
      ring_(2 * h.size(), 0.0),
      due_in_((h.size() - 1) / 2) {
  CSECG_CHECK(inputs > 0 && h.size() % 2 == 1 && factor >= 1,
              "filter_decimate: empty input, even-length filter or factor 0");
  out_.reserve((inputs + factor - 1) / factor);
}

void FirDecimator::push(double sample) {
  CSECG_CHECK(pushed_ < inputs_,
              "FirDecimator: more than " << inputs_ << " samples pushed");
  advance(sample);
}

void FirDecimator::advance(double sample) {
  const std::size_t taps = reversed_.size();
  ring_[slot_] = sample;
  ring_[slot_ + taps] = sample;
  // The last `taps` samples, oldest first: ring_[slot_ + 1 .. slot_ + taps].
  const double* window = ring_.data() + slot_ + 1;
  slot_ = slot_ + 1 == taps ? 0 : slot_ + 1;
  ++pushed_;
  if (due_in_ > 0) {
    --due_in_;
    return;
  }
  due_in_ = factor_ - 1;
  // This sample is p = j·factor + delay, and filter_same's sample p − delay
  // is convolve's full[p]: the sum of x[i]·h[p − i] over ascending i,
  // skipping x[i] == 0, from 0.0.
  double acc = 0.0;
  for (std::size_t t = 0; t < taps; ++t) {
    if (window[t] != 0.0) acc += window[t] * reversed_[t];
  }
  out_.push_back(acc);
}

linalg::Vector FirDecimator::finish() {
  CSECG_CHECK(pushed_ == inputs_, "FirDecimator: " << pushed_ << " of "
                                                   << inputs_
                                                   << " samples pushed");
  // The outputs whose window reaches past the last input read zeros there.
  const std::size_t outputs = (inputs_ + factor_ - 1) / factor_;
  while (out_.size() < outputs) advance(0.0);
  return linalg::Vector(std::move(out_));
}

linalg::Vector moving_average(const linalg::Vector& x, std::size_t window) {
  CSECG_CHECK(window >= 1 && window % 2 == 1,
              "moving_average window must be odd and >= 1, got " << window);
  const std::size_t half = window / 2;
  const std::size_t n = x.size();
  linalg::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t lo = (i >= half) ? i - half : 0;
    const std::size_t hi = std::min(n - 1, i + half);
    double acc = 0.0;
    for (std::size_t j = lo; j <= hi; ++j) acc += x[j];
    y[i] = acc / static_cast<double>(hi - lo + 1);
  }
  return y;
}

}  // namespace csecg::dsp
