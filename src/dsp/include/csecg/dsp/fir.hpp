// FIR filtering utilities.
//
// Used by the ECG synthesis path (band-limiting before decimation) and by
// the QRS detector (band-pass and baseline estimation).
#pragma once

#include <cstddef>
#include <vector>

#include "csecg/linalg/vector.hpp"

namespace csecg::dsp {

/// Designs a linear-phase windowed-sinc lowpass FIR.
/// `cutoff_normalized` is the -6 dB cutoff as a fraction of the sampling
/// rate (0 < cutoff < 0.5); `taps` must be odd and ≥ 3.  Hamming window.
std::vector<double> design_lowpass(double cutoff_normalized, std::size_t taps);

/// Full linear convolution; output length = x.size() + h.size() − 1.
linalg::Vector convolve(const linalg::Vector& x,
                        const std::vector<double>& h);

/// "Same"-size filtering with zero-phase group-delay compensation for
/// odd-length linear-phase filters: output[i] aligns with input[i].
linalg::Vector filter_same(const linalg::Vector& x,
                           const std::vector<double>& h);

/// filter_same, then every `factor`-th sample from index 0, computing only
/// the kept outputs; bit-identical to that two-step form.
linalg::Vector filter_decimate(const linalg::Vector& x,
                               const std::vector<double>& h,
                               std::size_t factor);

/// filter_decimate fed one input sample at a time, holding only the last
/// h.size() inputs: output j is emitted once input j·factor + (h.size() −
/// 1)/2 has been pushed, and finish() emits the rest.  The outputs are
/// bit-identical to filter_decimate over the same `inputs` samples (which
/// runs through this class).
class FirDecimator {
 public:
  FirDecimator(const std::vector<double>& h, std::size_t factor,
               std::size_t inputs);

  /// Appends the next input sample; at most `inputs` calls.
  void push(double sample);

  /// The decimated signal, ceil(inputs / factor) samples, once all
  /// `inputs` samples have been pushed.
  linalg::Vector finish();

 private:
  /// Writes the next sample (an input, or a zero past the last) and
  /// emits the output it completes, if any.
  void advance(double sample);

  std::vector<double> reversed_;  ///< h back to front.
  std::size_t factor_;
  std::size_t inputs_;
  /// Input i at i % taps and at i % taps + taps, so the last `taps` inputs
  /// are always one contiguous run; unwritten slots (before input 0 and
  /// past the last) read 0, which the sum skips.
  std::vector<double> ring_;
  std::size_t slot_ = 0;     ///< Where the next sample goes.
  std::size_t pushed_ = 0;   ///< Inputs pushed so far.
  std::size_t due_in_;       ///< Samples to write before the next output.
  std::vector<double> out_;
};

/// Centered moving average of the given odd window length (edge samples
/// use a shrunken window); used for baseline trend estimation.
linalg::Vector moving_average(const linalg::Vector& x, std::size_t window);

}  // namespace csecg::dsp
