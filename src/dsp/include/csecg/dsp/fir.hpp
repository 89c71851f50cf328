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

/// Centered moving average of the given odd window length (edge samples
/// use a shrunken window); used for baseline trend estimation.
linalg::Vector moving_average(const linalg::Vector& x, std::size_t window);

}  // namespace csecg::dsp
