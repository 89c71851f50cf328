// Summary statistics used by the experiment harness (Fig. 7 averages and
// the Fig. 8 box plots).
#pragma once

#include <cstddef>
#include <vector>

namespace csecg::metrics {

/// Basic moments and order statistics of a sample.
struct Summary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;  ///< Sample standard deviation (n−1 denominator).
  double min = 0.0;
  double max = 0.0;
  double median = 0.0;
};

/// Computes a Summary.  Throws std::invalid_argument on an empty sample.
Summary summarize(const std::vector<double>& values);

/// Linear-interpolation percentile, p ∈ [0, 100].
/// Throws std::invalid_argument on an empty sample or p out of range.
double percentile(std::vector<double> values, double p);

/// MATLAB-boxplot-compatible statistics: quartiles, whiskers at the most
/// extreme data points within 1.5·IQR of the box, and the outliers beyond
/// them — matching the paper's Fig. 8 description verbatim.
struct BoxStats {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  double whisker_low = 0.0;
  double whisker_high = 0.0;
  std::vector<double> outliers;
};

/// Computes BoxStats.  Throws std::invalid_argument on an empty sample.
BoxStats box_stats(const std::vector<double>& values);

/// Robust low-side outlier threshold: median − k·1.4826·MAD, where MAD is
/// the median absolute deviation from the median and 1.4826 rescales it to
/// a normal-consistent sigma.  With a degenerate (MAD = 0) sample the
/// threshold collapses onto the median, so only values strictly below the
/// bulk get flagged.  Throws std::invalid_argument on an empty sample.
double mad_low_threshold(const std::vector<double>& values, double k = 3.5);

/// Indices of values strictly below mad_low_threshold(values, k), in
/// ascending index order — the per-window "anomalously bad SNR" flags the
/// run reports carry (`outlier_windows`) and to_jsonl() writes out.  Throws
/// on an empty sample.
std::vector<std::size_t> mad_low_outliers(const std::vector<double>& values,
                                          double k = 3.5);

}  // namespace csecg::metrics
