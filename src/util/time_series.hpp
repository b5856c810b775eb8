// Binned time series: accumulate (timestamp, amount) samples into fixed-width
// bins. Used to build the "MB per CPU second" figures of the paper.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "util/units.hpp"

namespace craysim {

/// Accumulates byte counts into fixed-width time bins starting at t = 0.
class BinnedSeries {
 public:
  /// `bin_width` must be positive.
  explicit BinnedSeries(Ticks bin_width);

  /// A series whose bins are `bins`, the first starting at t = 0. `bin_width`
  /// must be positive.
  BinnedSeries(Ticks bin_width, std::vector<double> bins);

  /// Adds `amount` to the bin containing `when`. Negative timestamps clamp
  /// to the first bin.
  void add(Ticks when, double amount);

  /// Spreads `amount` uniformly over [start, start + duration) — used for
  /// transfers that straddle bin boundaries.
  void add_spread(Ticks start, Ticks duration, double amount);

  [[nodiscard]] Ticks bin_width() const { return bin_width_; }
  [[nodiscard]] std::size_t num_bins() const { return bins_.size(); }
  [[nodiscard]] double bin(std::size_t i) const { return i < bins_.size() ? bins_[i] : 0.0; }
  [[nodiscard]] std::span<const double> bins() const { return bins_; }

  /// Per-bin values divided by bin width in seconds — i.e. a rate series.
  /// With byte amounts this yields bytes/second per bin.
  [[nodiscard]] std::vector<double> rates() const;

  /// Sum over all bins.
  [[nodiscard]] double total() const;

 private:
  /// Index of the bin containing `when` (negative times clamp to 0).
  [[nodiscard]] std::size_t bin_of(Ticks when) const;
  void add_to_bin(std::size_t idx, double amount);

  Ticks bin_width_;
  std::vector<double> bins_;
};

}  // namespace craysim
