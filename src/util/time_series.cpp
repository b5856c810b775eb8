#include "util/time_series.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"

namespace craysim {

BinnedSeries::BinnedSeries(Ticks bin_width) : bin_width_(bin_width) {
  if (bin_width <= Ticks::zero()) throw ConfigError("BinnedSeries bin width must be positive");
}

BinnedSeries::BinnedSeries(Ticks bin_width, std::vector<double> bins) : BinnedSeries(bin_width) {
  bins_ = std::move(bins);
}

std::size_t BinnedSeries::bin_of(Ticks when) const {
  return static_cast<std::size_t>(std::max<std::int64_t>(0, when / bin_width_));
}

void BinnedSeries::add_to_bin(std::size_t idx, double amount) {
  if (idx >= bins_.size()) bins_.resize(idx + 1, 0.0);
  bins_[idx] += amount;
}

void BinnedSeries::add(Ticks when, double amount) { add_to_bin(bin_of(when), amount); }

void BinnedSeries::add_spread(Ticks start, Ticks duration, double amount) {
  if (duration <= Ticks::zero()) {
    add(start, amount);
    return;
  }
  const Ticks end = start + duration;
  std::size_t idx = bin_of(start);
  Ticks bin_end = Ticks(static_cast<std::int64_t>(idx + 1) * bin_width_.count());
  // Inside its first bin the whole amount lands there: the slice loop's
  // fraction would be duration / duration, exactly 1.0.
  if (end <= bin_end) {
    add_to_bin(idx, amount);
    return;
  }
  // Each slice after the first starts on a bin boundary, so its bin is the
  // next index and needs no division.
  for (Ticks cursor = start; cursor < end; ++idx) {
    const Ticks slice_end = std::min(bin_end, end);
    const double fraction = static_cast<double>((slice_end - cursor).count()) /
                            static_cast<double>(duration.count());
    add_to_bin(idx, amount * fraction);
    cursor = slice_end;
    bin_end += bin_width_;
  }
}

std::vector<double> BinnedSeries::rates() const {
  std::vector<double> out(bins_.size());
  const double width_s = bin_width_.seconds();
  for (std::size_t i = 0; i < bins_.size(); ++i) out[i] = bins_[i] / width_s;
  return out;
}

double BinnedSeries::total() const {
  double sum = 0.0;
  for (double b : bins_) sum += b;
  return sum;
}

}  // namespace craysim
