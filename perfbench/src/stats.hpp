// Sample statistics and open-loop request accounting for the archive
// benchmark.
//
// Percentile rule: a percentile is reported only when at least ten samples
// lie beyond it, so a "p99" always rests on >= 1000 samples and never on
// one. Ranks follow the nearest-rank method: the q-quantile of n sorted
// samples is sample ceil(q * n) (1-based), and the samples beyond it are
// the n - ceil(q * n) above that rank.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kMinSamplesBeyond = 10;

struct Percentile {
  std::optional<double> value;  ///< empty when the sample cannot support it
  std::size_t samples = 0;      ///< n
  std::size_t beyond = 0;       ///< samples ranked above the percentile
};

/// Nearest-rank q-quantile (q in (0, 1]) under the ten-beyond rule.
inline Percentile percentile(std::vector<double> samples, double q) {
  Percentile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  const double exact_rank = q * static_cast<double>(samples.size());
  // Guard the ceil against binary fractions (0.99 * 1000 = 990.0000000001).
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact_rank - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  out.beyond = samples.size() - rank;
  if (out.beyond < kMinSamplesBeyond) return out;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  out.value = samples[rank - 1];
  return out;
}

/// The highest quantile (in percent, rounded down to 0.1) that the ten-beyond
/// rule lets `n` samples support; 0 when even the median is out of reach.
inline double highest_supported_percent(std::size_t n) {
  if (n < 2 * kMinSamplesBeyond) return 0.0;
  const double q = 1.0 - static_cast<double>(kMinSamplesBeyond) /
                             static_cast<double>(n);
  return std::floor(q * 1000.0) / 10.0;
}

inline double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  if (samples.size() % 2 == 1) return samples[mid];
  const double upper = samples[mid];
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + mid);
  return (lower + upper) / 2.0;
}

inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (const double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

/// One open-loop request: when it was due, when the generator actually sent
/// it, and when its reply arrived (all in seconds on one clock).
struct OpenLoopSample {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  /// Latency as a user behind the schedule sees it: from the due time, so
  /// a stalled call charges its wait to every request queued behind it.
  double latency() const { return done - due; }
  /// How late the generator sent the request.
  double lag() const { return sent - due; }
};

/// Drives one open-loop stream on one thread: request i is due at
/// start + i * interval; the generator sleeps until it is due (or sends at
/// once when it is already late) and records the sample. Requests due at
/// or after `end` are not sent. `Clock` provides now() and
/// sleep_until(t); `op(i)` performs request i.
template <class Clock, class Op>
std::vector<OpenLoopSample> run_open_loop(Clock& clock, double start,
                                          double interval, double end,
                                          Op&& op) {
  std::vector<OpenLoopSample> samples;
  for (std::size_t i = 0;; ++i) {
    const double due = start + static_cast<double>(i) * interval;
    if (due >= end) break;
    if (clock.now() < due) clock.sleep_until(due);
    OpenLoopSample sample;
    sample.due = due;
    sample.sent = clock.now();
    op(i);
    sample.done = clock.now();
    samples.push_back(sample);
  }
  return samples;
}

}  // namespace perfbench
