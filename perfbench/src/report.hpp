// Named results of one benchmark run and how they are printed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Value {
  std::optional<double> value;  ///< empty = missing (see `note`)
  std::string unit;
  std::size_t samples = 0;      ///< sample count behind a statistic (0 = n/a)
  std::string note;
};

using MetricMap = std::map<std::string, Value>;

/// Operations attempted and failed: failed calls, non-ok outcomes and failed
/// correctness or durability checks all count as failures.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< first few failure messages

  void record(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 20) failures.push_back(what);
  }
};

struct RunResult {
  MetricMap end_to_end;  ///< the metrics BENCHMARK.json gates (untraced run)
  MetricMap report;      ///< every end-to-end metric under its own name
  MetricMap layers;      ///< per-layer metrics (traced run)
  Outcome outcome;
  std::vector<std::pair<std::string, std::string>> facts;  ///< env + run facts
};

void set(MetricMap& map, const std::string& name, double value,
         const std::string& unit, std::size_t samples = 0);
/// The q-quantile of `samples` (already in `unit`) under the ten-beyond
/// rule; stored as missing, with its sample count, when unsupported.
void set_percentile(MetricMap& map, const std::string& name,
                    const std::vector<double>& samples, double q,
                    const std::string& unit);

std::string json_escape(const std::string& text);
/// A JSON number with every significant digit; null for a missing value.
std::string json_number(const std::optional<double>& value);

}  // namespace perfbench
