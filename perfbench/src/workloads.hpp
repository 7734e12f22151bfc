// The three archive workloads: query_frozen, ingest_stream, monitor_mixed.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for archive data and span files (created if absent).
  std::string work_dir = ".bench_run";
};

/// Runs one workload; throws std::invalid_argument for an unknown name.
RunResult run_workload(const RunOptions& options);

/// The metric names BENCHMARK.json lists, in its order.
const std::vector<std::string>& end_to_end_names();
const std::vector<std::string>& per_layer_names();

}  // namespace perfbench
