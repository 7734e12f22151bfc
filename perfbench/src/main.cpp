// perfbench: the archive benchmark. Runs one workload and prints a
// human-readable report, a "REPORT" line of JSON with the environment and
// every metric, and, as the last line, the result object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// whose metrics are the end-to-end ones (--trace 0) or the per-layer ones
// (--trace 1).
//
//   perfbench --workload query_frozen --seed 1 --seconds 10 --trace 0
//             [--work-dir .bench_run] [--git-sha <sha>]
#include <sched.h>
#include <sys/vfs.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "report.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::MetricMap;
using perfbench::RunResult;

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string affinity() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &set)) continue;
    if (!out.empty()) out += ",";
    out += std::to_string(cpu);
  }
  return out;
}

std::string filesystem_of(const std::string& path) {
  struct statfs fs {};
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53: return "ext2/3/4";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x01021994: return "tmpfs";
    case 0x794C7630: return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

void print_table(const char* title, const MetricMap& map) {
  std::printf("%s\n", title);
  for (const auto& [name, v] : map) {
    if (v.value) {
      std::printf("  %-34s %16.6g %-6s", name.c_str(), *v.value,
                  v.unit.c_str());
    } else {
      std::printf("  %-34s %16s %-6s", name.c_str(), "missing", v.unit.c_str());
    }
    if (v.samples > 0) std::printf("  n=%zu", v.samples);
    if (!v.note.empty()) std::printf("  %s", v.note.c_str());
    std::printf("\n");
  }
}

std::string metrics_json(const MetricMap& map) {
  std::string out = "{";
  for (const auto& [name, v] : map) {
    if (out.size() > 1) out += ", ";
    out += "\"" + perfbench::json_escape(name) + "\": {\"value\": " +
           perfbench::json_number(v.value) + ", \"unit\": \"" +
           perfbench::json_escape(v.unit) + "\", \"samples\": " +
           std::to_string(v.samples) + "}";
  }
  return out + "}";
}

/// The result object: exactly the metrics BENCHMARK.json lists. Missing
/// end-to-end values are an error; a missing per-layer percentile is -1.
std::string result_json(const RunResult& result, bool trace) {
  const auto& names =
      trace ? perfbench::per_layer_names() : perfbench::end_to_end_names();
  const MetricMap& map = trace ? result.layers : result.end_to_end;
  std::string metrics = "{";
  for (const std::string& name : names) {
    const auto it = map.find(name);
    if (it == map.end()) throw std::logic_error("metric not measured: " + name);
    if (!it->second.value && !trace) {
      throw std::runtime_error("end-to-end metric missing: " + name + " (" +
                               it->second.note + ")");
    }
    if (metrics.size() > 1) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " +
               perfbench::json_number(it->second.value.value_or(-1.0)) +
               ", \"unit\": \"" + it->second.unit + "\"}";
  }
  metrics += "}";
  const auto& o = result.outcome;
  return std::string("{\"correct\": ") + (o.failed == 0 ? "true" : "false") +
         ", \"attempted\": " + std::to_string(o.attempted) +
         ", \"failed\": " + std::to_string(o.failed) +
         ", \"metrics\": " + metrics + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <query_frozen|ingest_stream|"
               "monitor_mixed> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>] [--git-sha <sha>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string git_sha = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") options.workload = value;
    else if (flag == "--seed") options.seed = std::stoull(value);
    else if (flag == "--seconds") options.seconds = std::stod(value);
    else if (flag == "--trace") options.trace = value == "1";
    else if (flag == "--work-dir") options.work_dir = value;
    else if (flag == "--git-sha") git_sha = value;
    else return usage();
  }
  if (options.workload.empty() || argc % 2 == 0) return usage();

  try {
    RunResult result = perfbench::run_workload(options);
    result.facts.insert(
        result.facts.begin(),
        {{"workload", options.workload},
         {"seed", std::to_string(options.seed)},
         {"seconds", std::to_string(options.seconds)},
         {"trace", options.trace ? "1" : "0"},
         {"cores", std::to_string(std::thread::hardware_concurrency())},
         {"affinity", affinity()},
         {"build_type", PERFBENCH_BUILD_TYPE},
         {"compiler", std::string("gcc ") + __VERSION__},
         {"git_sha", git_sha},
         {"cpu_model", cpu_model()},
         {"data_filesystem", filesystem_of(options.work_dir)}});

    std::printf("perfbench %s (seed %llu, %s run)\n", options.workload.c_str(),
                static_cast<unsigned long long>(options.seed),
                options.trace ? "traced" : "untraced");
    for (const auto& [key, value] : result.facts) {
      std::printf("  %-16s %s\n", key.c_str(), value.c_str());
    }
    print_table("end-to-end (by operation):", result.report);
    print_table("end-to-end (gated):", result.end_to_end);
    if (options.trace) print_table("per-layer:", result.layers);
    const auto& o = result.outcome;
    std::printf("checks: %llu attempted, %llu failed\n",
                static_cast<unsigned long long>(o.attempted),
                static_cast<unsigned long long>(o.failed));
    for (const auto& failure : o.failures) {
      std::printf("  FAILED: %s\n", failure.c_str());
    }
    if (options.trace) {
      const auto gap = [&](const char* name) {
        const auto it = result.layers.find(name);
        return it == result.layers.end() ? 0.0 : it->second.value.value_or(0.0);
      };
      const double read_gap = gap("reconcile.read_gap_pct");
      const double write_gap = gap("reconcile.write_gap_pct");
      std::printf("reconcile: read layers vs traced search p50: %+.2f%% [%s]\n",
                  read_gap, std::abs(read_gap) <= 10.0 ? "PASS" : "GAP");
      std::printf("reconcile: write layers vs traced ack p50:   %+.2f%% [%s]\n",
                  write_gap, std::abs(write_gap) <= 10.0 ? "PASS" : "GAP");
    }

    std::string facts = "{";
    for (const auto& [key, value] : result.facts) {
      if (facts.size() > 1) facts += ", ";
      facts += "\"" + perfbench::json_escape(key) + "\": \"" +
               perfbench::json_escape(value) + "\"";
    }
    facts += "}";
    std::printf("REPORT {\"env\": %s, \"report\": %s, \"end_to_end\": %s, "
                "\"per_layer\": %s}\n",
                facts.c_str(), metrics_json(result.report).c_str(),
                metrics_json(result.end_to_end).c_str(),
                metrics_json(result.layers).c_str());
    std::printf("%s\n", result_json(result, options.trace).c_str());
    return 0;
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
