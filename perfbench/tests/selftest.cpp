// The benchmark's own tests: the percentile rule, open-loop accounting, the
// Env wrapper's counts and spans, and seed determinism of the inputs.
//
//   perfbench_selftest        (exit 0 when every check holds)
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "inputs.hpp"
#include "io/env.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool near(double a, double b) { return std::abs(a - b) < 1e-12; }

void test_percentile_rule() {
  std::printf("percentile rule\n");
  std::vector<double> samples;
  for (int i = 1; i <= 999; ++i) samples.push_back(i);
  const auto p99_short = perfbench::percentile(samples, 0.99);
  check(!p99_short.value && p99_short.beyond == 9,
        "p99 of 999 samples is missing (9 beyond)");
  samples.push_back(1000);
  const auto p99 = perfbench::percentile(samples, 0.99);
  check(p99.value && *p99.value == 990 && p99.beyond == 10 &&
            p99.samples == 1000,
        "p99 of 1..1000 is 990 with 10 samples beyond");
  std::vector<double> small(19, 5.0);
  check(!perfbench::percentile(small, 0.5).value,
        "median of 19 samples is missing");
  small.push_back(5.0);
  const auto p50 = perfbench::percentile(small, 0.5);
  check(p50.value && *p50.value == 5.0, "median of 20 samples is reported");
  check(!perfbench::percentile({}, 0.5).value, "no samples, no percentile");
  check(perfbench::highest_supported_percent(313) == 96.8,
        "313 samples support at most p96.8");
}

/// A clock that only moves when told: sleeping jumps to the target, and
/// each request advances it by its service time.
struct FakeClock {
  double t = 0.0;
  double now() const { return t; }
  void sleep_until(double target) { t = target; }
};

void test_open_loop() {
  std::printf("open-loop accounting\n");
  FakeClock clock;
  // Request 0 stalls for 3.5 s; the rest take 0.1 s. One due every second.
  const auto samples = perfbench::run_open_loop(
      clock, 0.0, 1.0, 5.0, [&](std::size_t i) { clock.t += i == 0 ? 3.5 : 0.1; });
  check(samples.size() == 5, "requests due before the end are all sent");
  check(near(samples[0].latency(), 3.5), "the stalled call waits 3.5 s");
  check(near(samples[1].lag(), 2.5) && near(samples[1].latency(), 2.6),
        "the request due behind it is charged the stall (lag 2.5, latency 2.6)");
  check(near(samples[2].latency(), 1.7) && near(samples[3].latency(), 0.8),
        "the backlog drains one service time at a time");
  check(near(samples[4].lag(), 0.0) && near(samples[4].latency(), 0.1),
        "once caught up, requests are sent on time");
}

void test_env_wrapper() {
  std::printf("Env wrapper counts\n");
  fmeter::io::InMemoryEnv memory;
  perfbench::TracingEnv traced(memory);
  fmeter::io::Env& env = traced;
  perfbench::Tracer::instance().enable();
  perfbench::Tracer::register_client_thread();
  const std::size_t first_span = perfbench::Tracer::instance().size();
  env.create_dir("d");
  {
    perfbench::ScopedSpan request("live.add_batch", 7);
    auto journal = env.new_writable_file("d/journal-000000.wal");
    journal->append(std::string(60, 'j'));
    journal->append(std::string(40, 'j'));
    journal->sync();
  }
  {
    auto snapshot = env.new_writable_file("d/snapshot-000001.tmp");
    snapshot->append(std::string(50, 's'));
    snapshot->sync();
  }
  env.rename_file("d/snapshot-000001.tmp", "d/snapshot-000001");
  env.sync_dir("d");
  {
    auto manifest = env.new_writable_file("d/MANIFEST");
    manifest->append(std::string(10, 'm'));
  }
  std::thread background([&] { env.sync_dir("d"); });
  background.join();
  const std::string back = env.read_file("d/snapshot-000001");

  const perfbench::IoCounts c = traced.counts();
  check(c.journal_bytes == 100 && c.snapshot_bytes == 50 &&
            c.other_bytes == 10 && c.written_bytes() == 160,
        "bytes split by file kind: journal 100, snapshot 50, other 10");
  check(c.appends == 4, "4 appends");
  check(c.file_syncs == 2 && c.dir_syncs == 2,
        "2 file syncs and 2 directory syncs");
  check(c.renames == 1, "1 rename");
  check(back.size() == 50 && c.read_bytes == 50, "50 bytes read back");

  const perfbench::SpanTree tree(perfbench::Tracer::instance().spans());
  std::int32_t request = -1;
  for (const std::int32_t id : tree.named("live.add_batch")) {
    if (static_cast<std::size_t>(id) >= first_span) request = id;
  }
  check(request >= 0 && tree.children(request).size() == 4,
        "the journal's open, 2 appends and sync are children of the request");
  bool inherits = request >= 0;
  for (const std::int32_t child : tree.children(request)) {
    inherits = inherits && tree.spans()[child].request == 7;
  }
  check(inherits, "children inherit the request id");
  const double self = tree.self_seconds(request);
  check(self >= 0.0 && self <= tree.spans()[request].seconds(),
        "self time lies between zero and the span's duration");
  bool background_parent = false;
  for (const std::int32_t id : tree.named("io.sync_dir")) {
    if (static_cast<std::size_t>(id) < first_span) continue;
    if (tree.spans()[id].parent ==
        perfbench::Tracer::instance().background_root()) {
      background_parent = true;
    }
  }
  check(background_parent,
        "a call from a thread outside the benchmark hangs off the background "
        "fold root");
}

void test_seed_determinism() {
  std::printf("seed determinism\n");
  const std::string a =
      perfbench::serialize(perfbench::make_inputs(7, 3000, 300, 1));
  const std::string b =
      perfbench::serialize(perfbench::make_inputs(7, 3000, 300, 2));
  const std::string c =
      perfbench::serialize(perfbench::make_inputs(7, 3000, 300, 2));
  const std::string d =
      perfbench::serialize(perfbench::make_inputs(8, 3000, 300, 2));
  check(a == b && b == c, "the same seed gives byte-identical inputs");
  check(a != d, "another seed gives other inputs");
  const auto inputs = perfbench::make_inputs(7, 3000, 300, 2);
  bool shaped = true;
  for (const auto& doc : inputs.corpus) {
    double norm = 0.0;
    for (const double v : doc.values()) norm += v * v;
    shaped = shaped && doc.nnz() > 0 &&
             doc.nnz() <= perfbench::kSamplesPerSignature &&
             std::abs(norm - 1.0) < 1e-9;
  }
  check(shaped, "signatures have 1..120 nonzeros and unit length");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_open_loop();
  test_env_wrapper();
  test_seed_determinism();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
