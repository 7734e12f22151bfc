#include "workloads.hpp"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>

#include "exec/query_engine.hpp"
#include "exec/sharded_index.hpp"
#include "fmeter/database.hpp"
#include "fmeter/live_database.hpp"
#include "inputs.hpp"
#include "obs/metrics.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/cpu_time.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using fmeter::core::LiveDatabase;
using fmeter::core::PruningMode;
using fmeter::core::QueryStats;
using fmeter::core::ScanPolicy;
using fmeter::core::SearchHit;
using fmeter::core::SignatureDatabase;
using fmeter::core::SimilarityMetric;
using fmeter::vsm::SparseVector;

constexpr std::size_t kTopK = 10;
constexpr std::size_t kBatchQueries = 64;  // search_batch size
constexpr std::size_t kIngestBatch = 64;   // signatures per add_batch
constexpr int kSetups = 3;           // set-ups per run for setup_s
constexpr int kBulkSetups100k = 2;   // the same for the 12 s 100k bulk load
constexpr int kReopens = 8;          // timed reopens per run for recover_s
constexpr std::size_t kCheckQueries = 12;  // brute-force-checked queries
constexpr std::size_t kCycleCheckQueries = 4;  // the same, per ingest cycle
constexpr std::size_t kDecomposeQueries = 400;
constexpr std::size_t kDecomposeBatches = 12;

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

struct SteadyClock {
  double now() const { return now_s(); }
  void sleep_until(double t) const {
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(t))));
  }
};

struct ProcStats {
  double cpu_s = 0.0;
  double invol_switches = 0.0;
  double page_faults = 0.0;
  double max_rss_mb = 0.0;
};

ProcStats proc_stats() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  ProcStats out;
  out.cpu_s = secs(ru.ru_utime) + secs(ru.ru_stime);
  out.invol_switches = static_cast<double>(ru.ru_nivcsw);
  out.page_faults = static_cast<double>(ru.ru_minflt + ru.ru_majflt);
  out.max_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  return out;
}

/// Returns freed heap memory to the system and restarts the kernel's
/// peak-resident-set mark, so that peak_rss_mb() covers only what follows.
void reset_peak_rss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

/// Peak resident set (VmHWM) since the last reset_peak_rss(), in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return proc_stats().max_rss_mb;
}

double refreeze_seconds_total() {
  const auto scrape = fmeter::obs::MetricsRegistry::global().scrape();
  const auto* h = scrape.histogram("fmeter_live_refreeze_ns");
  return h == nullptr ? 0.0 : static_cast<double>(h->snapshot.sum) * 1e-9;
}

std::uint64_t directory_bytes(const std::string& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) total += entry.file_size();
  }
  return total;
}

std::size_t span_mark() { return Tracer::instance().size(); }

/// Counts every query of a call against `stats`' non-ok outcome tallies.
void record_searches(Outcome& outcome, const QueryStats& stats,
                     std::size_t queries, const std::string& what) {
  const std::uint64_t bad = stats.deadline_exceeded + stats.cancelled +
                            stats.shard_failed + stats.rejected;
  outcome.attempted += queries;
  outcome.failed += bad;
  if (bad > 0 && outcome.failures.size() < 20) {
    outcome.failures.push_back(what + ": non-ok outcomes");
  }
}

// ----------------------------------------------------------- correctness

struct RefHit {
  std::size_t id = 0;
  double score = 0.0;
};

/// The benchmark's own scan: cosine against every document, ranked by the
/// archive's one ordering (score descending, then ascending id).
std::vector<RefHit> brute_force(const std::vector<SparseVector>& docs,
                                std::size_t n, const SparseVector& query) {
  std::vector<RefHit> all(n);
  for (std::size_t i = 0; i < n; ++i) {
    all[i] = {i, fmeter::vsm::cosine_similarity(query, docs[i])};
  }
  const auto better = [](const RefHit& a, const RefHit& b) {
    return a.score != b.score ? a.score > b.score : a.id < b.id;
  };
  const std::size_t top = std::min(kTopK, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<long>(top),
                    all.end(), better);
  all.resize(top);
  return all;
}

/// Ids and order identical; scores bit-identical, or within 1e-9 when
/// kAuto may have resolved to the pruned kernel somewhere.
bool matches(const std::vector<SearchHit>& hits,
             const std::vector<RefHit>& reference, bool pruned_possible) {
  if (hits.size() != reference.size()) return false;
  for (std::size_t i = 0; i < hits.size(); ++i) {
    if (hits[i].id != reference[i].id) return false;
    if (hits[i].score == reference[i].score) continue;
    if (!pruned_possible ||
        std::abs(hits[i].score - reference[i].score) > 1e-9) {
      return false;
    }
  }
  return true;
}

bool bit_identical(const std::vector<SearchHit>& a,
                   const std::vector<SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].id != b[i].id || a[i].score != b[i].score ||
        a[i].label != b[i].label) {
      return false;
    }
  }
  return true;
}

/// True when kAuto can pick the pruned kernel on some part of the archive.
bool pruned_possible(const LiveDatabase& db) {
  const auto stats = db.stats();
  for (const auto& shard : stats.base_shards) {
    if (fmeter::index::InvertedIndex::resolve_auto(shard.docs, kTopK, true) ==
        PruningMode::kMaxScore) {
      return true;
    }
  }
  return fmeter::index::InvertedIndex::resolve_auto(stats.tail_docs, kTopK,
                                                    true) ==
         PruningMode::kMaxScore;
}

/// Sampled queries against the brute-force reference over the first
/// `docs` corpus documents. Returns the archive's answers.
std::vector<std::vector<SearchHit>> check_against_reference(
    const LiveDatabase::Snapshot& snap, const Inputs& in, std::size_t docs,
    bool pruned, Outcome& outcome, std::size_t queries = kCheckQueries) {
  std::vector<std::vector<SearchHit>> answers;
  outcome.record(snap.size() == docs, "archive holds every acknowledged doc");
  for (std::size_t c = 0; c < queries; ++c) {
    const SparseVector& q = in.queries[(c * 997) % in.queries.size()];
    answers.push_back(snap.search(q, kTopK));
    outcome.record(matches(answers.back(), brute_force(in.corpus, docs, q),
                           pruned),
                   "sampled answer equals brute force");
  }
  return answers;
}

/// Durability after a reopen: every acknowledged signature and label is
/// present, and the sampled answers equal the pre-close answers bit for bit.
void check_recovered(const LiveDatabase::Snapshot& snap, const Inputs& in,
                     std::size_t docs,
                     const std::vector<std::vector<SearchHit>>& before,
                     Outcome& outcome) {
  bool all_present = snap.size() == docs;
  for (std::size_t i = 0; all_present && i < docs; ++i) {
    all_present = snap.signature(i) == in.corpus[i] &&
                  snap.label(i) == in.labels[i];
  }
  outcome.record(all_present, "every acknowledged signature survives reopen");
  for (std::size_t c = 0; c < before.size(); ++c) {
    const SparseVector& q = in.queries[(c * 997) % in.queries.size()];
    outcome.record(bit_identical(snap.search(q, kTopK), before[c]),
                   "answer after reopen equals answer before close");
  }
}

// -------------------------------------------------------- shared phases

struct Slice {
  std::vector<SparseVector> docs;
  std::vector<std::string> labels;
};

Slice copy_slice(const Inputs& in, std::size_t begin, std::size_t end) {
  Slice s;
  s.docs.assign(in.corpus.begin() + static_cast<long>(begin),
                in.corpus.begin() + static_cast<long>(end));
  s.labels.assign(in.labels.begin() + static_cast<long>(begin),
                  in.labels.begin() + static_cast<long>(end));
  return s;
}

std::unique_ptr<LiveDatabase> open_archive(fmeter::io::Env& env,
                                           const std::string& dir,
                                           const char* span_name = "live.open") {
  ScopedSpan span(span_name);
  return std::make_unique<LiveDatabase>(env, dir);
}

/// Bulk-load `docs` documents with one add_batch and fold them; the
/// time-to-measured-state of query_frozen and monitor_mixed.
struct BulkSetup {
  std::unique_ptr<LiveDatabase> db;
  double setup_s = 0.0;
  double seal_s = 0.0;
  double fold_s = 0.0;
};

BulkSetup bulk_setup(fmeter::io::Env& env, const std::string& dir,
                     const Inputs& in, std::size_t docs, Outcome& outcome) {
  fs::remove_all(dir);
  Slice slice = copy_slice(in, 0, docs);
  BulkSetup out;
  const double t0 = now_s();
  out.db = open_archive(env, dir);
  const double t1 = now_s();
  {
    ScopedSpan span("live.add_batch");
    outcome.record(out.db->add_batch(std::move(slice.docs),
                                     std::move(slice.labels)) == 0,
                   "bulk add_batch returns id 0");
  }
  const double t2 = now_s();
  {
    ScopedSpan span("live.refreeze_now");
    out.db->refreeze_now();
  }
  const double t3 = now_s();
  out.setup_s = t3 - t0;
  out.seal_s = t2 - t1;
  out.fold_s = t3 - t2;
  outcome.record(out.db->stats().segments == 0, "set-up leaves no tail");
  return out;
}

/// Reopens the archive, as a restarted process would, once untimed and then
/// `count` times timed; returns the timed reopens (until the first snapshot
/// can be served) and checks durability after each. The untimed reopen
/// absorbs the heap churn left by destroying the archive, which otherwise
/// slows whichever reopen comes first by up to 40%.
std::vector<double> reopen_times(fmeter::io::Env& env, const std::string& dir,
                                 const Inputs& in, std::size_t docs,
                                 const std::vector<std::vector<SearchHit>>& before,
                                 Outcome& outcome, int count = kReopens) {
  open_archive(env, dir).reset();
  std::vector<double> times;
  for (int r = 0; r < count; ++r) {
    const double t0 = now_s();
    auto db = open_archive(env, dir, "live.reopen");
    const auto snap = db->snapshot();
    times.push_back(now_s() - t0);
    check_recovered(snap, in, docs, before, outcome);
  }
  return times;
}

// ------------------------------------------------------ read-path layers

/// Times each lower read-path layer directly, on structures built from the
/// pinned snapshot's base documents. A SignatureDatabase or ShardedIndex
/// bulk-built from the same documents at the same shard count is
/// bit-identical to the folded base, so the difference between the
/// per-layer calls on one query is that layer's own time.
struct Decomposition {
  std::vector<double> live_us, db_us, run_us, probe_us;
  fmeter::index::PruneStats probe_stats;
  QueryStats live_stats;
  std::size_t queries = 0;
  double build_s = 0.0;
  double batch_us_per_query = 0.0;
  double pooled_ratio = 0.0;
  double tasks_per_batch = 0.0;
  std::vector<double> segments, tail_docs;
};

Decomposition decompose(const LiveDatabase& live, const Inputs& in,
                        Outcome& outcome) {
  using fmeter::index::InvertedIndex;
  const auto snap = live.snapshot();
  const std::size_t shards = std::max<std::size_t>(
      1, live.stats().base_shards.size());
  const std::size_t base = snap.base_docs();
  std::vector<SparseVector> docs;
  std::vector<std::string> labels;
  docs.reserve(base);
  labels.reserve(base);
  for (std::size_t i = 0; i < base; ++i) {
    docs.push_back(snap.signature(i));
    labels.push_back(snap.label(i));
  }
  Decomposition d;
  fmeter::exec::ShardedIndex index(shards);
  {
    ScopedSpan span("exec.build");
    const double t0 = now_s();
    index.add_batch(std::span<const SparseVector>(docs));
    d.build_s = now_s() - t0;
  }
  SignatureDatabase db(shards);
  db.add_batch(std::move(docs), std::move(labels));
  const fmeter::exec::QueryEngine engine(index);
  fmeter::index::TopKScratch scratch;
  const bool exact_base = snap.tail_docs() == 0;

  const std::size_t warmup = 40;
  for (std::size_t i = 0; i < warmup + kDecomposeQueries; ++i) {
    const SparseVector& q = in.queries[i % in.queries.size()];
    const bool keep = i >= warmup;
    const std::uint64_t request = i + 1;
    double t0 = now_s();
    std::vector<SearchHit> live_hits;
    QueryStats stats;
    {
      ScopedSpan span("live.search", request);
      live_hits = snap.search(q, kTopK, SimilarityMetric::kCosine,
                              PruningMode::kAuto, &stats);
    }
    const double t_live = now_s() - t0;
    t0 = now_s();
    std::vector<SearchHit> db_hits;
    {
      ScopedSpan span("db.search", request);
      db_hits = db.search(q, kTopK, SimilarityMetric::kCosine,
                          ScanPolicy::kIndexed, PruningMode::kAuto);
    }
    const double t_db = now_s() - t0;
    t0 = now_s();
    {
      ScopedSpan span("exec.run", request);
      engine.run(q, kTopK, fmeter::index::Metric::kCosine, PruningMode::kAuto);
    }
    const double t_run = now_s() - t0;
    double t_probe = 0.0;
    fmeter::index::PruneStats probe_stats;
    for (std::size_t s = 0; s < index.num_shards(); ++s) {
      const InvertedIndex& shard = index.shard(s);
      const PruningMode mode =
          InvertedIndex::resolve_auto(shard.size(), kTopK, shard.frozen());
      t0 = now_s();
      ScopedSpan span("index.top_k", request);
      if (mode == PruningMode::kMaxScore) {
        shard.top_k_pruned(q, kTopK, fmeter::index::Metric::kCosine, &scratch,
                           InvertedIndex::kNoSeed, &probe_stats);
      } else {
        shard.top_k(q, kTopK, fmeter::index::Metric::kCosine, &scratch,
                    InvertedIndex::kNoSeed, &probe_stats);
      }
      t_probe += now_s() - t0;
    }
    if (!keep) continue;
    if (exact_base && i < warmup + kCheckQueries) {
      outcome.record(bit_identical(live_hits, db_hits),
                     "folded base equals a bulk-built SignatureDatabase");
    }
    record_searches(outcome, stats, 1, "decomposition search");
    d.live_us.push_back(t_live * 1e6);
    d.db_us.push_back(t_db * 1e6);
    d.run_us.push_back(t_run * 1e6);
    d.probe_us.push_back(t_probe * 1e6);
    d.probe_stats += probe_stats;
    d.live_stats += stats;
    d.segments.push_back(static_cast<double>(snap.num_segments()));
    d.tail_docs.push_back(static_cast<double>(snap.tail_docs()));
    ++d.queries;
  }

  QueryStats batch_stats;
  double batch_s = 0.0;
  for (std::size_t b = 0; b < kDecomposeBatches + 2; ++b) {
    const std::size_t first = (b * kBatchQueries) % in.queries.size();
    const std::size_t count =
        std::min(kBatchQueries, in.queries.size() - first);
    const std::span<const SparseVector> batch(in.queries.data() + first,
                                              count);
    QueryStats stats;
    const double t0 = now_s();
    {
      ScopedSpan span("exec.run_batch", b + 1);
      engine.run_batch(batch, kTopK, fmeter::index::Metric::kCosine,
                       PruningMode::kAuto, &stats);
    }
    if (b < 2) continue;  // warm-up
    batch_s += now_s() - t0;
    batch_stats += stats;
  }
  const double batched = static_cast<double>(
      batch_stats.dispatch_inline + batch_stats.dispatch_pooled);
  d.batch_us_per_query = batch_s * 1e6 / batched;
  d.pooled_ratio =
      static_cast<double>(batch_stats.dispatch_pooled) / std::max(batched, 1.0);
  d.tasks_per_batch = static_cast<double>(batch_stats.tasks_executed) /
                      static_cast<double>(kDecomposeBatches);
  return d;
}

// ------------------------------------------------------ per-layer metrics

/// What a workload measured for the layer report besides the spans.
struct LayerInputs {
  std::size_t mark = 0;       ///< first span of the kept phase
  IoCounts io;                ///< file-system counts over the kept phase
  double user_bytes = 0.0;    ///< user bytes ingested in the kept phase
  double refreezes = 0.0;
  double refreeze_s = 0.0;
  double seal_s = 0.0;
  double fold_s = 0.0;
  double memory_mb = 0.0;
  std::vector<double> idle_search_us;
  std::vector<double> segments, tail_docs;  ///< at each foreground search
};

double max_of(const std::vector<double>& v) {
  return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
}

double gap_pct(double parts, double whole) {
  return whole == 0.0 ? 0.0 : (parts - whole) / whole * 100.0;
}

void layer_metrics(const LayerInputs& in, const Decomposition& d,
                   double run_wall_s, RunResult& result) {
  MetricMap& m = result.layers;
  const SpanTree tree(Tracer::instance().spans());
  const auto kept = [&](std::int32_t id) {
    return static_cast<std::size_t>(id) >= in.mark;
  };

  // index
  std::vector<double> exec_self, db_self, live_self;
  for (std::size_t i = 0; i < d.queries; ++i) {
    exec_self.push_back(d.run_us[i] - d.probe_us[i]);
    db_self.push_back(d.db_us[i] - d.run_us[i]);
    live_self.push_back(d.live_us[i] - d.db_us[i]);
  }
  const double nq = static_cast<double>(std::max<std::size_t>(d.queries, 1));
  const double probe_p50 = median(d.probe_us);
  set(m, "index.probe_us", probe_p50, "us", d.queries);
  set(m, "index.postings_per_query",
      static_cast<double>(d.live_stats.postings_visited) / nq, "count");
  set(m, "index.docs_scored_per_query",
      static_cast<double>(d.live_stats.docs_scored) / nq, "count");
  set(m, "index.docs_pruned_per_query",
      static_cast<double>(d.live_stats.docs_pruned) / nq, "count");
  set(m, "index.blocks_skipped_per_query",
      static_cast<double>(d.live_stats.blocks_skipped) / nq, "count");
  set(m, "index.forward_gathers_per_query",
      static_cast<double>(d.live_stats.forward_gathers) / nq, "count");
  const double postings = static_cast<double>(d.probe_stats.postings_visited);
  double probe_total_us = 0.0;
  for (const double t : d.probe_us) probe_total_us += t;
  set(m, "index.ns_per_posting",
      postings > 0 ? probe_total_us * 1e3 / postings : 0.0, "ns");
  set(m, "index.memory_mb", in.memory_mb, "MB");

  // exec
  set(m, "exec.run_self_us", median(exec_self), "us", d.queries);
  set(m, "exec.batch_us_per_query", d.batch_us_per_query, "us");
  set(m, "exec.pooled_ratio", d.pooled_ratio, "ratio");
  set(m, "exec.tasks_per_batch", d.tasks_per_batch, "count");
  set(m, "exec.build_s", d.build_s, "s");

  // fmeter: the database and live-archive layers
  set(m, "db.search_self_us", median(db_self), "us", d.queries);
  set(m, "live.search_self_us", median(live_self), "us", d.queries);
  const double traced_search_p50 = median(d.live_us);
  set(m, "live.search_p50_us", traced_search_p50, "us", d.queries);
  set(m, "live.segments_at_query_mean", mean(in.segments), "count");
  set(m, "live.segments_at_query_max", max_of(in.segments), "count");
  set(m, "live.tail_docs_at_query_mean", mean(in.tail_docs), "count");
  set(m, "live.tail_docs_at_query_max", max_of(in.tail_docs), "count");
  set_percentile(m, "live.idle_search_p50_us", in.idle_search_us, 0.5, "us");
  set(m, "live.refreezes", in.refreezes, "count");
  set(m, "live.refreeze_s", in.refreeze_s, "s");
  set(m, "live.seal_s", in.seal_s, "s");
  set(m, "live.fold_s", in.fold_s, "s");

  // The write path: add_batch spans and the io spans on the same thread.
  std::vector<double> ack_us, ack_self_us, ack_io_us, sync_ms;
  double sync_in_ack_s = 0.0, ack_total_s = 0.0, syncs_in_ack = 0.0;
  for (const std::int32_t id : tree.named("live.add_batch")) {
    if (!kept(id)) continue;
    const Span& span = tree.spans()[static_cast<std::size_t>(id)];
    ack_us.push_back(span.seconds() * 1e6);
    ack_self_us.push_back(tree.self_seconds(id) * 1e6);
    ack_io_us.push_back(tree.child_seconds(id, "io.") * 1e6);
    ack_total_s += span.seconds();
    sync_in_ack_s += tree.child_seconds(id, "io.sync");
    for (const std::int32_t child : tree.children(id)) {
      const std::string name = tree.spans()[static_cast<std::size_t>(child)].name;
      if (name == "io.sync" || name == "io.sync_dir") syncs_in_ack += 1.0;
    }
  }
  for (std::size_t i = in.mark; i < tree.spans().size(); ++i) {
    const std::string name = tree.spans()[i].name;
    if (name == "io.sync" || name == "io.sync_dir") {
      sync_ms.push_back(tree.spans()[i].seconds() * 1e3);
    }
  }
  const double batches = static_cast<double>(std::max<std::size_t>(ack_us.size(), 1));
  set(m, "live.add_batch_self_us", median(ack_self_us), "us", ack_us.size());
  set(m, "live.add_batch_p50_us", median(ack_us), "us", ack_us.size());
  set(m, "io.add_batch_io_us", median(ack_io_us), "us", ack_us.size());
  set(m, "io.syncs_per_batch", syncs_in_ack / batches, "count");
  set_percentile(m, "io.sync_ms_p50", sync_ms, 0.5, "ms");
  set_percentile(m, "io.sync_ms_p99", sync_ms, 0.99, "ms");
  set(m, "io.sync_share", ack_total_s > 0 ? sync_in_ack_s / ack_total_s : 0.0,
      "ratio");
  const double user = std::max(in.user_bytes, 1.0);
  set(m, "io.write_bytes_per_user_byte",
      static_cast<double>(in.io.written_bytes()) / user, "ratio");
  set(m, "io.journal_bytes_per_user_byte",
      static_cast<double>(in.io.journal_bytes) / user, "ratio");
  set(m, "io.snapshot_bytes_per_user_byte",
      static_cast<double>(in.io.snapshot_bytes) / user, "ratio");

  // Reopens: io reads inside the open span, and the rest.
  std::vector<double> open_self_s, open_read_s, open_read_mb;
  for (const std::int32_t id : tree.named("live.reopen")) {
    if (!kept(id)) continue;
    open_self_s.push_back(tree.self_seconds(id));
    open_read_s.push_back(tree.child_seconds(id, "io.read"));
    double bytes = 0.0;
    for (const std::int32_t child : tree.children(id)) {
      bytes += static_cast<double>(
          tree.spans()[static_cast<std::size_t>(child)].bytes);
    }
    open_read_mb.push_back(bytes / 1e6);
  }
  set(m, "live.open_self_s", median(open_self_s), "s", open_self_s.size());
  set(m, "io.open_read_s", median(open_read_s), "s", open_read_s.size());
  set(m, "io.open_read_mb", median(open_read_mb), "MB", open_read_mb.size());

  // process
  const ProcStats proc = proc_stats();
  set(m, "proc.cpu_s", proc.cpu_s, "s");
  set(m, "proc.invol_ctx_switches", proc.invol_switches, "count");
  set(m, "proc.page_faults", proc.page_faults, "count");

  // Reconciliation: the layers' self times add up to the traced end-to-end
  // median within 10%, or the gap is reported.
  const double read_parts = probe_p50 + median(exec_self) + median(db_self) +
                            median(live_self);
  set(m, "reconcile.read_gap_pct", gap_pct(read_parts, traced_search_p50), "%");
  const double write_parts = median(ack_self_us) + median(ack_io_us);
  set(m, "reconcile.write_gap_pct", gap_pct(write_parts, median(ack_us)), "%");

  // Tracing cost: spans recorded times the measured cost of one span.
  const std::size_t calibrate = 20000;
  const double t0 = now_s();
  for (std::size_t i = 0; i < calibrate; ++i) ScopedSpan span("trace.calibrate");
  const double span_s = (now_s() - t0) / static_cast<double>(calibrate);
  const double spans = static_cast<double>(tree.spans().size());
  set(m, "trace.spans", spans, "count");
  set(m, "trace.overhead_pct", spans * span_s / run_wall_s * 100.0, "%");
}

// ------------------------------------------------------------- workloads

struct Context {
  const RunOptions& options;
  fmeter::io::Env& env;
  TracingEnv* tracing;  ///< null in the untraced run
  std::string dir;
  RunResult result;
  double start_s = now_s();

  IoCounts io() const { return tracing ? tracing->counts() : IoCounts{}; }
};

/// `rss_mb`: the peak resident set of each set-up-and-measure trial.
void common_metrics(Context& ctx, const std::vector<double>& rss_mb) {
  set(ctx.result.end_to_end, "rss_peak_mb", median(rss_mb), "MB", rss_mb.size());
  ctx.result.report["rss_peak_mb"] = ctx.result.end_to_end["rss_peak_mb"];
  const Outcome& o = ctx.result.outcome;
  set(ctx.result.report, "error_ratio",
      static_cast<double>(o.failed) /
          static_cast<double>(std::max<std::uint64_t>(o.attempted, 1)),
      "ratio", o.attempted);
}

/// Setup: bulk-load 100,000 signatures with one add_batch, then fold.
/// Run: a closed-loop client issues single top-10 searches, then 64-query
/// search_batch calls. Each trial sets the archive up afresh, measures its
/// share of the run (half single searches, half batches), checks answers,
/// and reopens the archive, so every kind of sample spans the whole run.
void query_frozen(Context& ctx) {
  constexpr std::size_t kDocs = 100000;
  constexpr int kTrials = kBulkSetups100k;
  const Inputs in = make_inputs(ctx.options.seed, kDocs, 4096);
  Outcome& outcome = ctx.result.outcome;
  const double user =
      static_cast<double>(user_bytes(in.corpus, in.labels, 0, kDocs));

  std::vector<double> setups, rss, search_us, reopens, disk;
  QueryStats stats, batch_stats;
  std::size_t batched = 0;
  double single_s = 0.0, batch_s = 0.0;
  const double half = ctx.options.seconds / kTrials / 2.0;
  LayerInputs layer;
  Decomposition decomposition;
  double refreeze0 = 0.0;
  IoCounts io0;
  for (int trial = 0; trial < kTrials; ++trial) {
    const bool last = trial == kTrials - 1;
    reset_peak_rss();
    if (last) {
      layer.mark = span_mark();
      io0 = ctx.io();
      refreeze0 = refreeze_seconds_total();
    }
    BulkSetup kept = bulk_setup(ctx.env, ctx.dir, in, kDocs, outcome);
    setups.push_back(kept.setup_s);
    disk.push_back(static_cast<double>(directory_bytes(ctx.dir)) / user);
    LiveDatabase& db = *kept.db;

    // Closed loop, single searches.
    for (std::size_t i = 0; i < 200; ++i) db.search(in.queries[i], kTopK);
    double t_begin = now_s();
    for (std::size_t i = 0; now_s() - t_begin < half || i < 1000; ++i) {
      const SparseVector& q = in.queries[i % in.queries.size()];
      const double t0 = now_s();
      {
        ScopedSpan span("live.search", i + 1);
        const auto snap = db.snapshot();
        layer.segments.push_back(static_cast<double>(snap.num_segments()));
        layer.tail_docs.push_back(static_cast<double>(snap.tail_docs()));
        snap.search(q, kTopK, SimilarityMetric::kCosine, PruningMode::kAuto,
                    &stats);
      }
      search_us.push_back((now_s() - t0) * 1e6);
    }
    single_s += now_s() - t_begin;

    // Closed loop, 64-query batches.
    t_begin = now_s();
    for (std::size_t b = 0; now_s() - t_begin < half || b < 10; ++b) {
      const std::size_t first =
          (b * kBatchQueries) % (in.queries.size() - kBatchQueries);
      const std::span<const SparseVector> batch(in.queries.data() + first,
                                                kBatchQueries);
      ScopedSpan span("live.search_batch", b + 1);
      db.search_batch(batch, kTopK, SimilarityMetric::kCosine,
                      PruningMode::kAuto, &batch_stats);
      batched += kBatchQueries;
    }
    batch_s += now_s() - t_begin;
    rss.push_back(peak_rss_mb());

    const auto before = check_against_reference(
        db.snapshot(), in, kDocs, pruned_possible(db), outcome,
        kCheckQueries / kTrials);
    if (last) {
      layer.memory_mb = static_cast<double>(db.stats().memory_bytes) / 1e6;
      layer.refreezes = static_cast<double>(db.refreezes());
      layer.refreeze_s = refreeze_seconds_total() - refreeze0;
      layer.seal_s = kept.seal_s;
      layer.fold_s = kept.fold_s;
      if (ctx.tracing) decomposition = decompose(db, in, outcome);
      ctx.result.facts.emplace_back("refreezes",
                                    std::to_string(db.refreezes()));
    }
    kept.db.reset();  // as on process exit
    const int count = kReopens / kTrials + (trial < kReopens % kTrials ? 1 : 0);
    for (const double t :
         reopen_times(ctx.env, ctx.dir, in, kDocs, before, outcome, count)) {
      reopens.push_back(t);
    }
  }
  record_searches(outcome, stats, search_us.size(), "single searches");
  record_searches(outcome, batch_stats, batched, "batched searches");
  layer.io = ctx.io() - io0;
  layer.user_bytes = user;
  layer.idle_search_us = search_us;

  MetricMap& e = ctx.result.end_to_end;
  MetricMap& r = ctx.result.report;
  set(e, "setup_s", median(setups), "s", setups.size());
  std::vector<double> search_ms;
  for (const double us : search_us) search_ms.push_back(us / 1e3);
  set_percentile(e, "request_p50_ms", search_ms, 0.5, "ms");
  set(e, "throughput_per_s", static_cast<double>(search_us.size()) / single_s,
      "1/s");
  set(e, "recover_s", median(reopens), "s", reopens.size());
  set(e, "disk_bytes_per_user_byte", median(disk), "ratio", disk.size());

  r["setup_s"] = e["setup_s"];
  set_percentile(r, "search_p50_us", search_us, 0.5, "us");
  set_percentile(r, "search_p90_us", search_us, 0.9, "us");
  set_percentile(r, "search_p99_us", search_us, 0.99, "us");
  r["search_qps"] = e["throughput_per_s"];
  set(r, "batch_qps", static_cast<double>(batched) / batch_s, "1/s");
  r["recover_s"] = e["recover_s"];
  r["disk_bytes_per_user_byte"] = e["disk_bytes_per_user_byte"];
  common_metrics(ctx, rss);
  if (ctx.tracing) {
    layer_metrics(layer, decomposition, now_s() - ctx.start_s, ctx.result);
  }
}

/// From an empty directory, one closed-loop writer durably ingests 100,000
/// signatures in 64-signature batches; the archive is then destroyed as on
/// process exit and the reopen is timed. The cycle repeats, each time in a
/// fresh directory, until the ingest time reaches the run length.
void ingest_stream(Context& ctx) {
  constexpr std::size_t kDocs = 100000;
  constexpr int kMinCycles = 4;  // medians over cycles need a few
  constexpr int kMaxCycles = 8;
  const Inputs in = make_inputs(ctx.options.seed, kDocs, 1024);
  Outcome& outcome = ctx.result.outcome;
  const double user = static_cast<double>(user_bytes(in.corpus, in.labels, 0, kDocs));

  std::vector<double> setups, ack_ms, recovers, cpu_per_sig, disk;
  std::vector<double> cycle_sigs_per_s, rss;
  std::vector<std::uint64_t> folds;
  double ingest_s = 0.0;
  LayerInputs layer;
  const double refreeze0 = refreeze_seconds_total();
  const IoCounts io0 = ctx.io();
  std::unique_ptr<LiveDatabase> db;
  int cycles = 0;
  for (; cycles < kMaxCycles &&
         (cycles < kMinCycles || ingest_s < ctx.options.seconds);
       ++cycles) {
    // Set-up: a fresh directory, opened several times for a steady median.
    db.reset();
    reset_peak_rss();
    for (int s = 0; s < kSetups; ++s) {
      db.reset();
      fs::remove_all(ctx.dir);
      const double t0 = now_s();
      db = open_archive(ctx.env, ctx.dir);
      setups.push_back(now_s() - t0);
    }
    if (cycles == 0) layer.mark = span_mark();

    const double cpu0 = fmeter::util::cpu_seconds();
    const double t_begin = now_s();
    for (std::size_t first = 0; first < kDocs; first += kIngestBatch) {
      Slice slice = copy_slice(in, first, std::min(kDocs, first + kIngestBatch));
      const double t0 = now_s();
      std::size_t id = 0;
      {
        ScopedSpan span("live.add_batch", first / kIngestBatch + 1);
        id = db->add_batch(std::move(slice.docs), std::move(slice.labels));
      }
      ack_ms.push_back((now_s() - t0) * 1e3);
      outcome.record(id == first, "add_batch acknowledges the next ids");
    }
    const double cycle_s = now_s() - t_begin;
    ingest_s += cycle_s;
    cycle_sigs_per_s.push_back(static_cast<double>(kDocs) / cycle_s);
    db->wait_for_refreeze();  // background folds belong to ingest CPU
    cpu_per_sig.push_back((fmeter::util::cpu_seconds() - cpu0) * 1e6 /
                          static_cast<double>(kDocs));
    folds.push_back(db->refreezes());
    disk.push_back(static_cast<double>(directory_bytes(ctx.dir)) / user);

    const auto before =
        check_against_reference(db->snapshot(), in, kDocs,
                                pruned_possible(*db), outcome, kCycleCheckQueries);
    db.reset();  // as on process exit
    const double t0 = now_s();
    db = open_archive(ctx.env, ctx.dir, "live.reopen");
    const auto snap = db->snapshot();
    recovers.push_back(now_s() - t0);
    check_recovered(snap, in, kDocs, before, outcome);
    rss.push_back(peak_rss_mb());
  }

  std::string fold_list;
  for (const auto f : folds) fold_list += (fold_list.empty() ? "" : ",") + std::to_string(f);
  ctx.result.facts.emplace_back("refreezes", fold_list);

  MetricMap& e = ctx.result.end_to_end;
  MetricMap& r = ctx.result.report;
  set(e, "setup_s", median(setups), "s", setups.size());
  set_percentile(e, "request_p50_ms", ack_ms, 0.5, "ms");
  set(e, "throughput_per_s", median(cycle_sigs_per_s), "1/s",
      cycle_sigs_per_s.size());
  set(e, "recover_s", median(recovers), "s", recovers.size());
  set(e, "disk_bytes_per_user_byte", median(disk), "ratio", disk.size());

  r["setup_s"] = e["setup_s"];
  r["ingest_sigs_per_s"] = e["throughput_per_s"];
  set(r, "ingest_cpu_us_per_sig", median(cpu_per_sig), "us", cpu_per_sig.size());
  set_percentile(r, "ack_p50_ms", ack_ms, 0.5, "ms");
  set_percentile(r, "ack_p90_ms", ack_ms, 0.9, "ms");
  set_percentile(r, "ack_p99_ms", ack_ms, 0.99, "ms");
  r["recover_s"] = e["recover_s"];
  r["disk_bytes_per_user_byte"] = e["disk_bytes_per_user_byte"];
  common_metrics(ctx, rss);

  if (ctx.tracing) {
    const Decomposition decomposition = decompose(*db, in, outcome);
    double fold_total = 0.0;
    for (const auto f : folds) fold_total += static_cast<double>(f);
    layer.io = ctx.io() - io0;
    layer.user_bytes = user * cycles;
    layer.refreezes = fold_total / cycles;
    layer.refreeze_s = (refreeze_seconds_total() - refreeze0) / cycles;
    layer.fold_s = layer.refreeze_s;
    double seal_total = 0.0;
    for (const double a : ack_ms) seal_total += a / 1e3;
    layer.seal_s = seal_total / cycles;
    layer.memory_mb = static_cast<double>(db->stats().memory_bytes) / 1e6;
    layer.idle_search_us = decomposition.live_us;
    layer.segments = decomposition.segments;
    layer.tail_docs = decomposition.tail_docs;
    layer_metrics(layer, decomposition, now_s() - ctx.start_s, ctx.result);
  }
}

/// Setup: bulk-load and fold 50,000 signatures. A closed-loop idle phase,
/// then two open-loop streams together: ingest at 2,000 signatures/s in
/// 64-signature batches and 100 searches/s, each timed from its due time.
void monitor_mixed(Context& ctx) {
  constexpr std::size_t kBase = 50000;
  constexpr double kIngestRate = 2000.0;  // signatures per second
  constexpr double kSearchRate = 100.0;   // searches per second
  constexpr double kIdleSeconds = 2.0;
  const double mixed_s = std::max(ctx.options.seconds, 10.0);
  const double ingest_interval = static_cast<double>(kIngestBatch) / kIngestRate;
  const auto max_batches =
      static_cast<std::size_t>(std::ceil(mixed_s / ingest_interval)) + 1;
  const Inputs in = make_inputs(ctx.options.seed,
                                kBase + max_batches * kIngestBatch, 4096);
  Outcome& outcome = ctx.result.outcome;

  std::vector<double> setups;
  BulkSetup kept;
  LayerInputs layer;
  double refreeze0 = 0.0;
  IoCounts io0;
  for (int r = 0; r < kSetups; ++r) {
    kept.db.reset();
    if (r == kSetups - 1) {
      reset_peak_rss();
      layer.mark = span_mark();
      io0 = ctx.io();
      refreeze0 = refreeze_seconds_total();
    }
    kept = bulk_setup(ctx.env, ctx.dir, in, kBase, outcome);
    setups.push_back(kept.setup_s);
  }
  LiveDatabase& db = *kept.db;

  // Idle phase: the same archive with no ingest, closed loop.
  for (std::size_t i = 0; i < 100; ++i) db.search(in.queries[i], kTopK);
  std::vector<double> idle_us;
  const double idle_begin = now_s();
  for (std::size_t i = 0; now_s() - idle_begin < kIdleSeconds || idle_us.size() < 200;
       ++i) {
    const double t0 = now_s();
    {
      ScopedSpan span("live.search", i + 1);
      db.search(in.queries[i % in.queries.size()], kTopK);
    }
    idle_us.push_back((now_s() - t0) * 1e6);
  }

  // Mixed phase: one ingest thread and this thread's search stream.
  SteadyClock clock;
  const double start = now_s() + 0.05;
  const double end = start + mixed_s;
  std::vector<OpenLoopSample> acks;
  Outcome ingest_outcome;
  std::thread writer([&] {
    Tracer::register_client_thread();
    SteadyClock writer_clock;
    acks = run_open_loop(writer_clock, start, ingest_interval, end,
                         [&](std::size_t b) {
      const std::size_t first = kBase + b * kIngestBatch;
      Slice slice = copy_slice(in, first, first + kIngestBatch);
      ScopedSpan span("live.add_batch", b + 1);
      try {
        ingest_outcome.record(
            db.add_batch(std::move(slice.docs), std::move(slice.labels)) ==
                first,
            "add_batch acknowledges the next ids");
      } catch (const std::exception& error) {
        ingest_outcome.record(false, std::string("add_batch: ") + error.what());
      }
    });
  });
  QueryStats stats;
  std::uint64_t search_failures = 0;
  const auto searches = run_open_loop(
      clock, start, 1.0 / kSearchRate, end, [&](std::size_t i) {
        ScopedSpan span("live.search", 1000000 + i);
        try {
          const auto snap = db.snapshot();
          layer.segments.push_back(static_cast<double>(snap.num_segments()));
          layer.tail_docs.push_back(static_cast<double>(snap.tail_docs()));
          snap.search(in.queries[i % in.queries.size()], kTopK,
                      SimilarityMetric::kCosine, PruningMode::kAuto, &stats);
        } catch (const std::exception&) {
          ++search_failures;
        }
      });
  writer.join();
  db.wait_for_refreeze();
  double last_done = start;
  for (const auto& s : acks) last_done = std::max(last_done, s.done);
  for (const auto& s : searches) last_done = std::max(last_done, s.done);

  outcome.attempted += ingest_outcome.attempted;
  outcome.failed += ingest_outcome.failed + search_failures;
  for (const auto& f : ingest_outcome.failures) outcome.failures.push_back(f);
  record_searches(outcome, stats, searches.size(), "mixed searches");

  // Generator lag, and whether it grew: a backlog invalidates the run.
  std::vector<double> lag_ms, search_ms, ack_latency_ms;
  for (const auto& s : acks) {
    lag_ms.push_back(s.lag() * 1e3);
    ack_latency_ms.push_back(s.latency() * 1e3);
  }
  for (const auto& s : searches) {
    lag_ms.push_back(s.lag() * 1e3);
    search_ms.push_back(s.latency() * 1e3);
  }
  const auto quarter_lag = [](const std::vector<OpenLoopSample>& v, bool tail) {
    std::vector<double> q;
    const std::size_t n = v.size() / 4;
    for (std::size_t i = 0; i < n; ++i) {
      q.push_back(v[tail ? v.size() - n + i : i].lag());
    }
    return median(q);
  };
  const double growth = quarter_lag(searches, true) - quarter_lag(searches, false);
  outcome.record(growth < 0.05, "open-loop generator keeps its schedule");

  const std::vector<double> rss = {peak_rss_mb()};
  const std::size_t docs = kBase + acks.size() * kIngestBatch;
  const auto before = check_against_reference(db.snapshot(), in, docs,
                                              pruned_possible(db), outcome);
  const double user = static_cast<double>(user_bytes(in.corpus, in.labels, 0, docs));
  const double disk = static_cast<double>(directory_bytes(ctx.dir)) / user;
  layer.memory_mb = static_cast<double>(db.stats().memory_bytes) / 1e6;
  layer.refreezes = static_cast<double>(db.refreezes());
  layer.refreeze_s = refreeze_seconds_total() - refreeze0;
  layer.seal_s = kept.seal_s;
  layer.fold_s = kept.fold_s;
  layer.idle_search_us = idle_us;
  Decomposition decomposition;
  if (ctx.tracing) decomposition = decompose(db, in, outcome);
  ctx.result.facts.emplace_back("refreezes", std::to_string(db.refreezes()));
  kept.db.reset();

  const auto reopens = reopen_times(ctx.env, ctx.dir, in, docs, before, outcome);
  layer.io = ctx.io() - io0;
  layer.user_bytes = user;

  MetricMap& e = ctx.result.end_to_end;
  MetricMap& r = ctx.result.report;
  set(e, "setup_s", median(setups), "s", setups.size());
  set_percentile(e, "request_p50_ms", search_ms, 0.5, "ms");
  set(e, "throughput_per_s",
      static_cast<double>(acks.size() * kIngestBatch) / (last_done - start),
      "1/s");
  set(e, "recover_s", median(reopens), "s", reopens.size());
  set(e, "disk_bytes_per_user_byte", disk, "ratio");

  r["setup_s"] = e["setup_s"];
  std::vector<double> search_us;
  for (const double ms : search_ms) search_us.push_back(ms * 1e3);
  set_percentile(r, "search_p50_us", search_us, 0.5, "us");
  set_percentile(r, "search_p90_us", search_us, 0.9, "us");
  set_percentile(r, "search_p99_us", search_us, 0.99, "us");
  set_percentile(r, "ack_p50_ms", ack_latency_ms, 0.5, "ms");
  set_percentile(r, "ack_p90_ms", ack_latency_ms, 0.9, "ms");
  set_percentile(r, "ack_p99_ms", ack_latency_ms, 0.99, "ms");
  set_percentile(r, "generator_lag_ms", lag_ms, 0.99, "ms");
  set(r, "ingest_sigs_per_s", e["throughput_per_s"].value.value_or(0.0), "1/s");
  r["recover_s"] = e["recover_s"];
  r["disk_bytes_per_user_byte"] = e["disk_bytes_per_user_byte"];
  common_metrics(ctx, rss);
  if (ctx.tracing) {
    layer_metrics(layer, decomposition, now_s() - ctx.start_s, ctx.result);
  }
}

}  // namespace

const std::vector<std::string>& end_to_end_names() {
  static const std::vector<std::string> names = {
      "setup_s",   "request_p50_ms",           "throughput_per_s",
      "recover_s", "disk_bytes_per_user_byte", "rss_peak_mb"};
  return names;
}

const std::vector<std::string>& per_layer_names() {
  static const std::vector<std::string> names = {
      "index.probe_us",
      "index.postings_per_query",
      "index.docs_scored_per_query",
      "index.docs_pruned_per_query",
      "index.blocks_skipped_per_query",
      "index.forward_gathers_per_query",
      "index.ns_per_posting",
      "index.memory_mb",
      "exec.run_self_us",
      "exec.batch_us_per_query",
      "exec.pooled_ratio",
      "exec.tasks_per_batch",
      "exec.build_s",
      "db.search_self_us",
      "live.search_self_us",
      "live.search_p50_us",
      "live.segments_at_query_mean",
      "live.segments_at_query_max",
      "live.tail_docs_at_query_mean",
      "live.tail_docs_at_query_max",
      "live.idle_search_p50_us",
      "live.refreezes",
      "live.refreeze_s",
      "live.seal_s",
      "live.fold_s",
      "live.add_batch_self_us",
      "live.add_batch_p50_us",
      "live.open_self_s",
      "io.add_batch_io_us",
      "io.syncs_per_batch",
      "io.sync_ms_p50",
      "io.sync_ms_p99",
      "io.sync_share",
      "io.write_bytes_per_user_byte",
      "io.journal_bytes_per_user_byte",
      "io.snapshot_bytes_per_user_byte",
      "io.open_read_mb",
      "io.open_read_s",
      "proc.cpu_s",
      "proc.invol_ctx_switches",
      "proc.page_faults",
      "reconcile.read_gap_pct",
      "reconcile.write_gap_pct",
      "trace.spans",
      "trace.overhead_pct"};
  return names;
}

RunResult run_workload(const RunOptions& options) {
  Tracer::register_client_thread();
  fs::create_directories(options.work_dir);
  std::unique_ptr<TracingEnv> tracing;
  if (options.trace) {
    Tracer::instance().enable();
    tracing = std::make_unique<TracingEnv>(fmeter::io::Env::posix());
  }
  fmeter::io::Env& env =
      tracing ? static_cast<fmeter::io::Env&>(*tracing) : fmeter::io::Env::posix();
  Context ctx{options, env, tracing.get(),
              options.work_dir + "/archive-" + options.workload, {}};
  if (options.workload == "query_frozen") {
    query_frozen(ctx);
  } else if (options.workload == "ingest_stream") {
    ingest_stream(ctx);
  } else if (options.workload == "monitor_mixed") {
    monitor_mixed(ctx);
  } else {
    throw std::invalid_argument("unknown workload: " + options.workload);
  }
  fs::remove_all(ctx.dir);
  if (options.trace) {
    Tracer::instance().write(options.work_dir + "/spans-" + options.workload +
                             "-" + std::to_string(options.seed) + ".tsv");
  }
  return std::move(ctx.result);
}

}  // namespace perfbench
