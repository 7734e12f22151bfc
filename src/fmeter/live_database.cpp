#include "fmeter/live_database.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <iterator>
#include <utility>

#include "exec/sharded_index.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fmeter::core {
namespace {

struct LiveMetrics {
  obs::Counter* batches;
  obs::Counter* docs;
  obs::Counter* refreezes;
  obs::Counter* refreeze_failures;
  obs::Counter* segment_merges;
  obs::Histogram* publish_ns;
  obs::Histogram* refreeze_ns;
  obs::Histogram* segment_merge_ns;
};

const LiveMetrics& live_metrics() {
  static const LiveMetrics m = [] {
    obs::MetricsRegistry& r = obs::MetricsRegistry::global();
    LiveMetrics out;
    out.batches = &r.counter("fmeter_live_batches_total",
                             "Batches sealed into live-archive segments");
    out.docs = &r.counter("fmeter_live_docs_ingested_total",
                          "Signatures ingested through the live archive");
    out.refreezes = &r.counter("fmeter_live_refreezes_total",
                               "Tail folds committed (epoch swaps)");
    out.refreeze_failures =
        &r.counter("fmeter_live_refreeze_failures_total",
                   "Background re-freezes or merges that died on an error");
    out.publish_ns = &r.histogram(
        "fmeter_live_publish_ns",
        "Wall time of the locked section of add_batch (journal + publish)");
    out.refreeze_ns = &r.histogram("fmeter_live_refreeze_ns",
                                   "Wall time of one committed re-freeze");
    out.segment_merges =
        &r.counter("fmeter_live_segment_merges_total",
                   "Runs of tail segments merged into one segment");
    out.segment_merge_ns = &r.histogram(
        "fmeter_live_segment_merge_ns",
        "Wall time of one tail segment merge (copy, seal and swap)");
    return out;
  }();
  return m;
}

std::uint64_t elapsed_ns(const std::chrono::steady_clock::time_point& start) {
  const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  return ns < 0 ? 0 : static_cast<std::uint64_t>(ns);
}

/// The one shared ordering (index::ranks_better over global ids): score
/// descending, ascending id as the tie-break. Merging per-part top-k lists
/// with it reproduces the monolithic ranking exactly because per-document
/// scores do not depend on which part holds the document.
bool hit_ranks_better(const SearchHit& a, const SearchHit& b) {
  if (a.score != b.score) return a.score > b.score;
  return a.id < b.id;
}

/// Seals documents into an immutable segment — the one rule shared by
/// add_batch, merges and journal replay, so a reopened archive has exactly
/// the segment shapes the writer settled on. A segment of at least
/// kMinDocsForParallelBuild docs is built across the base's shard count:
/// on every core, and byte for byte the base a bulk build of those docs
/// would produce, so a fold over an empty base can adopt it unchanged.
/// Smaller segments take one shard, where fan-out costs more than it saves.
std::shared_ptr<const SignatureDatabase> seal_segment(
    std::vector<vsm::SparseVector> signatures, std::vector<std::string> labels,
    std::size_t base_shards) {
  const std::size_t shards =
      signatures.size() >= exec::kMinDocsForParallelBuild ? base_shards : 1;
  auto segment = std::make_shared<SignatureDatabase>(shards);
  segment->add_batch(std::move(signatures), std::move(labels));
  return segment;
}

/// Appends every document of `db` to the two vectors.
void copy_documents(const SignatureDatabase& db,
                    std::vector<vsm::SparseVector>& signatures,
                    std::vector<std::string>& labels) {
  for (std::size_t i = 0; i < db.size(); ++i) {
    signatures.push_back(db.signature(i));
    labels.push_back(db.label(i));
  }
}

}  // namespace

// ------------------------------------------------------------ the ladder

std::size_t segment_tier(std::size_t docs) noexcept {
  std::size_t tier = 0;
  for (; docs >= kSegmentMergeFanout; docs /= kSegmentMergeFanout) ++tier;
  return tier;
}

std::optional<SegmentRun> next_merge(
    std::span<const std::size_t> segment_docs) {
  const std::size_t n = segment_docs.size();
  const auto tier = [&](std::size_t i) { return segment_tier(segment_docs[i]); };
  // Order first: a segment outranking its predecessor absorbs the run of
  // lower-tier segments just before it.
  for (std::size_t i = n; i-- > 1;) {
    const std::size_t top = tier(i);
    if (top <= tier(i - 1)) continue;
    std::size_t begin = i - 1;
    while (begin > 0 && tier(begin - 1) < top) --begin;
    return SegmentRun{begin, i + 1};
  }
  // Tiers now descend from oldest to newest, so each tier's segments are
  // adjacent and the newest end meets them lowest tier first.
  std::size_t end = n;
  while (end > 0) {
    const std::size_t current = tier(end - 1);
    std::size_t begin = end - 1;
    while (begin > 0 && tier(begin - 1) == current) --begin;
    if (end - begin >= kSegmentMergeFanout) return SegmentRun{begin, n};
    end = begin;
  }
  return std::nullopt;
}

// ---------------------------------------------------------------- Snapshot

std::size_t LiveDatabase::Snapshot::size() const noexcept {
  return epoch_->total_docs;
}

std::uint64_t LiveDatabase::Snapshot::sequence() const noexcept {
  return epoch_->sequence;
}

std::uint64_t LiveDatabase::Snapshot::manifest_epoch() const noexcept {
  return epoch_->manifest_epoch;
}

std::size_t LiveDatabase::Snapshot::base_docs() const noexcept {
  return epoch_->base_docs;
}

std::size_t LiveDatabase::Snapshot::tail_docs() const noexcept {
  return epoch_->total_docs - epoch_->base_docs;
}

std::size_t LiveDatabase::Snapshot::num_segments() const noexcept {
  return epoch_->segments.size();
}

std::pair<const SignatureDatabase*, std::size_t>
LiveDatabase::Snapshot::locate(std::size_t id) const {
  if (id < epoch_->base_docs) return {epoch_->base.get(), id};
  // Segments are ordered by first_id; find the one whose range holds `id`.
  const auto& segments = epoch_->segments;
  auto it = std::upper_bound(
      segments.begin(), segments.end(), id,
      [](std::size_t value, const LiveSegment& seg) {
        return value < seg.first_id;
      });
  if (it == segments.begin()) {
    throw std::out_of_range("LiveDatabase: id out of range");
  }
  --it;
  return {it->db.get(), id - it->first_id};
}

const std::string& LiveDatabase::Snapshot::label(std::size_t id) const {
  const auto [part, local] = locate(id);
  return part->label(local);
}

const vsm::SparseVector& LiveDatabase::Snapshot::signature(
    std::size_t id) const {
  const auto [part, local] = locate(id);
  return part->signature(local);
}

std::vector<SearchHit> LiveDatabase::Snapshot::search(
    const vsm::SparseVector& query, std::size_t k, SimilarityMetric metric,
    PruningMode mode, QueryStats* stats, const SearchOptions& options) const {
  auto results = search_batch({&query, 1}, k, metric, mode, stats, options);
  return std::move(results.front());
}

std::vector<std::vector<SearchHit>> LiveDatabase::Snapshot::search_batch(
    std::span<const vsm::SparseVector> queries, std::size_t k,
    SimilarityMetric metric, PruningMode mode, QueryStats* stats,
    const SearchOptions& options) const {
  const LiveEpoch& epoch = *epoch_;
  if (epoch.segments.empty() || k == 0) {
    return epoch.base->search_batch(queries, k, metric, ScanPolicy::kIndexed,
                                    mode, stats, options);
  }

  // Every part (the base, then each segment) is probed with the caller's
  // deadline and fault seam, the seam's shard numbers shifted past the
  // parts before. Outcomes are collected per part and folded per query.
  const bool track = options.outcomes != nullptr;
  std::vector<QueryOutcome> part_outcomes;
  std::vector<QueryOutcome> folded(track ? queries.size() : 0,
                                   QueryOutcome::kOk);
  std::vector<bool> answered(folded.size(), false);
  QueryStats part_stats;
  SearchOptions part_options;
  part_options.deadline = options.deadline;
  if (track) part_options.outcomes = &part_outcomes;
  std::size_t shard_offset = 0;
  if (options.inject_cell_fault) {
    part_options.inject_cell_fault = [&](std::size_t query, std::size_t shard) {
      options.inject_cell_fault(query, shard_offset + shard);
    };
  }
  const auto probe = [&](const SignatureDatabase& part) {
    auto hits = part.search_batch(queries, k, metric, ScanPolicy::kIndexed,
                                  mode, &part_stats, part_options);
    shard_offset += part.num_shards();
    for (std::size_t q = 0; q < folded.size(); ++q) {
      if (part_outcomes[q] == QueryOutcome::kOk) {
        answered[q] = true;
      } else if (folded[q] == QueryOutcome::kOk) {
        folded[q] = part_outcomes[q];
      }
    }
    return hits;
  };

  auto results = probe(*epoch.base);
  for (const LiveSegment& segment : epoch.segments) {
    auto partial = probe(*segment.db);
    for (std::size_t q = 0; q < partial.size(); ++q) {
      for (SearchHit& hit : partial[q]) {
        hit.id += segment.first_id;
        results[q].push_back(std::move(hit));
      }
    }
  }
  // Each part contributed its own full top-k, so the global top-k is a
  // subset of the union; one sort by the shared ordering recovers it.
  for (auto& merged : results) {
    std::sort(merged.begin(), merged.end(), hit_ranks_better);
    if (merged.size() > k) merged.resize(k);
  }

  if (track) {
    // Each part tallied its own outcomes; count each query once instead.
    part_stats.deadline_exceeded = 0;
    part_stats.cancelled = 0;
    part_stats.shard_failed = 0;
    part_stats.partial_results = 0;
    for (std::size_t q = 0; q < folded.size(); ++q) {
      switch (folded[q]) {
        case QueryOutcome::kOk:
        case QueryOutcome::kRejected:  // tallied by the part that refused it
          continue;
        case QueryOutcome::kDeadlineExceeded:
          ++part_stats.deadline_exceeded;
          break;
        case QueryOutcome::kCancelled:
          ++part_stats.cancelled;
          break;
        case QueryOutcome::kShardFailed:
          ++part_stats.shard_failed;
          break;
      }
      if (answered[q] || !results[q].empty()) ++part_stats.partial_results;
    }
    *options.outcomes = std::move(folded);
  }
  if (stats != nullptr) *stats += part_stats;
  return results;
}

// ------------------------------------------------------------ LiveDatabase

LiveDatabase::LiveDatabase(io::Env& env, std::string dir, LiveOptions options)
    : env_(env), dir_(std::move(dir)), options_(options) {
  open();
}

LiveDatabase::~LiveDatabase() {
  wait_for_refreeze();
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  try {
    if (journal_) journal_->close();
  } catch (...) {
    // Destructors do not throw; an unsynced tail under kNone was already
    // lost by contract, and synced bytes survive a failed close.
  }
}

void LiveDatabase::open() {
  env_.create_dir(dir_);  // idempotent in every Env

  auto base = std::make_shared<SignatureDatabase>(
      options_.num_shards > 0 ? SignatureDatabase(options_.num_shards)
                              : SignatureDatabase());
  auto epoch = std::make_shared<LiveEpoch>();

  Manifest manifest;
  if (!env_.file_exists(manifest_path(dir_))) {
    // Fresh directory — or a crash beat the very first manifest commit, in
    // which case nothing was ever durable and fresh is the truth.
    recovery_.created = true;
    manifest.epoch = 0;
    manifest.journal = journal_name(0);
    if (options_.journaled) {
      journal_ = std::make_unique<io::journal::Writer>(
          env_, dir_ + "/" + manifest.journal, options_.sync_policy);
    }
    write_manifest(env_, dir_, manifest);
  } else {
    manifest = read_manifest(env_, dir_);
    if (!manifest.snapshot.empty()) {
      base->load(env_, dir_ + "/" + manifest.snapshot);
      recovery_.snapshot_loaded = true;
    }
    // Replay: the intact journal records are planned into the settled
    // ladder with the writer's own rule (next_merge), then each planned
    // group is sealed once — fewer, larger builds than one per record, and
    // searches bit-identical to a fresh bulk build of the same docs.
    struct Record {
      std::vector<vsm::SparseVector> signatures;
      std::vector<std::string> labels;
      JournalRecord payload;
    };
    std::vector<Record> records;
    std::vector<std::size_t> group_docs;   // the planned ladder, oldest first
    std::vector<std::size_t> group_first;  // index of each group's first record
    const std::string journal_path = dir_ + "/" + manifest.journal;
    const auto replayed = io::journal::replay(
        env_, journal_path,
        [&](std::span<const std::byte> payload) {
          Record record;
          decode_batch(payload, record.signatures, record.labels);
          if (record.signatures.empty()) return;
          record.payload = std::make_shared<const std::vector<std::byte>>(
              payload.begin(), payload.end());
          group_docs.push_back(record.signatures.size());
          group_first.push_back(records.size());
          records.push_back(std::move(record));
          while (const auto run = next_merge(group_docs)) {
            std::size_t docs = 0;
            for (std::size_t g = run->begin; g < run->end; ++g) {
              docs += group_docs[g];
            }
            const auto first = static_cast<std::ptrdiff_t>(run->begin);
            group_docs.erase(group_docs.begin() + first + 1,
                             group_docs.begin() +
                                 static_cast<std::ptrdiff_t>(run->end));
            group_first.erase(group_first.begin() + first + 1,
                              group_first.begin() +
                                  static_cast<std::ptrdiff_t>(run->end));
            group_docs[run->begin] = docs;
          }
        },
        /*repair=*/true);
    std::size_t next_id = base->size();
    std::vector<LiveSegment> segments;
    group_first.push_back(records.size());
    for (std::size_t g = 0; g + 1 < group_first.size(); ++g) {
      std::vector<vsm::SparseVector> signatures;
      std::vector<std::string> labels;
      signatures.reserve(group_docs[g]);
      labels.reserve(group_docs[g]);
      LiveSegment segment;
      segment.first_id = next_id;
      for (std::size_t r = group_first[g]; r < group_first[g + 1]; ++r) {
        Record& record = records[r];
        std::move(record.signatures.begin(), record.signatures.end(),
                  std::back_inserter(signatures));
        std::move(record.labels.begin(), record.labels.end(),
                  std::back_inserter(labels));
        segment.journal_records.push_back(std::move(record.payload));
      }
      next_id += signatures.size();
      segment.db = seal_segment(std::move(signatures), std::move(labels),
                                base->num_shards());
      segments.push_back(std::move(segment));
    }
    recovery_.journal_records_replayed = replayed.records;
    recovery_.journal_truncated = replayed.truncated_tail;
    recovery_.journal_bytes_dropped = replayed.dropped_bytes;
    recovery_.truncate_reason = replayed.truncate_reason;
    if (options_.journaled) {
      journal_ = std::make_unique<io::journal::Writer>(
          env_, journal_path, options_.sync_policy);
    }
    epoch->segments = std::move(segments);
    epoch->total_docs = next_id - base->size();  // tail; base added below
  }

  manifest_epoch_ = manifest.epoch;
  recovery_.epoch = manifest.epoch;
  base_shards_ = base->num_shards();
  epoch->manifest_epoch = manifest.epoch;
  epoch->base_docs = base->size();
  epoch->total_docs += epoch->base_docs;
  epoch->base = std::move(base);
  publish(std::move(epoch));

  // Sweep crash leftovers: everything the manifest does not name is
  // garbage — torn atomic-commit temps, a superseded epoch's files.
  bool removed_any = false;
  for (const std::string& name : env_.list_dir(dir_)) {
    if (name == "MANIFEST" || name == manifest.snapshot ||
        name == manifest.journal) {
      continue;
    }
    env_.remove_file(dir_ + "/" + name);
    recovery_.removed_files.push_back(name);
    removed_any = true;
  }
  if (removed_any) env_.sync_dir(dir_);
}

std::shared_ptr<const LiveDatabase::LiveEpoch> LiveDatabase::acquire() const {
  const std::lock_guard<std::mutex> lock(publish_mutex_);
  return published_;
}

void LiveDatabase::publish(std::shared_ptr<const LiveEpoch> epoch) {
  const std::lock_guard<std::mutex> lock(publish_mutex_);
  published_ = std::move(epoch);
}

void LiveDatabase::check_not_poisoned() const {
  if (commit_poisoned_) {
    throw DurabilityError(
        "LiveDatabase: a re-freeze commit failed between the manifest swap "
        "and the in-memory swap; disk and RAM may disagree about the "
        "current journal. Reopen the directory to recover.");
  }
}

LiveDatabase::Snapshot LiveDatabase::snapshot() const {
  return Snapshot(acquire());
}

std::size_t LiveDatabase::add_batch(std::vector<vsm::SparseVector> signatures,
                                    std::vector<std::string> labels) {
  // Validate before journaling *and* before sealing, so every record that
  // reaches the journal replays cleanly and a bad batch changes nothing.
  SignatureDatabase::validate_batch(signatures, labels);
  if (signatures.empty()) return acquire()->total_docs;

  // Seal outside the writer lock: concurrent ingests encode and build
  // their segments in parallel; only the journal append + pointer swap
  // serialize.
  JournalRecord payload;
  if (options_.journaled) {
    payload = std::make_shared<const std::vector<std::byte>>(
        encode_batch(signatures, labels));
  }
  const std::size_t batch = signatures.size();
  auto segment_db =
      seal_segment(std::move(signatures), std::move(labels), base_shards_);

  std::size_t first = 0;
  {
    const std::lock_guard<std::mutex> lock(writer_mutex_);
    check_not_poisoned();
    const auto start = std::chrono::steady_clock::now();
    if (journal_) {
      journal_->append(*payload);
      if (options_.sync_each_epoch &&
          options_.sync_policy == io::journal::SyncPolicy::kNone) {
        // Group commit: one fsync per published epoch, the contract that
        // bounds a crash to losing at most the current epoch.
        journal_->sync();
      }
    }
    const auto current = acquire();
    auto next = std::make_shared<LiveEpoch>(*current);
    next->sequence = current->sequence + 1;
    first = current->total_docs;
    LiveSegment segment;
    segment.first_id = first;
    segment.db = std::move(segment_db);
    if (payload) segment.journal_records.push_back(std::move(payload));
    next->segments.push_back(std::move(segment));
    next->total_docs = current->total_docs + batch;
    publish(std::move(next));
    live_metrics().publish_ns->record(elapsed_ns(start));
  }

  live_metrics().batches->inc();
  live_metrics().docs->inc(batch);
  after_publish();
  return first;
}

void LiveDatabase::sync() {
  const std::lock_guard<std::mutex> lock(writer_mutex_);
  check_not_poisoned();
  if (journal_) journal_->sync();
}

bool LiveDatabase::fold_due(const LiveEpoch& epoch) const {
  const std::size_t tail = epoch.total_docs - epoch.base_docs;
  return !epoch.segments.empty() && tail >= options_.refreeze_min_docs &&
         static_cast<double>(tail) >=
             options_.refreeze_fraction *
                 static_cast<double>(epoch.base_docs);
}

std::optional<SegmentRun> LiveDatabase::plan_merge(const LiveEpoch& epoch) {
  std::vector<std::size_t> docs;
  docs.reserve(epoch.segments.size());
  for (const LiveSegment& segment : epoch.segments) {
    docs.push_back(segment.db->size());
  }
  return next_merge(docs);
}

void LiveDatabase::after_publish() {
  if (!options_.background_refreeze) {
    // Inline: settle the ladder on the writer's thread, unless a fold or
    // another writer's merge holds the slot (the next batch retries).
    if (refreeze_inflight_.exchange(true)) return;
    try {
      while (do_merge()) {
      }
    } catch (const std::exception&) {
      // The batch is already published and durable; a merge that could
      // not be built leaves the tail as it was, and the next batch retries.
    }
    refreeze_inflight_.store(false);
    return;
  }
  {
    const auto current = acquire();
    if (!fold_due(*current) && !plan_merge(*current)) return;
  }
  if (refreeze_inflight_.exchange(true)) return;  // single-flight
  exec::TaskPool& pool =
      options_.pool != nullptr ? *options_.pool : exec::TaskPool::shared();
  try {
    const std::lock_guard<std::mutex> lock(refreeze_mutex_);
    refreeze_future_ = pool.submit([this] { run_maintenance(); });
  } catch (...) {
    refreeze_inflight_.store(false);
    throw;
  }
}

void LiveDatabase::run_maintenance() {
  try {
    for (;;) {
      if (fold_due(*acquire())) {
        if (!do_refreeze()) break;
      } else if (!do_merge()) {
        break;
      }
    }
  } catch (const std::exception&) {
    // Background work fails soft: the published epoch is untouched,
    // ingest continues, the next qualifying batch retries. Torn files
    // are unreferenced and swept at the next open.
    live_metrics().refreeze_failures->inc();
  }
  refreeze_inflight_.store(false);
}

bool LiveDatabase::refreeze_now() {
  if (refreeze_inflight_.exchange(true)) {
    wait_for_refreeze();
    return false;
  }
  bool committed = false;
  try {
    committed = do_refreeze();
  } catch (...) {
    refreeze_inflight_.store(false);
    throw;
  }
  refreeze_inflight_.store(false);
  return committed;
}

void LiveDatabase::wait_for_refreeze() {
  std::future<void> pending;
  {
    const std::lock_guard<std::mutex> lock(refreeze_mutex_);
    if (refreeze_future_.valid()) pending = std::move(refreeze_future_);
  }
  if (pending.valid()) pending.wait();
}

bool LiveDatabase::do_refreeze() {
  const auto capture = acquire();
  if (capture->segments.empty()) return false;
  if (options_.after_refreeze_capture) options_.after_refreeze_capture();
  const auto start = std::chrono::steady_clock::now();
  const obs::StageSpan span(obs::Stage::kRefreeze);

  // 1. The new base, from the pinned capture — no locks held, ingest
  //    keeps publishing segments meanwhile. It is byte for byte the
  //    database a bulk build of the same documents would produce:
  //    * an empty base plus one segment sealed across base_shards_ shards
  //      already is that bulk build (see seal_segment), so it is adopted
  //      as the base unchanged — no copy, no rebuild;
  //    * any other capture is copied out and rebuilt through add_batch.
  const SignatureDatabase& old_base = *capture->base;
  std::shared_ptr<const SignatureDatabase> fresh;
  if (old_base.empty() && capture->segments.size() == 1 &&
      capture->segments.front().db->num_shards() == base_shards_) {
    fresh = capture->segments.front().db;
  } else {
    std::vector<vsm::SparseVector> signatures;
    std::vector<std::string> labels;
    signatures.reserve(capture->total_docs);
    labels.reserve(capture->total_docs);
    copy_documents(old_base, signatures, labels);
    for (const LiveSegment& segment : capture->segments) {
      copy_documents(*segment.db, signatures, labels);
    }
    auto rebuilt = std::make_shared<SignatureDatabase>(base_shards_);
    rebuilt->add_batch(std::move(signatures), std::move(labels));
    fresh = std::move(rebuilt);
  }

  // 2. Write the new base as the next epoch's snapshot — still no locks;
  //    the file is atomic-committed and unreferenced until the manifest
  //    swap, so a crash (or failure) here leaves garbage for the sweep,
  //    never a torn archive.
  const std::uint64_t next_epoch = manifest_epoch_ + 1;
  const std::string snapshot_file = snapshot_name(next_epoch);
  fresh->save(env_, dir_ + "/" + snapshot_file);

  // 3. The commit section, under the writer lock (ingest pauses for the
  //    duration of a journal rotation + manifest swap, not the rebuild).
  {
    const std::lock_guard<std::mutex> lock(writer_mutex_);
    check_not_poisoned();
    const auto current = acquire();

    // Segments sealed after the capture survive the fold. Their journal
    // records move to the fresh journal *before* the manifest swap — the
    // old journal dies with the old epoch, and a synced batch must not
    // lose its durable copy in the swap.
    std::vector<LiveSegment> survivors;
    for (const LiveSegment& segment : current->segments) {
      if (segment.first_id >= capture->total_docs) {
        survivors.push_back(segment);
      }
    }
    const std::string journal_file = journal_name(next_epoch);
    std::unique_ptr<io::journal::Writer> fresh_journal;
    if (options_.journaled) {
      fresh_journal = std::make_unique<io::journal::Writer>(
          env_, dir_ + "/" + journal_file, options_.sync_policy);
      for (const LiveSegment& segment : survivors) {
        for (const JournalRecord& record : segment.journal_records) {
          fresh_journal->append(*record);
        }
      }
      fresh_journal->sync();
    }

    // The manifest swap is the one commit point. Failing *during* it is
    // ambiguous (the rename may or may not have landed), so the archive
    // is poisoned until RAM provably matches disk again — add_batch fails
    // loudly instead of appending to a journal the manifest may no longer
    // reference.
    commit_poisoned_ = true;
    Manifest next;
    next.epoch = next_epoch;
    next.snapshot = snapshot_file;
    next.journal = journal_file;
    write_manifest(env_, dir_, next);

    const std::uint64_t old_epoch = manifest_epoch_;
    auto old_journal = std::move(journal_);
    journal_ = std::move(fresh_journal);
    manifest_epoch_ = next_epoch;

    auto published = std::make_shared<LiveEpoch>();
    published->sequence = current->sequence + 1;
    published->manifest_epoch = next_epoch;
    published->base = fresh;
    published->base_docs = capture->total_docs;
    published->segments = std::move(survivors);
    published->total_docs = current->total_docs;
    publish(std::move(published));
    commit_poisoned_ = false;

    // The new epoch is in force; retire the old one. Failures here leave
    // stale-but-unreferenced files, swept at the next open — not worth
    // failing a committed fold over.
    try {
      if (old_journal) old_journal->close();
      const std::string old_journal_path =
          dir_ + "/" + journal_name(old_epoch);
      const std::string old_snapshot_path =
          dir_ + "/" + snapshot_name(old_epoch);
      if (env_.file_exists(old_journal_path)) {
        env_.remove_file(old_journal_path);
      }
      if (env_.file_exists(old_snapshot_path)) {
        env_.remove_file(old_snapshot_path);
      }
      env_.sync_dir(dir_);
    } catch (const io::IoError&) {
    }
  }

  refreezes_.fetch_add(1, std::memory_order_relaxed);
  live_metrics().refreezes->inc();
  live_metrics().refreeze_ns->record(elapsed_ns(start));
  return true;
}

bool LiveDatabase::do_merge() {
  const auto capture = acquire();
  const auto run = plan_merge(*capture);
  if (!run) return false;
  const auto start = std::chrono::steady_clock::now();
  const obs::StageSpan span(obs::Stage::kSegmentMerge);

  // Build outside every lock: ingest keeps appending segments meanwhile,
  // and nothing else can touch this run while the slot is held.
  const std::span<const LiveSegment> parts(
      capture->segments.data() + run->begin, run->end - run->begin);
  std::size_t docs = 0;
  for (const LiveSegment& part : parts) docs += part.db->size();
  std::vector<vsm::SparseVector> signatures;
  std::vector<std::string> labels;
  signatures.reserve(docs);
  labels.reserve(docs);
  LiveSegment merged;
  merged.first_id = parts.front().first_id;
  for (const LiveSegment& part : parts) {
    copy_documents(*part.db, signatures, labels);
    merged.journal_records.insert(merged.journal_records.end(),
                                  part.journal_records.begin(),
                                  part.journal_records.end());
  }
  merged.db = seal_segment(std::move(signatures), std::move(labels),
                           base_shards_);

  // Swap the run in. Only add_batch publishes while the slot is held, and
  // it only appends, so the run is still at the same place; pointer
  // identity confirms it.
  {
    const std::lock_guard<std::mutex> lock(writer_mutex_);
    if (commit_poisoned_) return false;
    const auto current = acquire();
    const auto same = [](const LiveSegment& a, const LiveSegment& b) {
      return a.db == b.db;
    };
    if (current->segments.size() < run->end ||
        !std::equal(parts.begin(), parts.end(),
                    current->segments.begin() +
                        static_cast<std::ptrdiff_t>(run->begin),
                    same)) {
      return false;
    }
    auto next = std::make_shared<LiveEpoch>(*current);
    next->sequence = current->sequence + 1;
    auto& segments = next->segments;
    segments[run->begin] = std::move(merged);
    segments.erase(
        segments.begin() + static_cast<std::ptrdiff_t>(run->begin) + 1,
        segments.begin() + static_cast<std::ptrdiff_t>(run->end));
    publish(std::move(next));
  }

  segment_merges_.fetch_add(1, std::memory_order_relaxed);
  live_metrics().segment_merges->inc();
  live_metrics().segment_merge_ns->record(elapsed_ns(start));
  return true;
}

std::vector<SearchHit> LiveDatabase::search(const vsm::SparseVector& query,
                                            std::size_t k,
                                            SimilarityMetric metric,
                                            PruningMode mode,
                                            QueryStats* stats,
                                            const SearchOptions& options)
    const {
  return snapshot().search(query, k, metric, mode, stats, options);
}

std::vector<std::vector<SearchHit>> LiveDatabase::search_batch(
    std::span<const vsm::SparseVector> queries, std::size_t k,
    SimilarityMetric metric, PruningMode mode, QueryStats* stats,
    const SearchOptions& options) const {
  return snapshot().search_batch(queries, k, metric, mode, stats, options);
}

std::uint64_t LiveDatabase::manifest_epoch() const {
  return acquire()->manifest_epoch;
}

LiveStats LiveDatabase::stats() const {
  const auto epoch = acquire();
  LiveStats out;
  out.published_sequence = epoch->sequence;
  out.manifest_epoch = epoch->manifest_epoch;
  out.refreezes = refreezes();
  out.segment_merges = segment_merges_.load(std::memory_order_relaxed);
  out.total_docs = epoch->total_docs;
  out.base_docs = epoch->base_docs;
  out.tail_docs = epoch->total_docs - epoch->base_docs;
  out.segments = epoch->segments.size();
  out.base_shards = epoch->base->index().shard_stats();
  out.memory_bytes = epoch->base->index().memory_bytes();
  for (const LiveSegment& segment : epoch->segments) {
    out.memory_bytes += segment.db->index().memory_bytes();
    out.segment_shards.push_back(segment.db->num_shards());
    out.segment_docs.push_back(segment.db->size());
  }
  return out;
}

void LiveDatabase::publish_gauges() const {
  const LiveStats s = stats();
  obs::MetricsRegistry& r = obs::MetricsRegistry::global();
  r.gauge("fmeter_live_published_sequence",
          "Publish sequence of the current epoch")
      .set(static_cast<double>(s.published_sequence));
  r.gauge("fmeter_live_manifest_epoch", "Durable manifest epoch")
      .set(static_cast<double>(s.manifest_epoch));
  r.gauge("fmeter_live_total_docs", "Signatures visible to readers")
      .set(static_cast<double>(s.total_docs));
  r.gauge("fmeter_live_base_docs", "Signatures in the frozen sharded base")
      .set(static_cast<double>(s.base_docs));
  r.gauge("fmeter_live_tail_docs", "Signatures in sealed tail segments")
      .set(static_cast<double>(s.tail_docs));
  r.gauge("fmeter_live_segments", "Sealed tail segments in the epoch")
      .set(static_cast<double>(s.segments));
  r.gauge("fmeter_live_memory_bytes", "Index footprint of the epoch")
      .set(static_cast<double>(s.memory_bytes));
}

}  // namespace fmeter::core
