// Live signature archive: epoch/RCU-style streaming ingest over the
// durable substrate.
//
// The paper's whole point is *continuous* monitoring, but SignatureDatabase
// ingest is batch-oriented: add() lands in a mutable tail that erodes the
// frozen-arena pruning wins, and freeze() is a stop-the-world rebuild.
// LiveDatabase makes ingest and query concurrent without either blocking
// the other for longer than a pointer swap.
//
// Epoch lifecycle. Readers pin an immutable *published epoch*: a
// shared_ptr to a frozen base database plus an ordered list of frozen tail
// segments, each holding a contiguous id range. Nothing a reader can see is
// ever mutated; a pinned snapshot stays valid for as long as the caller
// holds it (cf. LevelDB's version-set swap and Lucene's near-real-time
// segment refresh). Three writers publish new epochs, each sharing every
// part it does not replace:
//
//   * add_batch() seals the batch into its own segment (built outside the
//     writer lock), journals it as one record, and appends the segment.
//     Publish cost is O(segments), independent of archive size.
//   * A *merge* replaces a run of adjacent small segments with one segment
//     holding the same documents (the size-tiered ladder, next_merge()
//     below), so a search probes a handful of segments rather than one per
//     batch. It writes nothing to disk: the merged segment keeps the
//     journal records of the batches it holds, in order.
//   * A *fold* (re-freeze), once the tail outgrows a fraction of the base,
//     rebuilds one fresh sharded base from a pinned epoch while ingest keeps
//     landing in new segments. When the pinned epoch is an empty base plus
//     one segment sealed across the base's shard count, the fold adopts
//     that segment as the base, since it already is that bulk build byte
//     for byte. The fold writes the base as a snapshot and commits the swap
//     through the same MANIFEST machinery as DurableDatabase: snapshot
//     file, then a fresh journal carrying the records of every segment
//     sealed after the capture, then the atomic manifest swap as the one
//     commit point. A crash at any instant recovers to either the old
//     epoch's files or the new ones, never a torn mix (enforced by the
//     crash-matrix test).
//
// Merges and folds share one single-flight slot, so a merge never runs
// while a fold is between its capture and its commit: the fold's survivor
// filter (first id at or past the capture) stays exact. With
// background_refreeze on, both run on the pool after add_batch publishes;
// with it off, add_batch settles the ladder inline and folds wait for
// refreeze_now().
//
// Every segment of at least exec::kMinDocsForParallelBuild docs (a large
// batch or a large merge) is sealed across the base's shard count; smaller
// ones take one shard. Journal replay plans the records into the same
// ladder with next_merge() and seals each planned group once, so a
// reopened archive has the *settled* ladder shape: exactly the segments a
// single writer ingesting the same batches with no fold in flight would
// have published.
//
// Durability contract (same vocabulary as DurableDatabase):
//   * under SyncPolicy::kEachRecord, or kNone with sync_each_epoch (the
//     default), a batch is durable when add_batch() returns;
//   * under kNone with sync_each_epoch off ("async" ingest), a crash loses
//     at most the epochs published since the last sync()/re-freeze — the
//     journal's group-commit contract, chosen per LiveOptions;
//   * recovery replays the manifest's snapshot + journal and always yields
//     a database whose search results are bit-identical to a fresh bulk
//     build of exactly the recovered documents.
//
// Search equivalence: per-document scores are pure functions of
// (query, document), so probing the base and each segment independently
// and merging by the one shared ordering (index::ranks_better — score
// desc, global id asc) returns bit-identical hits to a monolithic index
// over the same documents, in every pruning mode, whichever segments hold
// the documents.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "exec/task_pool.hpp"
#include "fmeter/database.hpp"
#include "fmeter/durable_database.hpp"
#include "io/env.hpp"
#include "io/journal.hpp"

namespace fmeter::core {

/// Fan-out of the tail's size-tiered segment ladder: a segment of d docs
/// sits on tier floor(log_F d), and F segments on one tier merge into one
/// segment a tier up. 8 rather than 4, from traced monitor_mixed runs
/// (50k base, 64-doc batches, 4 cores, two runs each): the most segments a
/// search met was 33-36 with either, set by batches that land while a fold
/// runs; 4 cut the mean from 9.2-9.5 to 7.1-7.7 segments but rebuilds each
/// document twice as often (log_4 vs log_8) and cost 6% more process CPU.
inline constexpr std::size_t kSegmentMergeFanout = 8;

/// floor(log_F docs) for F = kSegmentMergeFanout (0 for docs < F).
std::size_t segment_tier(std::size_t docs) noexcept;

/// A half-open run [begin, end) of adjacent tail segments, oldest first.
struct SegmentRun {
  std::size_t begin = 0;
  std::size_t end = 0;
  bool operator==(const SegmentRun&) const = default;
};

/// The ladder rule, a pure function of the tail's segment doc counts
/// (oldest first). Returns the next run to merge, or nullopt when the tail
/// is settled. Applied until it returns nullopt after every published
/// batch, it keeps two invariants:
///   * tiers never rise from oldest to newest: a segment that outranks its
///     predecessor (a large batch after small ones) is merged with the run
///     of lower-tier segments just before it;
///   * fewer than F segments share a tier: the first tier, lowest first,
///     that holds F segments merges together with every newer segment.
/// A settled tail of N docs therefore holds at most
/// (F-1)·(floor(log_F N)+1) segments, and every merge but the one that
/// absorbs a newly sealed batch lifts all its documents at least one tier,
/// so each document is built at most floor(log_F N)+2 times.
std::optional<SegmentRun> next_merge(std::span<const std::size_t> segment_docs);

struct LiveOptions {
  /// Shard count of the *base* database (0 = SignatureDatabase default).
  /// Opening an existing directory adopts the snapshot's shard count.
  std::size_t num_shards = 0;
  /// false = no journal: ingest mutates only RAM and durability comes
  /// solely from re-freeze snapshots. The bench's no-durability baseline.
  bool journaled = true;
  /// Journal sync policy (see io/journal.hpp).
  io::journal::SyncPolicy sync_policy = io::journal::SyncPolicy::kNone;
  /// Under kNone, fsync the journal once per published epoch (i.e. per
  /// add_batch — group commit). Off = pure async: sync only at re-freeze
  /// commits and explicit sync() calls.
  bool sync_each_epoch = true;
  /// Re-freeze triggers when tail docs exceed both this fraction of the
  /// base and refreeze_min_docs. The fraction bounds steady-state tail
  /// overhead; the floor keeps small archives from folding constantly.
  double refreeze_fraction = 0.125;
  std::size_t refreeze_min_docs = 4096;
  /// Schedule re-freezes and tail merges automatically on the pool after
  /// qualifying ingests. Off = fold only on explicit refreeze_now() calls
  /// and merge inline in add_batch, so one writer sees a deterministic
  /// ladder (tests, crash matrix).
  bool background_refreeze = true;
  /// Pool for background re-freezes and merges (TaskPool::shared() when
  /// null).
  exec::TaskPool* pool = nullptr;
  /// Deterministic test seam, in the spirit of RunOptions::inject_cell_fault:
  /// when set, invoked by a re-freeze right after it pins its capture and
  /// before it rebuilds — the one place the crash matrix and the
  /// survivor-segment tests need to seal a batch "concurrently" without
  /// nondeterministic threads. Runs on the folding thread with no locks
  /// held, so it may call add_batch. Null in production.
  std::function<void()> after_refreeze_capture{};
};

/// Point-in-time shape of the live archive, read entirely from one pinned
/// epoch — safe concurrent with ingest and re-freeze by construction.
struct LiveStats {
  std::uint64_t published_sequence = 0;  ///< bumps on every publish
  std::uint64_t manifest_epoch = 0;      ///< durable epoch (re-freeze commits)
  std::uint64_t refreezes = 0;           ///< folds committed this lifetime
  std::uint64_t segment_merges = 0;      ///< tail merges this lifetime
  std::size_t total_docs = 0;
  std::size_t base_docs = 0;             ///< docs in the frozen sharded base
  std::size_t tail_docs = 0;             ///< docs in sealed tail segments
  std::size_t segments = 0;
  std::size_t memory_bytes = 0;          ///< base + segment index footprint
  std::vector<exec::ShardStats> base_shards;
  std::vector<std::size_t> segment_shards;  ///< shard count, oldest first
  std::vector<std::size_t> segment_docs;    ///< doc count, oldest first
};

class LiveDatabase {
  struct LiveEpoch;

 public:
  /// A pinned, immutable view of one published epoch. Copyable, cheap to
  /// acquire (one mutex-guarded shared_ptr copy), valid for as long as the
  /// caller holds it regardless of concurrent ingest or re-freeze. All
  /// search paths mirror SignatureDatabase's contract (bit-identical hits
  /// in every mode, ascending-id tie-break, k == 0 / empty query → no
  /// hits).
  class Snapshot {
   public:
    std::size_t size() const noexcept;
    bool empty() const noexcept { return size() == 0; }

    const std::string& label(std::size_t id) const;
    const vsm::SparseVector& signature(std::size_t id) const;

    /// Top-k over every document in this epoch (base + segments), merged
    /// by the shared ordering — bit-identical to SignatureDatabase::search
    /// over the same documents. `options.deadline` bounds every probe
    /// cooperatively. `options.outcomes` reports one outcome per query over
    /// all the probes: the first non-kOk outcome in probe order (base, then
    /// segments oldest first), with every completed probe's hits kept. With
    /// outcomes requested, QueryStats counts each query's outcome once;
    /// without, a throwing shard throws, as in SignatureDatabase.
    /// `options.inject_cell_fault` sees one shard numbering over the whole
    /// epoch: the base's shards are 0..B-1, and each segment's shards
    /// follow those of the segments before it.
    std::vector<SearchHit> search(const vsm::SparseVector& query,
                                  std::size_t k,
                                  SimilarityMetric metric =
                                      SimilarityMetric::kCosine,
                                  PruningMode mode = PruningMode::kAuto,
                                  QueryStats* stats = nullptr,
                                  const SearchOptions& options = {}) const;

    std::vector<std::vector<SearchHit>> search_batch(
        std::span<const vsm::SparseVector> queries, std::size_t k,
        SimilarityMetric metric = SimilarityMetric::kCosine,
        PruningMode mode = PruningMode::kAuto, QueryStats* stats = nullptr,
        const SearchOptions& options = {}) const;

    std::uint64_t sequence() const noexcept;
    std::uint64_t manifest_epoch() const noexcept;
    std::size_t base_docs() const noexcept;
    std::size_t tail_docs() const noexcept;
    std::size_t num_segments() const noexcept;

   private:
    friend class LiveDatabase;
    explicit Snapshot(std::shared_ptr<const LiveEpoch> epoch)
        : epoch_(std::move(epoch)) {}
    /// The part holding global `id` and the id's offset inside it.
    std::pair<const SignatureDatabase*, std::size_t> locate(
        std::size_t id) const;
    std::shared_ptr<const LiveEpoch> epoch_;
  };

  /// Opens `dir` (creating it if absent): loads the manifest's snapshot as
  /// the base epoch, replays the journal — the intact records are planned
  /// into the settled segment ladder and each planned group is sealed once,
  /// a torn tail is truncated — sweeps unreferenced files,
  /// and opens the journal for appending. Everything goes through `env` so
  /// the crash-matrix test can drive the lifecycle on FaultInjectingEnv.
  LiveDatabase(io::Env& env, std::string dir, LiveOptions options = {});
  ~LiveDatabase();

  LiveDatabase(const LiveDatabase&) = delete;
  LiveDatabase& operator=(const LiveDatabase&) = delete;

  /// Streaming ingest: validate → seal the batch into a frozen segment
  /// (outside the writer lock — concurrent ingests build concurrently; a
  /// batch of at least exec::kMinDocsForParallelBuild docs is built across
  /// the base's shard count, a smaller one into one shard) →
  /// journal append (+ per-epoch sync) → publish the new epoch. Returns
  /// the id of the first inserted signature. Thread-safe against
  /// concurrent add_batch/sync/refreeze/readers. Then merges tail
  /// segments per next_merge() and may fold: on the pool with
  /// background_refreeze, else merges inline and folds never. Throws
  /// std::invalid_argument on malformed input with the archive unchanged
  /// (strong guarantee).
  std::size_t add_batch(std::vector<vsm::SparseVector> signatures,
                        std::vector<std::string> labels);

  /// Explicit journal fsync — the pure-async caller's commit point.
  void sync();

  /// Pins the currently published epoch.
  Snapshot snapshot() const;

  /// Convenience: search on a freshly pinned snapshot.
  std::vector<SearchHit> search(const vsm::SparseVector& query, std::size_t k,
                                SimilarityMetric metric =
                                    SimilarityMetric::kCosine,
                                PruningMode mode = PruningMode::kAuto,
                                QueryStats* stats = nullptr,
                                const SearchOptions& options = {}) const;
  std::vector<std::vector<SearchHit>> search_batch(
      std::span<const vsm::SparseVector> queries, std::size_t k,
      SimilarityMetric metric = SimilarityMetric::kCosine,
      PruningMode mode = PruningMode::kAuto, QueryStats* stats = nullptr,
      const SearchOptions& options = {}) const;

  /// Synchronous re-freeze: folds the pinned epoch's segments into a fresh
  /// sharded base (adopting the only segment as the base when the base is
  /// empty and the segment already has the base's shard count) and commits
  /// the swap durably. Returns true when a fold committed, false when there
  /// was nothing to fold or another re-freeze or merge was already in
  /// flight (the call then waits for a background one). Throws on I/O
  /// failure — the published epoch is unchanged and the directory recovers
  /// to old-or-new on reopen.
  bool refreeze_now();

  /// Blocks until any scheduled background re-freeze or merge has
  /// finished.
  void wait_for_refreeze();

  std::size_t size() const noexcept { return snapshot().size(); }
  LiveStats stats() const;
  /// Publishes epoch/tail/segment gauges into the global registry — reads
  /// only a pinned epoch, so it is always safe to call from a scrape
  /// thread.
  void publish_gauges() const;

  const RecoveryInfo& recovery() const noexcept { return recovery_; }
  const std::string& dir() const noexcept { return dir_; }
  std::uint64_t manifest_epoch() const;
  std::uint64_t refreezes() const noexcept {
    return refreezes_.load(std::memory_order_relaxed);
  }

 private:
  using JournalRecord = std::shared_ptr<const std::vector<std::byte>>;

  /// One sealed, immutable tail segment: one or more consecutive batches
  /// as a frozen database (single-shard, or base-shaped when large) plus
  /// their encoded journal records in ingest order, kept so a re-freeze
  /// can re-journal segments sealed after its capture without re-encoding
  /// (byte-identical records by construction). Empty when not journaled.
  struct LiveSegment {
    std::size_t first_id = 0;
    std::shared_ptr<const SignatureDatabase> db;
    std::vector<JournalRecord> journal_records;
  };

  struct LiveEpoch {
    std::uint64_t sequence = 0;
    std::uint64_t manifest_epoch = 0;
    std::shared_ptr<const SignatureDatabase> base;
    std::size_t base_docs = 0;
    std::vector<LiveSegment> segments;
    std::size_t total_docs = 0;
  };

  void open();
  std::shared_ptr<const LiveEpoch> acquire() const;
  void publish(std::shared_ptr<const LiveEpoch> epoch);
  bool fold_due(const LiveEpoch& epoch) const;
  static std::optional<SegmentRun> plan_merge(const LiveEpoch& epoch);
  /// Runs the due merges and folds after a publish: on the pool with
  /// background_refreeze, else the merges inline.
  void after_publish();
  /// The background job: folds and merges until neither is due.
  void run_maintenance();
  /// The fold itself; the caller holds the slot (refreeze_inflight_).
  bool do_refreeze();
  /// One next_merge() step over the published tail; false when settled.
  /// The caller holds the slot.
  bool do_merge();
  /// Throws DurabilityError when a previous commit attempt died between
  /// the manifest swap and the in-memory state swap (disk and RAM may
  /// disagree about which journal is current — appending further batches
  /// could silently lose them; reopen the directory instead).
  void check_not_poisoned() const;

  io::Env& env_;
  std::string dir_;
  LiveOptions options_;
  std::size_t base_shards_ = 1;  ///< adopted from the snapshot on open

  /// Guards only the published-epoch pointer; held for a pointer copy.
  mutable std::mutex publish_mutex_;
  std::shared_ptr<const LiveEpoch> published_;

  /// Serializes add_batch / sync / the re-freeze commit section.
  std::mutex writer_mutex_;
  std::unique_ptr<io::journal::Writer> journal_;
  std::uint64_t manifest_epoch_ = 0;
  bool commit_poisoned_ = false;

  /// The single-flight slot shared by folds and merges.
  std::atomic<bool> refreeze_inflight_{false};
  std::mutex refreeze_mutex_;  ///< guards refreeze_future_
  std::future<void> refreeze_future_;
  std::atomic<std::uint64_t> refreezes_{0};
  std::atomic<std::uint64_t> segment_merges_{0};

  RecoveryInfo recovery_;
};

}  // namespace fmeter::core
