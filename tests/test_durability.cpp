// DurableDatabase battery (fmeter/durable_database.hpp) — the durability
// contract under test:
//
//   * a batch whose commit point passed (journal fsync under kEachRecord,
//     sync()/checkpoint() under kNone) survives ANY later crash;
//   * a batch interrupted mid-append vanishes atomically;
//   * the directory is always openable after a crash;
//   * the recovered database answers bit-identically to a fresh bulk build
//     of exactly the recovered batches.
//
// The crash-matrix test enforces this by killing a FaultInjectingEnv at
// EVERY mutating operation of a full lifecycle (open, batches, checkpoint,
// more batches) with torn writes enabled, under both crash models, then
// reopening and checking the contract. The concurrent append/checkpoint
// test runs under the TSan CI job.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "fmeter/durable_database.hpp"
#include "fmeter/live_database.hpp"
#include "io/env.hpp"
#include "util/rng.hpp"
#include "vsm/sparse_vector.hpp"

namespace fmeter::core {
namespace {

using io::FaultInjectingEnv;
using io::InMemoryEnv;
using io::IoError;

vsm::SparseVector random_sparse(util::Rng& rng, std::uint32_t dimension,
                                std::size_t max_nnz) {
  std::vector<vsm::SparseVector::Entry> entries;
  const std::size_t nnz = 1 + rng.below(max_nnz);
  for (std::size_t i = 0; i < nnz; ++i) {
    entries.emplace_back(
        static_cast<vsm::SparseVector::Index>(rng.below(dimension)),
        rng.uniform(0.05, 1.0));
  }
  return vsm::SparseVector::from_entries(std::move(entries));
}

struct Batch {
  std::vector<vsm::SparseVector> signatures;
  std::vector<std::string> labels;
};

/// Deterministic batches; labels encode (batch, doc) so the recovered
/// prefix is identifiable from the labels alone.
std::vector<Batch> make_batches(std::size_t count, std::size_t docs_each,
                                std::uint64_t seed = 0xd17a) {
  util::Rng rng(seed);
  std::vector<Batch> batches(count);
  for (std::size_t b = 0; b < count; ++b) {
    for (std::size_t d = 0; d < docs_each; ++d) {
      batches[b].signatures.push_back(random_sparse(rng, 64, 10));
      batches[b].labels.push_back("batch-" + std::to_string(b) + "-doc-" +
                                  std::to_string(d));
    }
  }
  return batches;
}

SignatureDatabase build_reference(const std::vector<Batch>& batches,
                                  std::size_t prefix, std::size_t shards) {
  SignatureDatabase db(shards);
  for (std::size_t b = 0; b < prefix; ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
  }
  return db;
}

/// Bit-identical search results between the recovered database and a fresh
/// bulk build of the same batches — the "recovery loses nothing and
/// invents nothing" check.
void expect_equivalent(const SignatureDatabase& got,
                       const SignatureDatabase& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t id = 0; id < want.size(); ++id) {
    ASSERT_EQ(got.label(id), want.label(id)) << context << " id " << id;
    ASSERT_TRUE(got.signature(id) == want.signature(id))
        << context << " id " << id;
  }
  util::Rng rng(0x9e17);
  for (int q = 0; q < 4; ++q) {
    const auto query = random_sparse(rng, 64, 10);
    const auto got_hits = got.search(query, 5);
    const auto want_hits = want.search(query, 5);
    ASSERT_EQ(got_hits.size(), want_hits.size()) << context << " q " << q;
    for (std::size_t r = 0; r < want_hits.size(); ++r) {
      EXPECT_EQ(got_hits[r].id, want_hits[r].id) << context << " rank " << r;
      EXPECT_EQ(got_hits[r].score, want_hits[r].score)
          << context << " rank " << r;
    }
  }
}

/// How many whole batches the recovered database holds; fails the test if
/// its contents are not an exact batch-prefix of `batches`.
std::size_t recovered_prefix(const SignatureDatabase& db,
                             const std::vector<Batch>& batches,
                             const std::string& context) {
  const std::size_t docs_each = batches.front().labels.size();
  EXPECT_EQ(db.size() % docs_each, 0u)
      << context << ": a torn batch was half-applied";
  const std::size_t prefix = db.size() / docs_each;
  EXPECT_LE(prefix, batches.size()) << context;
  std::size_t id = 0;
  for (std::size_t b = 0; b < prefix; ++b) {
    for (std::size_t d = 0; d < docs_each; ++d, ++id) {
      EXPECT_EQ(db.label(id), batches[b].labels[d]) << context;
    }
  }
  return prefix;
}

// ---------------------------------------------------------------------------
// Plain lifecycle
// ---------------------------------------------------------------------------

TEST(DurableDatabase, FreshOpenIngestReopenReplays) {
  InMemoryEnv env;
  const auto batches = make_batches(3, 4);
  {
    DurableDatabase db(env, "arch");
    EXPECT_TRUE(db.recovery().created);
    EXPECT_EQ(db.epoch(), 0u);
    for (const Batch& b : batches) db.add_batch(b.signatures, b.labels);
    EXPECT_EQ(db.db().size(), 12u);
  }
  DurableDatabase reopened(env, "arch");
  EXPECT_FALSE(reopened.recovery().created);
  EXPECT_FALSE(reopened.recovery().snapshot_loaded);  // no checkpoint yet
  EXPECT_EQ(reopened.recovery().journal_records_replayed, 3u);
  EXPECT_FALSE(reopened.recovery().journal_truncated);
  expect_equivalent(reopened.db(), build_reference(batches, 3, 1),
                    "journal-only reopen");
}

TEST(DurableDatabase, CheckpointRotatesAndReopensFromSnapshot) {
  InMemoryEnv env;
  const auto batches = make_batches(4, 3);
  {
    DurableDatabase db(env, "arch", {.num_shards = 2});
    db.add_batch(batches[0].signatures, batches[0].labels);
    db.add_batch(batches[1].signatures, batches[1].labels);
    db.checkpoint();
    EXPECT_EQ(db.epoch(), 1u);
    db.add_batch(batches[2].signatures, batches[2].labels);
    db.add_batch(batches[3].signatures, batches[3].labels);
  }
  // The directory holds exactly the manifest + current pair.
  auto names = env.list_dir("arch");
  EXPECT_EQ(names, (std::vector<std::string>{"MANIFEST", "journal-000001.wal",
                                             "snapshot-000001"}));

  DurableDatabase reopened(env, "arch", {.num_shards = 2});
  EXPECT_TRUE(reopened.recovery().snapshot_loaded);
  EXPECT_EQ(reopened.recovery().epoch, 1u);
  EXPECT_EQ(reopened.recovery().journal_records_replayed, 2u);
  expect_equivalent(reopened.db(), build_reference(batches, 4, 2),
                    "snapshot+journal reopen");

  // A second checkpoint directly after reopen folds the journal in.
  reopened.checkpoint();
  EXPECT_EQ(reopened.epoch(), 2u);
  DurableDatabase again(env, "arch", {.num_shards = 2});
  EXPECT_EQ(again.recovery().journal_records_replayed, 0u);
  expect_equivalent(again.db(), build_reference(batches, 4, 2),
                    "post-second-checkpoint");
}

TEST(DurableDatabase, SyncIsTheCommitPointUnderAsyncPolicy) {
  InMemoryEnv env;
  const auto batches = make_batches(3, 2);
  DurableOptions options;
  options.sync_policy = io::journal::SyncPolicy::kNone;
  DurableDatabase db(env, "arch", options);
  db.add_batch(batches[0].signatures, batches[0].labels);
  db.sync();  // commit point for batch 0
  db.add_batch(batches[1].signatures, batches[1].labels);
  env.crash(InMemoryEnv::CrashMode::kDropUnsynced);

  DurableDatabase reopened(env, "arch", options);
  EXPECT_EQ(reopened.recovery().journal_records_replayed, 1u);
  expect_equivalent(reopened.db(), build_reference(batches, 1, 1),
                    "async: only the synced batch survives");
}

TEST(DurableDatabase, UnjournaledModeDependsEntirelyOnCheckpoint) {
  InMemoryEnv env;
  const auto batches = make_batches(2, 3);
  DurableOptions off;
  off.journaled = false;
  DurableDatabase db(env, "arch", off);
  db.add_batch(batches[0].signatures, batches[0].labels);
  db.checkpoint();
  db.add_batch(batches[1].signatures, batches[1].labels);  // RAM only
  env.crash(InMemoryEnv::CrashMode::kDropUnsynced);

  DurableDatabase reopened(env, "arch", off);
  EXPECT_TRUE(reopened.recovery().snapshot_loaded);
  expect_equivalent(reopened.db(), build_reference(batches, 1, 1),
                    "journal off: checkpointed batch only");
}

TEST(DurableDatabase, InvalidBatchRejectedBeforeJournalAndRam) {
  InMemoryEnv env;
  DurableDatabase db(env, "arch");
  const auto batches = make_batches(1, 2);
  db.add_batch(batches[0].signatures, batches[0].labels);
  const std::uint64_t journal_size = env.file_size("arch/journal-000000.wal");

  std::vector<vsm::SparseVector> bad = {vsm::SparseVector::from_entries(
      {{0, std::numeric_limits<double>::quiet_NaN()}})};
  EXPECT_THROW(db.add_batch(bad, {"poison"}), std::invalid_argument);
  EXPECT_THROW(db.add_batch(batches[0].signatures, {}),
               std::invalid_argument);

  // Neither the journal nor the in-memory database moved.
  EXPECT_EQ(env.file_size("arch/journal-000000.wal"), journal_size);
  EXPECT_EQ(db.db().size(), 2u);
  DurableDatabase reopened(env, "arch");
  EXPECT_EQ(reopened.recovery().journal_records_replayed, 1u);
}

TEST(DurableDatabase, SweepsCrashLeftovers) {
  InMemoryEnv env;
  {
    DurableDatabase db(env, "arch");
    const auto batches = make_batches(1, 2);
    db.add_batch(batches[0].signatures, batches[0].labels);
  }
  // Plant debris a torn checkpoint could leave: a temp file and a
  // next-epoch pair the manifest never adopted.
  env.new_writable_file("arch/snapshot-000001.tmp", true)->sync();
  env.new_writable_file("arch/snapshot-000001", true)->sync();
  env.new_writable_file("arch/journal-000001.wal", true)->sync();
  env.sync_dir("arch");

  DurableDatabase reopened(env, "arch");
  EXPECT_EQ(reopened.recovery().removed_files.size(), 3u);
  EXPECT_EQ(env.list_dir("arch"),
            (std::vector<std::string>{"MANIFEST", "journal-000000.wal"}));
  EXPECT_EQ(reopened.db().size(), 2u);
}

TEST(DurableDatabase, CorruptManifestRefusedLoudly) {
  InMemoryEnv env;
  {
    DurableDatabase db(env, "arch");
  }
  std::string raw = env.read_file("arch/MANIFEST");
  raw[raw.size() / 2] = static_cast<char>(raw[raw.size() / 2] ^ 0x01);
  auto file = env.new_writable_file("arch/MANIFEST", /*truncate=*/true);
  file->append(std::string_view(raw));
  file->sync();
  // Silently starting a fresh database over live data would be the one
  // unforgivable recovery behavior.
  EXPECT_THROW(DurableDatabase(env, "arch"), DurabilityError);
}

// ---------------------------------------------------------------------------
// The crash matrix
// ---------------------------------------------------------------------------

/// The lifecycle whose every fault point the matrix kills: open fresh,
/// three committed batches, a checkpoint, two more committed batches.
/// Returns how many batches had passed their commit point (add_batch
/// returned under kEachRecord) before the fault hit.
std::size_t run_lifecycle(io::Env& env, const std::vector<Batch>& batches) {
  std::size_t committed = 0;
  DurableDatabase db(env, "arch", {.num_shards = 2});
  for (std::size_t b = 0; b < 3; ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
    ++committed;
  }
  db.checkpoint();
  for (std::size_t b = 3; b < 5; ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
    ++committed;
  }
  return committed;
}

TEST(DurableDatabase, CrashMatrixEveryFaultPointBothCrashModes) {
  const auto batches = make_batches(5, 3);

  FaultInjectingEnv counter;
  ASSERT_EQ(run_lifecycle(counter, batches), 5u);
  const std::uint64_t total_ops = counter.ops_seen();
  ASSERT_GT(total_ops, 20u) << "lifecycle too small to be a real matrix";

  std::size_t faulted_runs = 0;
  for (std::uint64_t n = 0; n < total_ops; ++n) {
    for (const auto mode : {InMemoryEnv::CrashMode::kDropUnsynced,
                            InMemoryEnv::CrashMode::kPersistEverything}) {
      const std::string context = "op " + std::to_string(n) +
                                  (mode == InMemoryEnv::CrashMode::kDropUnsynced
                                       ? " drop-unsynced"
                                       : " persist-everything");
      FaultInjectingEnv env;
      env.set_tear(FaultInjectingEnv::TearMode::kHalf);
      env.fail_at_op(n);
      std::size_t committed = 0;
      try {
        committed = run_lifecycle(env, batches);
        FAIL() << context << ": lifecycle completed without a fault";
      } catch (const IoError&) {
        ++faulted_runs;
      } catch (const index::snapshot::SnapshotError&) {
        ++faulted_runs;  // checkpoint wraps snapshot-write IoErrors
      }
      env.disarm();
      env.crash(mode);

      // Contract clause 3: ALWAYS openable. No exception may escape here.
      DurableDatabase recovered(env, "arch", {.num_shards = 2});

      // Clauses 1+2: the recovered contents are a whole-batch prefix of
      // the attempted sequence, at least as long as the committed count.
      const std::size_t prefix =
          recovered_prefix(recovered.db(), batches, context);
      EXPECT_GE(prefix, committed) << context << ": committed batch lost";

      // Clause 4: bit-identical to a fresh bulk build of that prefix.
      expect_equivalent(recovered.db(),
                        build_reference(batches, prefix, 2), context);

      // And the recovered database still ingests + checkpoints.
      recovered.add_batch(batches[0].signatures, batches[0].labels);
      recovered.checkpoint();
      EXPECT_EQ(recovered.db().size(), (prefix + 1) * 3) << context;
    }
  }
  EXPECT_EQ(faulted_runs, 2 * total_ops);
}

TEST(DurableDatabase, RecoveryItselfSurvivesCrashes) {
  // Crash-during-recovery: prepare a directory whose journal has a torn
  // tail, then kill the reopen at every fault point. Whatever happens, the
  // directory must stay openable and the committed batches intact.
  const auto batches = make_batches(3, 3);
  const auto prepare = [&](FaultInjectingEnv& env) {
    {
      DurableDatabase db(env, "arch", {.num_shards = 2});
      db.add_batch(batches[0].signatures, batches[0].labels);
      db.add_batch(batches[1].signatures, batches[1].labels);
    }
    // Torn tail: append half a record's worth of garbage to the journal.
    auto file = env.new_writable_file("arch/journal-000000.wal",
                                      /*truncate=*/false);
    file->append(std::string_view("\x40\x00\x00", 3));  // cut length prefix
    file->sync();
    env.reset_ops();
  };

  FaultInjectingEnv counter;
  prepare(counter);
  { DurableDatabase probe(counter, "arch", {.num_shards = 2}); }
  const std::uint64_t recovery_ops = counter.ops_seen();
  ASSERT_GT(recovery_ops, 0u);

  for (std::uint64_t n = 0; n < recovery_ops; ++n) {
    const std::string context = "recovery op " + std::to_string(n);
    FaultInjectingEnv env;
    prepare(env);
    env.fail_at_op(n);
    try {
      DurableDatabase db(env, "arch", {.num_shards = 2});
    } catch (const IoError&) {
    }
    env.disarm();
    env.crash(InMemoryEnv::CrashMode::kDropUnsynced);

    DurableDatabase recovered(env, "arch", {.num_shards = 2});
    EXPECT_EQ(recovered.recovery().journal_records_replayed, 2u) << context;
    expect_equivalent(recovered.db(), build_reference(batches, 2, 2), context);
  }
}

// ---------------------------------------------------------------------------
// The live epoch-swap crash matrix (ISSUE 10)
// ---------------------------------------------------------------------------

/// Bit-identical results between a recovered live archive and a fresh bulk
/// build — the live twin of expect_equivalent.
void expect_live_equivalent(const LiveDatabase::Snapshot& got,
                            const SignatureDatabase& want,
                            const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t id = 0; id < want.size(); ++id) {
    ASSERT_EQ(got.label(id), want.label(id)) << context << " id " << id;
    ASSERT_TRUE(got.signature(id) == want.signature(id))
        << context << " id " << id;
  }
  util::Rng rng(0x9e17);
  for (int q = 0; q < 4; ++q) {
    const auto query = random_sparse(rng, 64, 10);
    const auto got_hits = got.search(query, 5);
    const auto want_hits = want.search(query, 5);
    ASSERT_EQ(got_hits.size(), want_hits.size()) << context << " q " << q;
    for (std::size_t r = 0; r < want_hits.size(); ++r) {
      EXPECT_EQ(got_hits[r].id, want_hits[r].id) << context << " rank " << r;
      EXPECT_EQ(got_hits[r].score, want_hits[r].score)
          << context << " rank " << r;
    }
  }
}

std::size_t live_recovered_prefix(const LiveDatabase::Snapshot& got,
                                  const std::vector<Batch>& batches,
                                  const std::string& context) {
  const std::size_t docs_each = batches.front().labels.size();
  EXPECT_EQ(got.size() % docs_each, 0u)
      << context << ": a torn batch was half-applied";
  const std::size_t prefix = got.size() / docs_each;
  EXPECT_LE(prefix, batches.size()) << context;
  std::size_t id = 0;
  for (std::size_t b = 0; b < prefix; ++b) {
    for (std::size_t d = 0; d < docs_each; ++d, ++id) {
      EXPECT_EQ(got.label(id), batches[b].labels[d]) << context;
    }
  }
  return prefix;
}

/// The live lifecycle whose every fault point the matrix kills: open
/// fresh, `before_fold` committed batches, a re-freeze whose capture is
/// raced by `mid_fold` batches sealed mid-fold (the survivor re-journal
/// path), one more batch, and a second re-freeze. With one committed batch
/// and one shard the first fold adopts its only segment as the base
/// instead of rebuilding. With at least kSegmentMergeFanout small batches
/// on either side of the first fold, the tail merges them into multi-record
/// segments: before the fold, and again once the fold commits, when the
/// batch after it merges with the survivors. `committed` is updated as each
/// add_batch returns — under kNone + sync_each_epoch that return IS the
/// commit point — so the caller knows the durability floor even when a
/// fault unwinds the lifecycle.
void run_live_lifecycle(io::Env& env, const std::vector<Batch>& batches,
                        std::size_t shards, std::size_t before_fold,
                        std::size_t mid_fold, std::size_t& committed) {
  LiveOptions options;
  options.num_shards = shards;
  options.background_refreeze = false;
  LiveDatabase* handle = nullptr;
  bool sealed_mid_fold = false;
  options.after_refreeze_capture = [&] {
    if (sealed_mid_fold) return;
    sealed_mid_fold = true;
    for (std::size_t b = before_fold; b < before_fold + mid_fold; ++b) {
      handle->add_batch(batches[b].signatures, batches[b].labels);
      ++committed;
    }
  };
  LiveDatabase db(env, "live", options);
  handle = &db;
  for (std::size_t b = 0; b < before_fold; ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
    ++committed;
  }
  db.refreeze_now();  // folds the first batches, re-journals the mid-fold ones
  const std::size_t last = before_fold + mid_fold;
  db.add_batch(batches[last].signatures, batches[last].labels);
  ++committed;
  db.refreeze_now();  // folds the rest
}

/// Kills the lifecycle above at every fault point under both crash models
/// and checks that each reopen lands on the old or the new epoch.
void run_live_crash_matrix(std::size_t shards, std::size_t before_fold,
                           std::size_t mid_fold = 1) {
  const auto batches = make_batches(before_fold + mid_fold + 1, 3);

  FaultInjectingEnv counter;
  std::size_t clean_committed = 0;
  run_live_lifecycle(counter, batches, shards, before_fold, mid_fold,
                     clean_committed);
  ASSERT_EQ(clean_committed, batches.size());
  const std::uint64_t total_ops = counter.ops_seen();
  ASSERT_GT(total_ops, 20u) << "lifecycle too small to be a real matrix";

  std::size_t faulted_runs = 0;
  std::size_t tolerated_runs = 0;
  for (std::uint64_t n = 0; n < total_ops; ++n) {
    for (const auto mode : {InMemoryEnv::CrashMode::kDropUnsynced,
                            InMemoryEnv::CrashMode::kPersistEverything}) {
      const std::string context = "live op " + std::to_string(n) +
                                  (mode == InMemoryEnv::CrashMode::kDropUnsynced
                                       ? " drop-unsynced"
                                       : " persist-everything");
      FaultInjectingEnv env;
      env.set_tear(FaultInjectingEnv::TearMode::kHalf);
      env.fail_at_op(n);
      std::size_t committed = 0;
      try {
        run_live_lifecycle(env, batches, shards, before_fold, mid_fold,
                           committed);
        // A fault in the post-commit retirement section (deleting the old
        // epoch's files) is deliberately tolerated: the swap has already
        // committed, so ingest must not fail over a leftover file the
        // next open sweeps anyway. Every other fault point must throw.
        ++tolerated_runs;
        EXPECT_EQ(committed, batches.size())
            << context << ": swallowed pre-commit fault";
      } catch (const IoError&) {
        ++faulted_runs;
      } catch (const index::snapshot::SnapshotError&) {
        ++faulted_runs;  // re-freeze wraps snapshot-write IoErrors
      } catch (const DurabilityError&) {
        ++faulted_runs;  // poisoned commit: manifest swap died ambiguously
      }
      env.disarm();
      env.crash(mode);

      // ALWAYS openable: recovery lands on whatever epoch the manifest
      // names — the old one or the new one, never a torn mix.
      LiveOptions reopen_options;
      reopen_options.num_shards = shards;
      reopen_options.background_refreeze = false;
      LiveDatabase recovered(env, "live", reopen_options);
      EXPECT_LE(recovered.recovery().epoch, 2u) << context;

      // Committed batches survive, contents are a whole-batch prefix, and
      // the recovered archive is bit-identical to a fresh bulk build.
      const std::size_t prefix =
          live_recovered_prefix(recovered.snapshot(), batches, context);
      EXPECT_GE(prefix, committed) << context << ": committed batch lost";
      expect_live_equivalent(recovered.snapshot(),
                             build_reference(batches, prefix, shards),
                             context);
      // Merges write nothing: the journal holds one record per batch.
      EXPECT_EQ(recovered.recovery().journal_records_replayed * 3,
                recovered.stats().tail_docs)
          << context;

      // And the recovered archive still ingests + re-freezes.
      recovered.add_batch(batches[0].signatures, batches[0].labels);
      recovered.refreeze_now();
      EXPECT_EQ(recovered.size(), (prefix + 1) * 3) << context;
    }
  }
  EXPECT_EQ(faulted_runs + tolerated_runs, 2 * total_ops);
  EXPECT_GT(faulted_runs, tolerated_runs)
      << "most fault points must be pre-commit";
}

TEST(LiveDatabase, EpochSwapCrashMatrixEveryFaultPointBothCrashModes) {
  run_live_crash_matrix(/*shards=*/2, /*before_fold=*/2);
}

// The first fold adopts its only segment as the base; the snapshot write,
// journal rotation and manifest swap around it must recover the same way.
TEST(LiveDatabase, EpochSwapCrashMatrixWithAdoptingFold) {
  InMemoryEnv env;
  const auto batches = make_batches(2, 3);
  LiveDatabase db(env, "live", {.num_shards = 1, .background_refreeze = false});
  db.add_batch(batches[0].signatures, batches[0].labels);
  const auto before = db.snapshot();
  ASSERT_TRUE(db.refreeze_now());
  ASSERT_EQ(&db.snapshot().signature(0), &before.signature(0))
      << "this lifecycle's first fold no longer adopts";

  run_live_crash_matrix(/*shards=*/1, /*before_fold=*/1);
}

// Enough small batches on both sides of the first fold that the tail holds
// merged multi-record segments before it and after its commit.
TEST(LiveDatabase, EpochSwapCrashMatrixWithMergedSegments) {
  InMemoryEnv env;
  const std::size_t batches_each_side = kSegmentMergeFanout + 1;
  const auto batches = make_batches(batches_each_side, 3);
  LiveOptions options;
  options.num_shards = 2;
  options.background_refreeze = false;
  LiveDatabase probe(env, "probe", options);
  for (std::size_t b = 0; b < batches_each_side; ++b) {
    probe.add_batch(batches[b].signatures, batches[b].labels);
  }
  ASSERT_LT(probe.stats().segments, batches_each_side)
      << "this lifecycle no longer merges before its fold";

  run_live_crash_matrix(/*shards=*/2, /*before_fold=*/batches_each_side,
                        /*mid_fold=*/batches_each_side - 1);
}

// ---------------------------------------------------------------------------
// Concurrency (runs under the TSan CI job)
// ---------------------------------------------------------------------------

TEST(DurableDatabase, ConcurrentAppendAndCheckpoint) {
  InMemoryEnv env;
  const auto batches = make_batches(24, 2, 0xc0);
  DurableDatabase db(env, "arch", {.num_shards = 2});

  std::thread ingester([&] {
    for (const Batch& b : batches) db.add_batch(b.signatures, b.labels);
  });
  std::thread checkpointer([&] {
    for (int i = 0; i < 6; ++i) db.checkpoint();
  });
  std::thread syncer([&] {
    for (int i = 0; i < 10; ++i) db.sync();
  });
  ingester.join();
  checkpointer.join();
  syncer.join();

  EXPECT_EQ(db.db().size(), 48u);
  db.checkpoint();  // fold everything in, then reopen must see all of it
  DurableDatabase reopened(env, "arch", {.num_shards = 2});
  EXPECT_EQ(reopened.db().size(), 48u);
  expect_equivalent(reopened.db(), build_reference(batches, 24, 2),
                    "post-concurrency reopen");
}

}  // namespace
}  // namespace fmeter::core
