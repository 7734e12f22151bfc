// LiveDatabase battery (fmeter/live_database.hpp) — the live-archive
// contract under test:
//
//   * streaming ingest answers bit-identically to a fresh bulk build of
//     the same documents, before and after any number of re-freezes;
//   * a pinned Snapshot stays valid and answers from its own epoch no
//     matter how much ingest / re-freezing happens after the pin;
//   * a re-freeze folds the tail into the base, bumps the manifest epoch,
//     and keeps segments sealed after its capture (the survivor path);
//   * reopening a directory replays snapshot + journal back to the same
//     archive;
//   * a batch of at least exec::kMinDocsForParallelBuild docs seals across
//     the base's shard count (smaller ones into one shard), journal replay
//     re-seals it in the same shape, and a fold over an empty base adopts
//     such a segment as the base, writing the bulk build's exact bytes;
//   * the tail's segment ladder (next_merge) keeps few segments, merges
//     only adjacent runs, rebuilds each document O(log_F) times, never
//     changes an answer, and a reopen replays it to the settled shape;
//   * every probe's outcome (base and segments) folds into the caller's
//     per-query outcome vector.
//
// The concurrency tests at the bottom run under the TSan CI job and are
// the regression tests for the stats-scrape-vs-ingest race and the
// freeze-during-query race (ISSUE 10 satellites): stats(), shard_stats(),
// memory_bytes() and publish_gauges() must be safe against concurrent
// add_batch/freeze, and queries must be safe against concurrent re-freeze.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exec/sharded_index.hpp"
#include "exec/task_pool.hpp"
#include "fmeter/database.hpp"
#include "fmeter/live_database.hpp"
#include "io/env.hpp"
#include "io/journal.hpp"
#include "util/rng.hpp"
#include "vsm/sparse_vector.hpp"

namespace fmeter::core {
namespace {

using io::InMemoryEnv;

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

std::vector<Batch> make_batches(std::size_t count, std::size_t docs_each,
                                std::uint64_t seed = 0x11fe) {
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

/// Bit-identical results between a pinned live snapshot and a fresh bulk
/// build of the documents it should hold — across both pruning modes and
/// both metrics, since the segment-merge path must preserve every mode's
/// guarantee, not just the default's.
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
    for (const auto metric :
         {SimilarityMetric::kCosine, SimilarityMetric::kEuclidean}) {
      for (const auto mode :
           {index::PruningMode::kExact, index::PruningMode::kMaxScore,
            index::PruningMode::kAuto}) {
        const auto got_hits = got.search(query, 5, metric, mode);
        const auto want_hits = want.search(query, 5, metric,
                                           ScanPolicy::kIndexed, mode);
        ASSERT_EQ(got_hits.size(), want_hits.size())
            << context << " q " << q;
        for (std::size_t r = 0; r < want_hits.size(); ++r) {
          EXPECT_EQ(got_hits[r].id, want_hits[r].id)
              << context << " q " << q << " rank " << r;
          EXPECT_EQ(got_hits[r].label, want_hits[r].label)
              << context << " q " << q << " rank " << r;
          EXPECT_EQ(got_hits[r].score, want_hits[r].score)
              << context << " q " << q << " rank " << r;
        }
      }
    }
  }
}

LiveOptions foreground_options(std::size_t shards = 2) {
  LiveOptions options;
  options.num_shards = shards;
  options.background_refreeze = false;  // tests fold explicitly
  return options;
}

// ---------------------------------------------------------------------------
// Functional: ingest, fold, pin, reopen
// ---------------------------------------------------------------------------

TEST(LiveDatabase, StreamingIngestMatchesBulkBuild) {
  InMemoryEnv env;
  const auto batches = make_batches(6, 8);
  LiveDatabase db(env, "live", foreground_options());
  EXPECT_TRUE(db.recovery().created);
  EXPECT_EQ(db.size(), 0u);

  std::size_t expected_first = 0;
  for (const Batch& b : batches) {
    EXPECT_EQ(db.add_batch(b.signatures, b.labels), expected_first);
    expected_first += b.signatures.size();
  }

  const auto stats = db.stats();
  EXPECT_EQ(stats.total_docs, 48u);
  EXPECT_EQ(stats.base_docs, 0u);
  EXPECT_EQ(stats.tail_docs, 48u);
  EXPECT_EQ(stats.segments, 6u);
  EXPECT_EQ(stats.manifest_epoch, 0u);
  EXPECT_GT(stats.memory_bytes, 0u);

  expect_live_equivalent(db.snapshot(), build_reference(batches, 6, 2),
                         "pure-tail archive");
}

TEST(LiveDatabase, RefreezeFoldsTailAndPreservesResults) {
  InMemoryEnv env;
  const auto batches = make_batches(6, 8);
  LiveDatabase db(env, "live", foreground_options());
  for (std::size_t b = 0; b < 4; ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
  }

  ASSERT_TRUE(db.refreeze_now());
  EXPECT_EQ(db.refreezes(), 1u);
  EXPECT_EQ(db.manifest_epoch(), 1u);
  auto stats = db.stats();
  EXPECT_EQ(stats.base_docs, 32u);
  EXPECT_EQ(stats.tail_docs, 0u);
  EXPECT_EQ(stats.segments, 0u);
  EXPECT_EQ(stats.base_shards.size(), 2u);
  expect_live_equivalent(db.snapshot(), build_reference(batches, 4, 2),
                         "post-fold");

  // Nothing to fold → false, no epoch bump.
  EXPECT_FALSE(db.refreeze_now());
  EXPECT_EQ(db.manifest_epoch(), 1u);

  // Mixed base + tail keeps answering bit-identically.
  for (std::size_t b = 4; b < 6; ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
  }
  stats = db.stats();
  EXPECT_EQ(stats.base_docs, 32u);
  EXPECT_EQ(stats.tail_docs, 16u);
  expect_live_equivalent(db.snapshot(), build_reference(batches, 6, 2),
                         "base+tail archive");

  ASSERT_TRUE(db.refreeze_now());
  EXPECT_EQ(db.manifest_epoch(), 2u);
  expect_live_equivalent(db.snapshot(), build_reference(batches, 6, 2),
                         "second fold");
}

TEST(LiveDatabase, PinnedSnapshotSurvivesIngestAndRefreeze) {
  InMemoryEnv env;
  const auto batches = make_batches(6, 8);
  LiveDatabase db(env, "live", foreground_options());
  for (std::size_t b = 0; b < 3; ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
  }

  const auto pinned = db.snapshot();
  const std::uint64_t pinned_sequence = pinned.sequence();

  for (std::size_t b = 3; b < 6; ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
  }
  ASSERT_TRUE(db.refreeze_now());
  db.add_batch(batches[0].signatures, batches[0].labels);

  // The pin still answers from its own epoch, untouched.
  EXPECT_EQ(pinned.sequence(), pinned_sequence);
  EXPECT_EQ(pinned.size(), 24u);
  EXPECT_EQ(pinned.manifest_epoch(), 0u);
  expect_live_equivalent(pinned, build_reference(batches, 3, 2),
                         "pinned epoch");

  // A fresh pin sees everything.
  EXPECT_EQ(db.snapshot().size(), 56u);
}

TEST(LiveDatabase, ReopenReplaysSnapshotAndJournal) {
  InMemoryEnv env;
  const auto batches = make_batches(5, 6);
  {
    LiveDatabase db(env, "live", foreground_options());
    for (std::size_t b = 0; b < 3; ++b) {
      db.add_batch(batches[b].signatures, batches[b].labels);
    }
    ASSERT_TRUE(db.refreeze_now());
    for (std::size_t b = 3; b < 5; ++b) {
      db.add_batch(batches[b].signatures, batches[b].labels);
    }
  }

  LiveDatabase reopened(env, "live", foreground_options());
  EXPECT_FALSE(reopened.recovery().created);
  EXPECT_TRUE(reopened.recovery().snapshot_loaded);
  EXPECT_EQ(reopened.recovery().epoch, 1u);
  EXPECT_EQ(reopened.recovery().journal_records_replayed, 2u);
  const auto stats = reopened.stats();
  EXPECT_EQ(stats.base_docs, 18u);   // the folded snapshot
  EXPECT_EQ(stats.tail_docs, 12u);   // replayed journal records
  EXPECT_EQ(stats.segments, 2u);
  expect_live_equivalent(reopened.snapshot(), build_reference(batches, 5, 2),
                         "reopened archive");

  // The reopened archive still ingests and folds.
  reopened.add_batch(batches[0].signatures, batches[0].labels);
  ASSERT_TRUE(reopened.refreeze_now());
  EXPECT_EQ(reopened.manifest_epoch(), 2u);
  EXPECT_EQ(reopened.size(), 36u);
}

TEST(LiveDatabase, BackgroundRefreezeTriggersOnTailGrowth) {
  InMemoryEnv env;
  const auto batches = make_batches(8, 16);
  exec::TaskPool pool(2);
  LiveOptions options;
  options.num_shards = 2;
  options.refreeze_min_docs = 32;   // trip quickly
  options.refreeze_fraction = 0.25;
  options.pool = &pool;
  LiveDatabase db(env, "live", options);

  for (const Batch& b : batches) db.add_batch(b.signatures, b.labels);
  db.wait_for_refreeze();

  EXPECT_GE(db.refreezes(), 1u);
  EXPECT_GE(db.manifest_epoch(), 1u);
  const auto stats = db.stats();
  EXPECT_EQ(stats.total_docs, 128u);
  EXPECT_GT(stats.base_docs, 0u);
  expect_live_equivalent(db.snapshot(), build_reference(batches, 8, 2),
                         "after background folds");
}

TEST(LiveDatabase, SegmentsSealedDuringRefreezeSurviveTheSwap) {
  // The survivor path: a batch sealed between the fold's capture and its
  // commit must stay in the tail of the new epoch AND keep its durable
  // journal copy (it is re-journaled into the new epoch's journal).
  InMemoryEnv env;
  const auto batches = make_batches(4, 8);
  auto options = foreground_options();
  LiveDatabase* handle = nullptr;
  options.after_refreeze_capture = [&] {
    handle->add_batch(batches[2].signatures, batches[2].labels);
  };
  LiveDatabase db(env, "live", options);
  handle = &db;

  db.add_batch(batches[0].signatures, batches[0].labels);
  db.add_batch(batches[1].signatures, batches[1].labels);
  ASSERT_TRUE(db.refreeze_now());  // seals batch 2 mid-fold

  const auto stats = db.stats();
  EXPECT_EQ(stats.base_docs, 16u);  // batches 0+1 folded
  EXPECT_EQ(stats.tail_docs, 8u);   // batch 2 survived as tail
  EXPECT_EQ(stats.segments, 1u);
  expect_live_equivalent(db.snapshot(), build_reference(batches, 3, 2),
                         "survivor epoch");

  // Its re-journaled copy must replay on reopen.
  LiveDatabase reopened(env, "live", foreground_options());
  EXPECT_EQ(reopened.recovery().journal_records_replayed, 1u);
  expect_live_equivalent(reopened.snapshot(), build_reference(batches, 3, 2),
                         "survivor reopen");
}

TEST(LiveDatabase, MalformedBatchLeavesArchiveUnchanged) {
  InMemoryEnv env;
  const auto batches = make_batches(2, 4);
  LiveDatabase db(env, "live", foreground_options());
  db.add_batch(batches[0].signatures, batches[0].labels);

  std::vector<vsm::SparseVector> signatures = batches[1].signatures;
  std::vector<std::string> labels = batches[1].labels;
  labels.pop_back();  // size mismatch
  EXPECT_THROW(db.add_batch(std::move(signatures), std::move(labels)),
               std::invalid_argument);

  EXPECT_EQ(db.size(), 4u);
  EXPECT_EQ(db.add_batch({}, {}), 4u);  // empty batch: no-op, returns next id
  expect_live_equivalent(db.snapshot(), build_reference(batches, 1, 2),
                         "after rejected batch");
}

TEST(LiveDatabase, SearchEdgeCases) {
  InMemoryEnv env;
  const auto batches = make_batches(2, 6);
  LiveDatabase db(env, "live", foreground_options());
  EXPECT_TRUE(db.search(batches[0].signatures[0], 5).empty());  // empty db

  db.add_batch(batches[0].signatures, batches[0].labels);
  db.add_batch(batches[1].signatures, batches[1].labels);
  EXPECT_TRUE(db.search(batches[0].signatures[0], 0).empty());  // k == 0
  EXPECT_TRUE(db.search(vsm::SparseVector{}, 5).empty());       // empty query

  // k larger than the archive returns everything, ranked.
  const auto hits = db.search(batches[0].signatures[0], 100);
  EXPECT_EQ(hits.size(), 12u);
  for (std::size_t r = 1; r < hits.size(); ++r) {
    EXPECT_TRUE(hits[r - 1].score > hits[r].score ||
                (hits[r - 1].score == hits[r].score &&
                 hits[r - 1].id < hits[r].id))
        << "rank " << r;
  }
}

// ---------------------------------------------------------------------------
// Seal rule and fold adoption
// ---------------------------------------------------------------------------

TEST(LiveDatabase, LargeBatchSealsAcrossBaseShards) {
  InMemoryEnv env;
  constexpr std::size_t kShards = 3;
  const auto batches = make_batches(1, exec::kMinDocsForParallelBuild);
  const SignatureDatabase reference = build_reference(batches, 1, kShards);
  {
    LiveDatabase db(env, "live", foreground_options(kShards));
    db.add_batch(batches[0].signatures, batches[0].labels);
    const auto stats = db.stats();
    EXPECT_EQ(stats.segment_shards, std::vector<std::size_t>{kShards});
    expect_live_equivalent(db.snapshot(), reference, "base-shaped segment");
  }

  // Replay re-seals the journal record with the same rule.
  LiveDatabase reopened(env, "live", foreground_options(kShards));
  EXPECT_EQ(reopened.recovery().journal_records_replayed, 1u);
  EXPECT_EQ(reopened.stats().segment_shards,
            std::vector<std::size_t>{kShards});
  expect_live_equivalent(reopened.snapshot(), reference, "replayed segment");
}

TEST(LiveDatabase, BatchBelowThresholdSealsSingleShard) {
  InMemoryEnv env;
  const auto batches = make_batches(1, exec::kMinDocsForParallelBuild - 1);
  LiveDatabase db(env, "live", foreground_options(3));
  db.add_batch(batches[0].signatures, batches[0].labels);
  EXPECT_EQ(db.stats().segment_shards, std::vector<std::size_t>{1});
  expect_live_equivalent(db.snapshot(), build_reference(batches, 1, 3),
                         "single-shard segment");

  // Not base-shaped, so the fold rebuilds it at the base's shard count.
  const auto before = db.snapshot();
  ASSERT_TRUE(db.refreeze_now());
  EXPECT_EQ(db.stats().base_shards.size(), 3u);
  EXPECT_NE(&db.snapshot().signature(0), &before.signature(0));
}

TEST(LiveDatabase, FoldAdoptsBaseShapedSegment) {
  InMemoryEnv env;
  constexpr std::size_t kShards = 2;
  const auto batches = make_batches(2, exec::kMinDocsForParallelBuild);
  LiveDatabase db(env, "live", foreground_options(kShards));
  db.add_batch(batches[0].signatures, batches[0].labels);
  const auto before = db.snapshot();

  ASSERT_TRUE(db.refreeze_now());
  const auto after = db.snapshot();
  EXPECT_EQ(after.base_docs(), exec::kMinDocsForParallelBuild);
  EXPECT_EQ(after.num_segments(), 0u);
  // Adopted, not rebuilt: the new base is the sealed segment itself.
  EXPECT_EQ(&after.signature(0), &before.signature(0));

  // The snapshot it wrote is byte for byte the bulk build's.
  SignatureDatabase reference = build_reference(batches, 1, kShards);
  env.create_dir("reference");
  reference.save(env, "reference/bulk.fms");
  EXPECT_EQ(env.read_file("live/" + snapshot_name(1)),
            env.read_file("reference/bulk.fms"));
  expect_live_equivalent(after, reference, "adopted base");

  // A fold over a non-empty base rebuilds and still matches.
  db.add_batch(batches[1].signatures, batches[1].labels);
  ASSERT_TRUE(db.refreeze_now());
  const auto rebuilt = db.snapshot();
  EXPECT_NE(&rebuilt.signature(0), &after.signature(0));
  expect_live_equivalent(rebuilt, build_reference(batches, 2, kShards),
                         "rebuilt base");

  LiveDatabase reopened(env, "live", foreground_options(kShards));
  expect_live_equivalent(reopened.snapshot(),
                         build_reference(batches, 2, kShards),
                         "reopened after adoption");
}

// ---------------------------------------------------------------------------
// The tail's segment ladder
// ---------------------------------------------------------------------------

/// Batches of the given sizes with labels unique across the whole list.
std::vector<Batch> sized_batches(const std::vector<std::size_t>& sizes,
                                 std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<Batch> batches(sizes.size());
  for (std::size_t b = 0; b < sizes.size(); ++b) {
    for (std::size_t d = 0; d < sizes[b]; ++d) {
      batches[b].signatures.push_back(random_sparse(rng, 64, 10));
      batches[b].labels.push_back("batch-" + std::to_string(b) + "-doc-" +
                                  std::to_string(d));
    }
  }
  return batches;
}

/// The most segments a settled tail of `docs` docs may hold.
std::size_t settled_segment_bound(std::size_t docs) {
  return (kSegmentMergeFanout - 1) * (segment_tier(docs) + 1);
}

TEST(SegmentLadder, TierIsFloorLogOfTheFanout) {
  constexpr std::size_t F = kSegmentMergeFanout;
  EXPECT_EQ(segment_tier(0), 0u);
  EXPECT_EQ(segment_tier(1), 0u);
  EXPECT_EQ(segment_tier(F - 1), 0u);
  EXPECT_EQ(segment_tier(F), 1u);
  EXPECT_EQ(segment_tier(F * F - 1), 1u);
  EXPECT_EQ(segment_tier(F * F), 2u);
  EXPECT_EQ(segment_tier(F * F * F), 3u);
}

TEST(SegmentLadder, SettledTailIsLeftAlone) {
  EXPECT_EQ(next_merge({}), std::nullopt);
  const std::vector<std::size_t> one = {64};
  EXPECT_EQ(next_merge(one), std::nullopt);
  std::vector<std::size_t> below_fanout(kSegmentMergeFanout - 1, 64);
  EXPECT_EQ(next_merge(below_fanout), std::nullopt);
  below_fanout.push_back(64);
  EXPECT_EQ(next_merge(below_fanout),
            (SegmentRun{0, kSegmentMergeFanout}));
  // A segment outranking its predecessor absorbs the smaller run before it.
  const std::vector<std::size_t> inverted = {4096, 64, 64, 5000};
  EXPECT_EQ(next_merge(inverted), (SegmentRun{1, 4}));
}

/// One simulated tail: segment doc counts plus, per segment, the batches
/// it holds (first id, docs, times built) so the property test can check
/// id order and bound rebuilds.
struct LadderTail {
  struct Piece {
    std::size_t first = 0;
    std::size_t docs = 0;
    std::size_t builds = 0;
  };
  std::vector<std::size_t> docs;
  std::vector<std::vector<Piece>> pieces;
  std::size_t total = 0;

  /// Appends one sealed batch, then merges as add_batch does.
  void add(std::size_t batch) {
    docs.push_back(batch);
    pieces.push_back({{total, batch, 1}});
    total += batch;
    while (const auto run = next_merge(docs)) {
      ASSERT_LT(run->begin + 1, run->end) << "a merge needs two segments";
      ASSERT_LE(run->end, docs.size());
      std::size_t merged = 0;
      std::vector<Piece> merged_pieces;
      for (std::size_t i = run->begin; i < run->end; ++i) {
        merged += docs[i];
        for (Piece piece : pieces[i]) {
          ++piece.builds;
          merged_pieces.push_back(piece);
        }
      }
      const auto begin = static_cast<std::ptrdiff_t>(run->begin);
      const auto end = static_cast<std::ptrdiff_t>(run->end);
      docs.erase(docs.begin() + begin + 1, docs.begin() + end);
      pieces.erase(pieces.begin() + begin + 1, pieces.begin() + end);
      docs[run->begin] = merged;
      pieces[run->begin] = std::move(merged_pieces);
    }
  }
};

TEST(SegmentLadder, PropertySettledShapeIsLogarithmicAndContiguous) {
  for (std::uint64_t seed = 0; seed < 48; ++seed) {
    util::Rng rng(0x1add3 + seed);
    const std::size_t batches = 1 + rng.below(300);
    LadderTail tail;
    std::size_t max_builds = 0;
    for (std::size_t b = 0; b < batches; ++b) {
      // Half the sequences draw sizes uniformly from 1..5000; the other
      // half log-uniformly, so small batches (low tiers) are common too.
      const std::size_t size =
          seed % 2 == 0
              ? 1 + rng.below(5000)
              : std::clamp<std::size_t>(
                    static_cast<std::size_t>(
                        std::exp(rng.uniform(0.0, std::log(5000.0)))),
                    1, 5000);
      tail.add(size);
      if (::testing::Test::HasFatalFailure()) return;

      const std::string context =
          "seed " + std::to_string(seed) + " batch " + std::to_string(b);
      ASSERT_LE(tail.docs.size(), settled_segment_bound(tail.total))
          << context;
      // Contiguity: each segment holds whole batches in ingest order, and
      // the segments tile [0, total) in that order.
      std::size_t next_id = 0;
      for (std::size_t i = 0; i < tail.docs.size(); ++i) {
        std::size_t piece_docs = 0;
        for (const auto& piece : tail.pieces[i]) {
          ASSERT_EQ(piece.first, next_id) << context;
          next_id += piece.docs;
          piece_docs += piece.docs;
          max_builds = std::max(max_builds, piece.builds);
        }
        ASSERT_EQ(piece_docs, tail.docs[i]) << context;
        if (i > 0) {
          ASSERT_GE(segment_tier(tail.docs[i - 1]),
                    segment_tier(tail.docs[i]))
              << context << ": tiers rise toward the newest segment";
        }
      }
      ASSERT_EQ(next_id, tail.total) << context;
    }
    // Seal, at most one non-lifting merge on arrival, one lift per tier.
    EXPECT_LE(max_builds, segment_tier(tail.total) + 2)
        << "seed " << seed << ": " << tail.total << " docs";
  }

  // The monitoring shape: at fan-out 8, 72 batches of 64 settle to
  // 4,096 + 512.
  LadderTail monitor;
  for (int b = 0; b < 72; ++b) monitor.add(64);
  EXPECT_EQ(monitor.docs, (std::vector<std::size_t>{4096, 512}));
}

TEST(LiveDatabase, LadderAnswersLikeBulkBuildAfterEveryBatch) {
  InMemoryEnv env;
  util::Rng rng(0x1adde5);
  std::vector<std::size_t> sizes;
  for (int b = 0; b < 40; ++b) {
    sizes.push_back(1 + rng.below(b % 3 == 0 ? 300 : 40));
  }
  const auto batches = sized_batches(sizes, 0xd1ff);
  LiveDatabase db(env, "live", foreground_options());
  for (std::size_t b = 0; b < batches.size(); ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
    if (b == 24) {
      ASSERT_TRUE(db.refreeze_now());  // a ladder over a base from here on
    }
    const auto stats = db.stats();
    const std::string context = "after batch " + std::to_string(b);
    EXPECT_EQ(next_merge(stats.segment_docs), std::nullopt) << context;
    EXPECT_LE(stats.segments, settled_segment_bound(stats.tail_docs))
        << context;
    expect_live_equivalent(db.snapshot(), build_reference(batches, b + 1, 2),
                           context);
  }
  EXPECT_GT(db.stats().segment_merges, 0u);
}

TEST(LiveDatabase, ReopenReplaysTheSettledLadderShape) {
  InMemoryEnv env;
  util::Rng rng(0x5e77);
  std::vector<std::size_t> sizes;
  for (int b = 0; b < 36; ++b) sizes.push_back(1 + rng.below(1200));
  const auto batches = sized_batches(sizes, 0x5e78);
  LiveStats settled;
  {
    LiveDatabase db(env, "live", foreground_options());
    for (std::size_t b = 0; b < 6; ++b) {
      db.add_batch(batches[b].signatures, batches[b].labels);
    }
    ASSERT_TRUE(db.refreeze_now());
    for (std::size_t b = 6; b < batches.size(); ++b) {
      db.add_batch(batches[b].signatures, batches[b].labels);
    }
    settled = db.stats();
    ASSERT_GT(settled.segment_merges, 0u);
    ASSERT_LT(settled.segments, batches.size() - 6);
    // A merge reached the parallel-build size, so the ladder holds a
    // segment sealed across the base's shard count.
    EXPECT_NE(std::find(settled.segment_shards.begin(),
                        settled.segment_shards.end(), 2u),
              settled.segment_shards.end());
  }

  LiveDatabase reopened(env, "live", foreground_options());
  // Merges wrote nothing: the journal still holds one record per batch.
  EXPECT_EQ(reopened.recovery().journal_records_replayed, batches.size() - 6);
  const auto stats = reopened.stats();
  EXPECT_EQ(stats.base_docs, settled.base_docs);
  EXPECT_EQ(stats.segment_docs, settled.segment_docs);
  EXPECT_EQ(stats.segment_shards, settled.segment_shards);
  expect_live_equivalent(reopened.snapshot(),
                         build_reference(batches, batches.size(), 2),
                         "reopened ladder");
}

/// The journal a writer appending exactly these batches, one record each,
/// would leave behind.
std::string per_batch_journal(InMemoryEnv& env,
                                         const std::vector<Batch>& batches,
                                         std::size_t begin, std::size_t end) {
  const std::string path = "expected/journal-" + std::to_string(begin) +
                           "-" + std::to_string(end);
  env.create_dir("expected");
  io::journal::Writer writer(env, path, io::journal::SyncPolicy::kNone);
  for (std::size_t b = begin; b < end; ++b) {
    writer.append(encode_batch(batches[b].signatures, batches[b].labels));
  }
  writer.sync();
  writer.close();
  return env.read_file(path);
}

TEST(LiveDatabase, MergesWriteNothingJournalKeepsPerBatchRecords) {
  InMemoryEnv env;
  const std::size_t mid_fold = kSegmentMergeFanout + 2;
  const auto batches = make_batches(20 + mid_fold + 4, 3, 0x10af);
  auto options = foreground_options();
  LiveDatabase* handle = nullptr;
  options.after_refreeze_capture = [&] {
    for (std::size_t b = 20; b < 20 + mid_fold; ++b) {
      handle->add_batch(batches[b].signatures, batches[b].labels);
    }
  };
  LiveDatabase db(env, "live", options);
  handle = &db;
  for (std::size_t b = 0; b < 20; ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
  }
  ASSERT_GT(db.stats().segment_merges, 0u);
  EXPECT_EQ(env.read_file("live/" + journal_name(0)),
            per_batch_journal(env, batches, 0, 20));

  // The survivors sealed mid-fold are re-journaled record by record; the
  // batches after the fold merge with them and still journal one each.
  ASSERT_TRUE(db.refreeze_now());
  EXPECT_EQ(db.stats().segments, mid_fold);  // no merge while the fold ran
  for (std::size_t b = 20 + mid_fold; b < batches.size(); ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
  }
  EXPECT_LT(db.stats().segments, mid_fold);
  EXPECT_EQ(env.read_file("live/" + journal_name(1)),
            per_batch_journal(env, batches, 20, batches.size()));

  LiveDatabase reopened(env, "live", foreground_options());
  EXPECT_EQ(reopened.recovery().journal_records_replayed,
            batches.size() - 20);
  EXPECT_EQ(next_merge(reopened.stats().segment_docs), std::nullopt);
  expect_live_equivalent(reopened.snapshot(),
                         build_reference(batches, batches.size(), 2),
                         "reopened after merged survivors");
}

// ---------------------------------------------------------------------------
// Per-query outcomes across the base and the segments
// ---------------------------------------------------------------------------

/// A folded 2-shard base (batch 0) plus two single-shard tail segments.
struct BasePlusTail {
  InMemoryEnv env;
  std::vector<Batch> batches = make_batches(3, 8, 0x0c0e);
  LiveDatabase db{env, "live", foreground_options()};
  BasePlusTail() {
    db.add_batch(batches[0].signatures, batches[0].labels);
    db.refreeze_now();
    db.add_batch(batches[1].signatures, batches[1].labels);
    db.add_batch(batches[2].signatures, batches[2].labels);
  }
};

TEST(LiveDatabase, SegmentShardFaultReportsShardFailedAndKeepsBaseHits) {
  BasePlusTail archive;
  const auto snapshot = archive.db.snapshot();
  ASSERT_EQ(snapshot.num_segments(), 2u);
  const auto& query = archive.batches[0].signatures[0];

  // Base shards are 0 and 1; the two segments' shards follow as 2 and 3.
  std::set<std::size_t> shards_seen;
  SearchOptions observe;
  std::vector<QueryOutcome> outcomes;
  observe.outcomes = &outcomes;
  observe.inject_cell_fault = [&](std::size_t, std::size_t shard) {
    shards_seen.insert(shard);
  };
  snapshot.search(query, 5, SimilarityMetric::kCosine, PruningMode::kExact,
                  nullptr, observe);
  EXPECT_EQ(shards_seen, (std::set<std::size_t>{0, 1, 2, 3}));
  EXPECT_EQ(outcomes, std::vector<QueryOutcome>{QueryOutcome::kOk});

  SearchOptions faulty;
  faulty.outcomes = &outcomes;
  faulty.inject_cell_fault = [](std::size_t, std::size_t shard) {
    if (shard >= 2) throw std::runtime_error("segment probe fault");
  };
  QueryStats stats;
  std::vector<SearchHit> hits;
  EXPECT_NO_THROW(hits = snapshot.search(query, 5, SimilarityMetric::kCosine,
                                         PruningMode::kExact, &stats, faulty));
  EXPECT_EQ(outcomes, std::vector<QueryOutcome>{QueryOutcome::kShardFailed});
  EXPECT_EQ(stats.shard_failed, 1u);
  EXPECT_EQ(stats.partial_results, 1u);
  // The base's hits are kept: exactly the answer of the base alone.
  const auto base_only = build_reference(archive.batches, 1, 2).search(query, 5);
  ASSERT_EQ(hits.size(), base_only.size());
  for (std::size_t r = 0; r < hits.size(); ++r) {
    EXPECT_EQ(hits[r].id, base_only[r].id) << "rank " << r;
    EXPECT_EQ(hits[r].score, base_only[r].score) << "rank " << r;
  }

  // Without an outcome vector the failure throws, as in SignatureDatabase.
  faulty.outcomes = nullptr;
  EXPECT_THROW(snapshot.search(query, 5, SimilarityMetric::kCosine,
                               PruningMode::kExact, nullptr, faulty),
               std::runtime_error);
}

TEST(LiveDatabase, CancelDuringSegmentProbesIsReportedOnce) {
  BasePlusTail archive;
  const auto snapshot = archive.db.snapshot();
  const std::vector<vsm::SparseVector> queries = {
      archive.batches[0].signatures[0], archive.batches[0].signatures[1]};
  CancelToken token;
  SearchOptions options;
  std::vector<QueryOutcome> outcomes;
  options.outcomes = &outcomes;
  options.deadline = Deadline::of_token(token);
  // Cancel as the first segment probe starts: the base already answered,
  // both segments stop at their first checkpoint.
  options.inject_cell_fault = [&](std::size_t, std::size_t shard) {
    if (shard == 2) token.cancel();
  };
  QueryStats stats;
  const auto hits = snapshot.search_batch(queries, 5, SimilarityMetric::kCosine,
                                          PruningMode::kExact, &stats, options);
  EXPECT_EQ(outcomes, std::vector<QueryOutcome>(2, QueryOutcome::kCancelled));
  EXPECT_EQ(stats.cancelled, 2u);  // once per query, not once per segment
  EXPECT_EQ(stats.partial_results, 2u);
  const auto base = build_reference(archive.batches, 1, 2);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto base_only = base.search(queries[q], 5);
    ASSERT_EQ(hits[q].size(), base_only.size()) << "q " << q;
    for (std::size_t r = 0; r < base_only.size(); ++r) {
      EXPECT_EQ(hits[q][r].id, base_only[r].id) << "q " << q;
    }
  }
}

// ---------------------------------------------------------------------------
// Concurrency (runs under the TSan CI job)
// ---------------------------------------------------------------------------

// Regression: ShardedIndex::shard_stats()/memory_bytes()/stats() used to
// read shard internals racily against concurrent add_batch. A scrape
// thread hammering every stats surface during parallel ingest must be
// TSan-clean and never observe torn state.
TEST(LiveDatabase, StatsScrapeDuringParallelIngestIsSafe) {
  const auto batches = make_batches(32, 8, 0xabba);
  SignatureDatabase db(4);

  std::thread ingester([&] {
    for (const Batch& b : batches) db.add_batch(b.signatures, b.labels);
    db.freeze();
  });
  std::thread scraper([&] {
    for (int i = 0; i < 200; ++i) {
      const auto shard_stats = db.index().shard_stats();
      std::size_t docs = 0;
      for (const auto& s : shard_stats) docs += s.docs;
      EXPECT_LE(docs, 256u);
      (void)db.index().memory_bytes();
      (void)db.index().memory_breakdown();
      (void)db.index().num_postings();
      db.publish_gauges();
    }
  });
  ingester.join();
  scraper.join();
  EXPECT_EQ(db.size(), 256u);
}

// Regression: freeze() concurrent with an outstanding query used to be
// undefined. Queries and freezes now serialize on the index's
// reader/writer lock — every query sees a consistent pre- or post-freeze
// index, never a half-frozen shard.
TEST(LiveDatabase, FreezeDuringQueryIsSafe) {
  const auto batches = make_batches(16, 8, 0xf0f0);
  SignatureDatabase db(4);
  for (std::size_t b = 0; b < 8; ++b) {
    db.add_batch(batches[b].signatures, batches[b].labels);
  }

  std::thread freezer([&] {
    for (std::size_t b = 8; b < 16; ++b) {
      db.add_batch(batches[b].signatures, batches[b].labels);
      db.freeze();
    }
  });
  std::thread querier([&] {
    util::Rng rng(0x51ca);
    for (int q = 0; q < 100; ++q) {
      const auto query = random_sparse(rng, 64, 10);
      const auto hits = db.search(query, 5);
      EXPECT_LE(hits.size(), 5u);
      for (const auto& hit : hits) EXPECT_LT(hit.id, 128u);
    }
  });
  freezer.join();
  querier.join();
  EXPECT_EQ(db.size(), 128u);
}

// The live archive's full concurrent surface: ingest, snapshot queries,
// explicit re-freezes, and stats scrapes all at once, then a reopen that
// must see every batch (ingest is synchronous and journaled).
TEST(LiveDatabase, ConcurrentIngestQueryRefreezeScrape) {
  InMemoryEnv env;
  const auto batches = make_batches(24, 8, 0xcafe);
  exec::TaskPool pool(2);
  LiveOptions options;
  options.num_shards = 2;
  options.refreeze_min_docs = 24;
  options.refreeze_fraction = 0.125;
  options.pool = &pool;
  {
    LiveDatabase db(env, "live", options);

    std::thread ingester([&] {
      for (const Batch& b : batches) db.add_batch(b.signatures, b.labels);
    });
    std::thread querier([&] {
      util::Rng rng(0xbead);
      for (int q = 0; q < 100; ++q) {
        const auto snapshot = db.snapshot();
        const auto query = random_sparse(rng, 64, 10);
        const auto hits = snapshot.search(query, 5);
        EXPECT_LE(hits.size(), 5u);
        for (const auto& hit : hits) EXPECT_LT(hit.id, snapshot.size());
      }
    });
    std::thread folder([&] {
      for (int i = 0; i < 4; ++i) db.refreeze_now();
    });
    std::thread scraper([&] {
      for (int i = 0; i < 100; ++i) {
        const auto stats = db.stats();
        EXPECT_EQ(stats.base_docs + stats.tail_docs, stats.total_docs);
        EXPECT_LE(stats.total_docs, 192u);
        db.publish_gauges();
      }
    });
    ingester.join();
    querier.join();
    folder.join();
    scraper.join();

    EXPECT_EQ(db.size(), 192u);
    expect_live_equivalent(db.snapshot(), build_reference(batches, 24, 2),
                           "post-concurrency");
  }

  LiveDatabase reopened(env, "live", options);
  EXPECT_EQ(reopened.size(), 192u);
  expect_live_equivalent(reopened.snapshot(),
                         build_reference(batches, 24, 2),
                         "post-concurrency reopen");
}

// Single searches over a base this size fan out across the shared pool, so
// pooled spans from two pinned-snapshot searchers share workers with a
// background fold while ingest continues. Every answer must still equal a
// bulk build of the pinned documents.
TEST(LiveDatabase, PooledSearchesOnPinnedSnapshotDuringFoldAndIngest) {
  InMemoryEnv env;
  auto batches = make_batches(12, 16, 0x9001);
  batches.front() = make_batches(1, 20000, 0x9002).front();
  LiveOptions options;
  options.num_shards = 4;
  options.refreeze_min_docs = 64;
  options.refreeze_fraction = 0.0;
  LiveDatabase db(env, "live", options);  // folds on TaskPool::shared()

  db.add_batch(batches[0].signatures, batches[0].labels);
  db.wait_for_refreeze();
  ASSERT_EQ(db.stats().base_docs, 20000u);
  db.add_batch(batches[1].signatures, batches[1].labels);
  const auto pinned = db.snapshot();
  ASSERT_EQ(pinned.num_segments(), 1u);

  const auto reference = build_reference(batches, 2, 4);
  util::Rng rng(0x5ea7);
  std::vector<vsm::SparseVector> queries;
  for (int q = 0; q < 6; ++q) queries.push_back(random_sparse(rng, 64, 10));
  const std::size_t k = 10;
  std::vector<std::vector<SearchHit>> expected;
  for (const auto& query : queries) {
    expected.push_back(reference.search(query, k));
  }

  const auto search_all = [&](QueryStats& stats, const std::string& who) {
    for (int round = 0; round < 3; ++round) {
      for (std::size_t q = 0; q < queries.size(); ++q) {
        const auto hits = pinned.search(queries[q], k,
                                        SimilarityMetric::kCosine,
                                        PruningMode::kAuto, &stats);
        ASSERT_EQ(hits.size(), expected[q].size()) << who << " q " << q;
        for (std::size_t r = 0; r < hits.size(); ++r) {
          EXPECT_EQ(hits[r].id, expected[q][r].id) << who << " q " << q;
          EXPECT_EQ(hits[r].label, expected[q][r].label) << who << " q " << q;
          EXPECT_EQ(hits[r].score, expected[q][r].score) << who << " q " << q;
        }
      }
    }
  };

  QueryStats stats_a;
  QueryStats stats_b;
  std::thread searcher_a([&] { search_all(stats_a, "searcher a"); });
  std::thread searcher_b([&] { search_all(stats_b, "searcher b"); });
  std::thread ingester([&] {
    for (std::size_t b = 2; b < batches.size(); ++b) {
      db.add_batch(batches[b].signatures, batches[b].labels);
    }
  });
  searcher_a.join();
  searcher_b.join();
  ingester.join();
  db.wait_for_refreeze();

  EXPECT_GE(db.refreezes(), 2u);
  EXPECT_EQ(db.size(), 20000u + 11u * 16u);
  // A one-worker pool has no parallelism to offer; everywhere else the
  // base probe must have fanned out.
  if (exec::TaskPool::shared().size() >= 2) {
    EXPECT_GT(stats_a.dispatch_pooled, 0u);
    EXPECT_GT(stats_b.dispatch_pooled, 0u);
  }
}

// Two writers and two readers against background folds and merges on
// TaskPool::shared(). Each reader pins snapshots while the ladder and the
// base change underneath; every answer must equal a bulk build of exactly
// the pinned documents.
TEST(LiveDatabase, ConcurrentWritersAndPinnedReadersDuringFoldsAndMerges) {
  InMemoryEnv env;
  const auto first = make_batches(24, 8, 0x7a11);
  auto second = make_batches(24, 8, 0x7a12);
  for (Batch& batch : second) {
    for (std::string& label : batch.labels) label = "second-" + label;
  }
  LiveOptions options;
  options.num_shards = 2;
  options.refreeze_min_docs = 96;
  options.refreeze_fraction = 0.5;
  LiveDatabase db(env, "live", options);  // folds and merges on the shared pool

  std::atomic<int> writers_running{2};
  const auto writer = [&](const std::vector<Batch>& batches) {
    for (const Batch& b : batches) db.add_batch(b.signatures, b.labels);
    --writers_running;
  };
  const auto reader = [&](std::uint64_t seed) {
    util::Rng rng(seed);
    for (int pin = 0; pin < 4 || writers_running.load() > 0; ++pin) {
      const auto snapshot = db.snapshot();
      SignatureDatabase reference(2);
      std::vector<vsm::SparseVector> signatures;
      std::vector<std::string> labels;
      for (std::size_t id = 0; id < snapshot.size(); ++id) {
        signatures.push_back(snapshot.signature(id));
        labels.push_back(snapshot.label(id));
      }
      reference.add_batch(std::move(signatures), std::move(labels));
      for (int q = 0; q < 3; ++q) {
        const auto query = random_sparse(rng, 64, 10);
        const auto got = snapshot.search(query, 5);
        const auto want = reference.search(query, 5);
        ASSERT_EQ(got.size(), want.size()) << "pin " << pin;
        for (std::size_t r = 0; r < want.size(); ++r) {
          EXPECT_EQ(got[r].id, want[r].id) << "pin " << pin << " rank " << r;
          EXPECT_EQ(got[r].label, want[r].label) << "pin " << pin;
          EXPECT_EQ(got[r].score, want[r].score) << "pin " << pin;
        }
      }
    }
  };
  std::thread writer_a(writer, std::cref(first));
  std::thread writer_b(writer, std::cref(second));
  std::thread reader_a(reader, 0x4ead);
  std::thread reader_b(reader, 0x4eae);
  writer_a.join();
  writer_b.join();
  reader_a.join();
  reader_b.join();
  db.wait_for_refreeze();

  EXPECT_EQ(db.size(), 384u);
  EXPECT_GE(db.refreezes(), 1u);
  // Every batch stays whole and in its writer's order.
  const auto snapshot = db.snapshot();
  std::size_t next_a = 0;
  std::size_t next_b = 0;
  for (std::size_t id = 0; id < snapshot.size(); id += 8) {
    const std::string& label = snapshot.label(id);
    const bool from_a = next_a < first.size() &&
                        label == first[next_a].labels.front();
    const Batch& batch = from_a ? first[next_a++] : second[next_b++];
    for (std::size_t d = 0; d < 8; ++d) {
      ASSERT_EQ(snapshot.label(id + d), batch.labels[d]) << "id " << id + d;
    }
  }
  EXPECT_EQ(next_a, first.size());
  EXPECT_EQ(next_b, second.size());
}

}  // namespace
}  // namespace fmeter::core
