// Ingest allocation bounds: loading N documents must allocate O(N) bytes.
//
// This binary replaces the global operator new to count the bytes each
// ingest path allocates, and asserts that building an index allocates at
// most a small constant multiple of the finished index's memory_bytes().
// Geometric growth allocates about twice what it keeps; a per-document
// array grown by an exact reserve(size() + 1) copies itself on every add,
// allocates O(N²) bytes in total, and misses the bound by an order of
// magnitude. Counting bytes is deterministic where a timing ratio is not.
//
// Sanitizers intercept operator new themselves, so this binary stays out
// of the sanitizer builds.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "fmeter/database.hpp"
#include "index/inverted_index.hpp"
#include "util/rng.hpp"
#include "vsm/sparse_vector.hpp"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_allocated_bytes{0};

void* counted_alloc(std::size_t bytes) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocated_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t bytes) { return counted_alloc(bytes); }
void* operator new[](std::size_t bytes) { return counted_alloc(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace fmeter {
namespace {

constexpr std::size_t kDocs = 10000;
/// Allowed bytes allocated per byte the finished index keeps.
constexpr double kMaxAllocatedPerKeptByte = 8.0;

/// Bytes allocated by the calling code while `body` runs.
template <typename Body>
std::size_t allocated_during(Body&& body) {
  g_allocated_bytes.store(0, std::memory_order_relaxed);
  g_counting.store(true, std::memory_order_relaxed);
  body();
  g_counting.store(false, std::memory_order_relaxed);
  return g_allocated_bytes.load(std::memory_order_relaxed);
}

std::vector<vsm::SparseVector> make_docs(std::size_t count,
                                         std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<vsm::SparseVector> docs;
  docs.reserve(count);
  for (std::size_t d = 0; d < count; ++d) {
    std::vector<vsm::SparseVector::Entry> entries;
    const std::size_t nnz = 1 + rng.below(60);
    for (std::size_t i = 0; i < nnz; ++i) {
      entries.emplace_back(static_cast<vsm::SparseVector::Index>(
                               rng.below(4096)),
                           rng.uniform(0.05, 1.0));
    }
    docs.push_back(vsm::SparseVector::from_entries(std::move(entries)));
  }
  return docs;
}

void expect_linear(std::size_t allocated, std::size_t kept,
                   const char* path) {
  ASSERT_GT(kept, 0u);
  const double ratio =
      static_cast<double>(allocated) / static_cast<double>(kept);
  std::cout << path << ": " << allocated << " bytes allocated, " << kept
            << " bytes kept, ratio " << ratio << "\n";
  EXPECT_LE(ratio, kMaxAllocatedPerKeptByte)
      << path << " allocated " << allocated << " bytes to keep " << kept
      << " — superlinear growth in an ingest path";
}

TEST(IngestAllocation, SingleDocAddsGrowGeometrically) {
  const auto docs = make_docs(kDocs, 0xa110c);
  index::InvertedIndex index;
  const std::size_t allocated = allocated_during([&] {
    for (const auto& doc : docs) index.add(doc);
  });
  ASSERT_EQ(index.size(), kDocs);
  expect_linear(allocated, index.memory_bytes(), "InvertedIndex::add x10k");
}

TEST(IngestAllocation, BulkBatchIntoOneShardIsLinear) {
  auto docs = make_docs(kDocs, 0xba7c4);
  std::vector<std::string> labels(kDocs, "label");
  // Warm the process-wide metric and tracer registries, which allocate
  // once on first use, so the count below covers only the ingest itself.
  {
    core::SignatureDatabase warm(1);
    warm.add_batch(make_docs(4, 1), std::vector<std::string>(4, "warm"));
  }
  core::SignatureDatabase db(1);
  const std::size_t allocated = allocated_during(
      [&] { db.add_batch(std::move(docs), std::move(labels)); });
  ASSERT_EQ(db.size(), kDocs);
  expect_linear(allocated, db.index().memory_bytes(),
                "SignatureDatabase(1).add_batch(10k)");
}

}  // namespace
}  // namespace fmeter
