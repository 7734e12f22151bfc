// Seeded inputs for the archive benchmark, drawn from the repository's
// synthetic archive model (bench/bench_common.hpp): 11 behaviour classes,
// each a permutation of one Zipf(1.1) rank law over 3,800 kernel functions,
// 120 function samples per signature, log-normal weights, L2-normalised.
//
// Two streams share one class mixture (the same permutations) but draw from
// disjoint random streams: the corpus (signatures plus labels, in ingest
// order) and the queries. Document i of a stream is generated from its own
// generator seeded by (seed, stream, i), so the inputs do not depend on how
// many threads generate them: the same seed gives byte-identical inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "vsm/sparse_vector.hpp"

namespace perfbench {

inline constexpr std::size_t kClasses = 11;
inline constexpr std::uint32_t kFunctions = 3800;
inline constexpr std::size_t kSamplesPerSignature = 120;
inline constexpr double kZipfExponent = 1.1;

struct Inputs {
  std::vector<fmeter::vsm::SparseVector> corpus;
  std::vector<std::string> labels;
  std::vector<fmeter::vsm::SparseVector> queries;
};

/// Generates `docs` corpus signatures and `queries` query signatures for
/// `seed`, using at most `threads` (1 or 2) generator threads.
Inputs make_inputs(std::uint64_t seed, std::size_t docs, std::size_t queries,
                   unsigned threads = 2);

/// Raw user bytes of a set of signatures: 12 bytes per nonzero (4-byte
/// function id + 8-byte weight) plus the label bytes.
std::size_t user_bytes(const std::vector<fmeter::vsm::SparseVector>& docs,
                       const std::vector<std::string>& labels,
                       std::size_t begin, std::size_t end);

/// Every input byte in a canonical order (for the determinism test).
std::string serialize(const Inputs& inputs);

}  // namespace perfbench
