#include "inputs.hpp"

#include <cstring>
#include <thread>

#include "bench_common.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kCorpusStream = 1;
constexpr std::uint64_t kQueryStream = 2;
constexpr std::uint64_t kMixtureStream = 3;

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t item_seed(std::uint64_t seed, std::uint64_t stream,
                        std::uint64_t item) {
  return mix(mix(mix(seed) ^ stream) ^ item);
}

struct Model {
  std::vector<std::vector<std::uint32_t>> perms;
  fmeter::util::ZipfDistribution zipf{kFunctions, kZipfExponent};
};

/// Item i of a stream: its class is drawn from the mixture, then its
/// signature from that class's rank law.
fmeter::vsm::SparseVector draw(const Model& model, std::uint64_t seed,
                               std::uint64_t stream, std::size_t i,
                               std::size_t& cls) {
  fmeter::util::Rng rng(item_seed(seed, stream, i));
  cls = static_cast<std::size_t>(rng.below(kClasses));
  return fmeter::bench::synthetic_class_signature(
      rng, model.zipf, model.perms[cls], kSamplesPerSignature);
}

template <class Fn>
void parallel_for(std::size_t n, unsigned threads, Fn&& fn) {
  if (threads < 2 || n < 1024) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::thread helper([&] {
    for (std::size_t i = n / 2; i < n; ++i) fn(i);
  });
  for (std::size_t i = 0; i < n / 2; ++i) fn(i);
  helper.join();
}

template <class T>
void put(std::string& out, const T& value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

}  // namespace

Inputs make_inputs(std::uint64_t seed, std::size_t docs, std::size_t queries,
                   unsigned threads) {
  Model model;
  fmeter::util::Rng mixture_rng(item_seed(seed, kMixtureStream, 0));
  model.perms =
      fmeter::bench::class_permutations(mixture_rng, kClasses, kFunctions);

  Inputs inputs;
  inputs.corpus.resize(docs);
  inputs.labels.resize(docs);
  inputs.queries.resize(queries);
  parallel_for(docs, threads, [&](std::size_t i) {
    std::size_t cls = 0;
    inputs.corpus[i] = draw(model, seed, kCorpusStream, i, cls);
    inputs.labels[i] = "class-" + std::to_string(cls);
  });
  parallel_for(queries, threads, [&](std::size_t i) {
    std::size_t cls = 0;
    inputs.queries[i] = draw(model, seed, kQueryStream, i, cls);
  });
  return inputs;
}

std::size_t user_bytes(const std::vector<fmeter::vsm::SparseVector>& docs,
                       const std::vector<std::string>& labels,
                       std::size_t begin, std::size_t end) {
  std::size_t bytes = 0;
  for (std::size_t i = begin; i < end; ++i) {
    bytes += 12 * docs[i].nnz() + labels[i].size();
  }
  return bytes;
}

std::string serialize(const Inputs& inputs) {
  std::string out;
  const auto put_vector = [&out](const fmeter::vsm::SparseVector& v) {
    put(out, static_cast<std::uint64_t>(v.nnz()));
    for (std::size_t j = 0; j < v.nnz(); ++j) {
      put(out, v.indices()[j]);
      put(out, v.values()[j]);
    }
  };
  for (std::size_t i = 0; i < inputs.corpus.size(); ++i) {
    put_vector(inputs.corpus[i]);
    out += inputs.labels[i];
    out.push_back('\0');
  }
  for (const auto& query : inputs.queries) put_vector(query);
  return out;
}

}  // namespace perfbench
