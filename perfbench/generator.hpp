// The benchmark's one request generator.  Every workload draws from
// it; only the duplication ratio, the size range and the hot set
// change between them.  Request i is a pure function of (seed, i)
// and the requests before it, so a seed fixes the whole stream.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_set>
#include <vector>

#include "btree/binary_tree.hpp"
#include "service/request.hpp"

namespace perfbench {

using xt::BinaryTree;
using xt::NodeId;
using xt::Theorem;

/// Theorems are drawn T1 60 % / T2 20 % / T3 20 %.
struct GenSpec {
  double dup = 0.0;         // share of requests that repeat a hot pair
  std::size_t hot = 0;      // hot (shape, theorem) pairs
  NodeId n_min = 64;        // sizes are log-uniform in [n_min, n_max]
  NodeId n_max = 256;
};

/// One request input: a tree, the theorem asked for, and its xtb1
/// record payload.
struct Shape {
  BinaryTree tree;
  Theorem theorem = Theorem::kT1;
  std::uint64_t digest = 0;  // canonical_hash(tree)
  std::string payload;       // encode_xtb1_record(tree)
};

/// A generated request.  `payload` points into the stream and stays
/// valid until the next call to next().
struct Request {
  std::uint64_t index = 0;
  std::int32_t hot = -1;  // hot-set slot, or -1 for a fresh shape
  Theorem theorem = Theorem::kT1;
  bool want_embedding = false;
  NodeId n = 0;
  std::uint64_t digest = 0;
  const std::string* payload = nullptr;
};

/// Requests whose answers make up the output fingerprint (and whose
/// inputs make up the input digest): every run sends at least these.
inline constexpr std::uint64_t kFingerprintRequests = 2048;

class RequestStream {
 public:
  RequestStream(const GenSpec& spec, std::uint64_t seed);

  [[nodiscard]] const std::vector<Shape>& hot() const { return hot_; }
  /// Generates the next `count` requests ahead of time (set-up work).
  void prefetch(std::size_t count);
  [[nodiscard]] Request next();
  /// Requests handed out by next() so far.
  [[nodiscard]] std::uint64_t issued() const { return issued_; }
  /// Digest of the hot set and of the first kFingerprintRequests
  /// requests (complete once that many have been generated).
  [[nodiscard]] std::uint64_t input_digest() const { return input_digest_; }

 private:
  /// A generated request that owns its fresh payload.
  struct Ahead {
    Request request;
    std::string payload;
  };
  Shape fresh_shape(std::uint64_t tag);
  Ahead generate();

  GenSpec spec_;
  std::uint64_t seed_;
  std::vector<Shape> hot_;
  std::unordered_set<std::uint64_t> seen_;  // digests of every shape made
  std::deque<Ahead> ahead_;
  Ahead current_;
  std::uint64_t next_index_ = 0;
  std::uint64_t issued_ = 0;
  std::uint64_t input_digest_ = 0;
};

/// Deterministic per-(seed, tag) RNG seed.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag);

/// A random shape from the generator families: family uniform over
/// tree_family_names(), n log-uniform in [n_min, n_max].  The
/// deterministic families (a function of n alone) get 1-8 of their
/// nodes regrown as random leaves so shapes can be fresh.
[[nodiscard]] BinaryTree family_shape(std::uint64_t rng_seed, NodeId n_min,
                                      NodeId n_max);

/// The same shape with its child order swapped at random nodes: an
/// isomorphic copy with different bytes (the canonical digest maps it
/// to the original's cache key).
[[nodiscard]] BinaryTree mirrored(const BinaryTree& tree,
                                  std::uint64_t rng_seed);

}  // namespace perfbench
