#include "generator.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "btree/canonical.hpp"
#include "btree/generators.hpp"
#include "net/wire.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

NodeId log_uniform(xt::Rng& rng, NodeId lo, NodeId hi) {
  const double a = std::log(static_cast<double>(lo));
  const double b = std::log(static_cast<double>(hi) + 1.0);
  const auto n = static_cast<NodeId>(std::exp(a + (b - a) * rng.uniform01()));
  return std::clamp(n, lo, hi);
}

Theorem theorem_from(xt::Rng& rng) {
  const std::uint64_t u = rng.below(10);  // T1 60 %, T2 20 %, T3 20 %
  return u < 6 ? Theorem::kT1 : (u < 8 ? Theorem::kT2 : Theorem::kT3);
}

std::uint64_t fold(std::uint64_t h, const void* data, std::size_t len) {
  return xt::hash64(data, len, h);
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t s = seed ^ (tag * 0x9E3779B97F4A7C15ull);
  return xt::splitmix64(s);
}

BinaryTree family_shape(std::uint64_t rng_seed, NodeId n_min, NodeId n_max) {
  xt::Rng rng(rng_seed);
  const auto& families = xt::tree_family_names();
  const std::string& family = families[rng.below(families.size())];
  const NodeId n = log_uniform(rng, n_min, n_max);
  if (family.rfind("random", 0) == 0) return xt::make_family_tree(family, n, rng);
  const auto regrown = static_cast<NodeId>(1 + rng.below(8));
  BinaryTree tree = xt::make_family_tree(family, n - regrown, rng);
  for (NodeId k = 0; k < regrown; ++k) {
    for (;;) {
      const auto v = static_cast<NodeId>(rng.below(
          static_cast<std::uint64_t>(tree.num_nodes())));
      if (tree.num_children(v) < 2) {
        tree.add_child(v);
        break;
      }
    }
  }
  return tree;
}

BinaryTree mirrored(const BinaryTree& tree, std::uint64_t rng_seed) {
  xt::Rng rng(rng_seed);
  std::vector<NodeId> to_new(static_cast<std::size_t>(tree.num_nodes()));
  std::vector<NodeId> stack{tree.root()};
  NodeId next = 0;
  while (!stack.empty()) {
    const NodeId v = stack.back();
    stack.pop_back();
    to_new[static_cast<std::size_t>(v)] = next++;
    NodeId first = tree.left(v);
    NodeId second = tree.right(v);
    if (second != xt::kInvalidNode && rng.chance(0.5)) std::swap(first, second);
    if (second != xt::kInvalidNode) stack.push_back(second);
    if (first != xt::kInvalidNode) stack.push_back(first);
  }
  return xt::relabeled_tree(tree, to_new);
}

RequestStream::RequestStream(const GenSpec& spec, std::uint64_t seed)
    : spec_(spec), seed_(seed) {
  hot_.reserve(spec_.hot);
  // Hot-set tags sit far above any request index.
  for (std::size_t k = 0; k < spec_.hot; ++k)
    hot_.push_back(fresh_shape((std::uint64_t{1} << 62) + k));
  for (const Shape& s : hot_) {
    input_digest_ = fold(input_digest_, s.payload.data(), s.payload.size());
    const auto t = static_cast<std::uint8_t>(s.theorem);
    input_digest_ = fold(input_digest_, &t, 1);
  }
}

Shape RequestStream::fresh_shape(std::uint64_t tag) {
  for (std::uint64_t attempt = 0;; ++attempt) {
    const std::uint64_t s = mix_seed(mix_seed(seed_, tag), attempt);
    Shape shape;
    shape.tree = family_shape(s, spec_.n_min, spec_.n_max);
    shape.digest = xt::canonical_hash(shape.tree);
    // A shape is fresh only if no earlier request (or hot pair) had it.
    if (!seen_.insert(shape.digest).second) continue;
    xt::Rng rng(s ^ 0x7468656f72656dull);
    shape.theorem = theorem_from(rng);
    shape.payload = xt::encode_xtb1_record(shape.tree);
    return shape;
  }
}

RequestStream::Ahead RequestStream::generate() {
  Ahead a;
  Request& r = a.request;
  r.index = next_index_++;
  xt::Rng rng(mix_seed(seed_, r.index));
  r.want_embedding = rng.chance(0.5);
  const Shape* shape = nullptr;
  Shape fresh;
  if (!hot_.empty() && rng.chance(spec_.dup)) {
    r.hot = static_cast<std::int32_t>(rng.below(hot_.size()));
    shape = &hot_[static_cast<std::size_t>(r.hot)];
  } else {
    fresh = fresh_shape(r.index);
    shape = &fresh;
  }
  r.theorem = shape->theorem;
  r.n = shape->tree.num_nodes();
  r.digest = shape->digest;
  if (r.index < kFingerprintRequests) {
    input_digest_ = fold(input_digest_, shape->payload.data(), shape->payload.size());
    const std::uint8_t tags[2] = {static_cast<std::uint8_t>(r.theorem),
                                  static_cast<std::uint8_t>(r.want_embedding)};
    input_digest_ = fold(input_digest_, tags, 2);
  }
  if (r.hot < 0) a.payload = std::move(fresh.payload);
  return a;
}

void RequestStream::prefetch(std::size_t count) {
  while (ahead_.size() < count) ahead_.push_back(generate());
}

Request RequestStream::next() {
  if (ahead_.empty()) {
    current_ = generate();
  } else {
    current_ = std::move(ahead_.front());
    ahead_.pop_front();
  }
  ++issued_;
  Request r = current_.request;
  r.payload = r.hot >= 0 ? &hot_[static_cast<std::size_t>(r.hot)].payload
                         : &current_.payload;
  return r;
}

}  // namespace perfbench
