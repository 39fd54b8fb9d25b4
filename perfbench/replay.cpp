#include "replay.hpp"

#include <optional>

#include "btree/canonical.hpp"
#include "common.hpp"
#include "core/hypercube_embedding.hpp"
#include "core/injective_lift.hpp"
#include "core/xtree_embedder.hpp"
#include "embedding/metrics.hpp"
#include "net/wire.hpp"
#include "topology/hypercube.hpp"
#include "topology/xtree.hpp"

namespace perfbench {
namespace {

// Cheap calls repeat so one sample spans many timer ticks.
constexpr int kDecodeRepeats = 4;
constexpr int kDigestRepeats = 8;
constexpr int kProbeRepeats = 64;
constexpr int kRelabelRepeats = 4;
constexpr int kEncodeRepeats = 4;

// Results feed this sink so no timed call can be optimised away.
volatile std::uint64_t g_sink = 0;

template <typename Fn>
double mean_ns(int repeats, Fn&& fn) {
  const std::int64_t t0 = now_ns();
  for (int r = 0; r < repeats; ++r) fn();
  return static_cast<double>(now_ns() - t0) / repeats;
}

/// Running mean per layer.
struct Mean {
  double sum = 0.0;
  int n = 0;
  void add(double x) {
    sum += x;
    ++n;
  }
  [[nodiscard]] double get() const { return n > 0 ? sum / n : 0.0; }
};

}  // namespace

ReplayTimes replay_served(const std::vector<ReplayInput>& inputs,
                          const std::vector<xt::CanonicalCache*>& caches,
                          int intra_embed_parallelism) {
  Mean decode, digest, probe, relabel, embed, sweep, lift, cube, repairs,
      violations, audit, encode, insert;
  xt::CanonicalScratch scratch;
  xt::XTreeEmbedder::EmbedArena arena;
  // A full cache of the service's default capacity, for insert timing:
  // twice its capacity inserted, so every stripe is at its cap.
  xt::CanonicalCache full(1024);
  for (std::uint64_t i = 0; i < 2 * full.capacity(); ++i)
    full.insert(xt::CacheKey{~i, 1, xt::Theorem::kT1, 16},
                xt::CachedEmbedding{{0}, 1, 0, 0, 1});

  for (const ReplayInput& in : inputs) {
    xt::BinaryTree tree;
    decode.add(mean_ns(kDecodeRepeats, [&] {
      tree = xt::decode_xtb1_record(in.payload, nullptr);
    }) / 1e3);
    const xt::NodeId n = tree.num_nodes();
    std::uint64_t hash = 0;
    digest.add(mean_ns(kDigestRepeats, [&] {
      hash = xt::canonical_hash(n, tree.left_data(), tree.right_data(), scratch);
    }) / 1e3);
    const xt::CacheKey key{hash, n, in.theorem, 16};
    xt::CanonicalCache* cache = caches.at(in.shard);
    probe.add(mean_ns(kProbeRepeats, [&] {
      cache->with_entry(key, [&](const xt::CanonicalCache::Entry& e) {
        g_sink = g_sink + static_cast<std::uint64_t>(e.value().host_height);
      });
    }));
    xt::BinaryTree canonical;
    relabel.add(mean_ns(kRelabelRepeats, [&] {
      const xt::CanonicalForm form = xt::canonical_form(tree);
      canonical = xt::canonical_tree(tree, form);
    }) / 1e3);

    xt::EmbedResponse response;
    response.status = xt::RequestStatus::kOk;
    xt::XTreeEmbedder::Options options;
    options.load = 16;
    options.intra_embed_parallelism = intra_embed_parallelism;
    if (in.theorem == xt::Theorem::kT3) {
      std::optional<xt::HypercubeEmbedding> cubed;
      cube.add(mean_ns(1, [&] { cubed.emplace(xt::embed_hypercube_load16(canonical)); }) / 1e3);
      xt::HypercubeEmbedding& hc = *cubed;
      repairs.add(static_cast<double>(hc.xtree_stats.repair_placements));
      violations.add(static_cast<double>(hc.xtree_stats.discipline_violations));
      audit.add(mean_ns(1, [&] {
        response.dilation =
            xt::dilation_hypercube(canonical, hc.embedding, xt::Hypercube(hc.dimension)).max;
      }) / 1e3);
      response.host_height = hc.dimension;
      response.load_factor = hc.embedding.load_factor();
      response.embedding = std::move(hc.embedding);
    } else {
      std::optional<xt::XTreeEmbedder::Result> res;
      embed.add(mean_ns(1, [&] {
        res.emplace(xt::XTreeEmbedder::embed(canonical, options, arena));
      }) / 1e3);
      sweep.add(static_cast<double>(res->stats.split_sweep_ns) / 1e3);
      repairs.add(static_cast<double>(res->stats.repair_placements));
      violations.add(static_cast<double>(res->stats.discipline_violations));
      xt::Embedding served = std::move(res->embedding);
      std::int32_t height = res->stats.height;
      if (in.theorem == xt::Theorem::kT2) {
        std::optional<xt::InjectiveLift> lifted;
        lift.add(mean_ns(1, [&] {
          lifted.emplace(xt::lift_injective(canonical, served, xt::XTree(height)));
        }) / 1e3);
        served = std::move(lifted->embedding);
        height = lifted->host_height;
      }
      audit.add(mean_ns(1, [&] {
        response.dilation =
            xt::dilation_profile_xtree(canonical, served, xt::XTree(height)).report.max;
      }) / 1e3);
      response.host_height = height;
      response.load_factor = served.load_factor();
      response.embedding = std::move(served);
    }
    encode.add(mean_ns(kEncodeRepeats, [&] {
      g_sink = g_sink + xt::embed_response_json(response, in.want_embedding).size();
    }) / 1e3);

    xt::CachedEmbedding entry;
    entry.host_vertices = response.embedding->num_host_vertices();
    entry.host_height = response.host_height;
    entry.dilation = response.dilation;
    entry.load_factor = response.load_factor;
    entry.canonical_assign.resize(static_cast<std::size_t>(n));
    for (xt::NodeId v = 0; v < n; ++v)
      entry.canonical_assign[static_cast<std::size_t>(v)] = response.embedding->host_of(v);
    insert.add(mean_ns(1, [&] { full.insert(key, entry); }) / 1e3);
  }

  ReplayTimes t;
  t.decode_us = decode.get();
  t.digest_us = digest.get();
  t.probe_ns = probe.get();
  t.relabel_us = relabel.get();
  t.embed_us = embed.get();
  t.split_sweep_us = sweep.get();
  t.lift_us = lift.get();
  t.cube_us = cube.get();
  t.repairs_per_embed = repairs.get();
  t.violations_per_embed = violations.get();
  t.audit_us = audit.get();
  t.encode_us = encode.get();
  t.insert_us = insert.get();
  return t;
}

ReplayTimes replay_bulk(const xt::CorpusReader& reader,
                        const std::vector<std::uint64_t>& records,
                        const xt::BulkOptions& options) {
  Mean view_mean, digest, relabel, embed, sweep, repairs, violations;
  xt::CanonicalScratch scratch;
  xt::XTreeEmbedder::EmbedArena arena;
  xt::XTreeEmbedder::Options embed_options;
  embed_options.load = options.load;
  embed_options.intra_embed_parallelism = options.intra_embed_parallelism;
  for (const std::uint64_t i : records) {
    xt::CorpusReader::View view;
    view_mean.add(mean_ns(kDigestRepeats, [&] {
      g_sink = g_sink + static_cast<std::uint64_t>(reader.try_view(i, &view, nullptr));
    }) / 1e3);
    digest.add(mean_ns(kDigestRepeats, [&] {
      g_sink = g_sink + xt::canonical_hash(view.num_nodes, view.left, view.right, scratch);
    }) / 1e3);
    const xt::BinaryTree tree = reader.materialize(i);
    xt::BinaryTree canonical;
    relabel.add(mean_ns(kRelabelRepeats, [&] {
      const xt::CanonicalForm form =
          xt::canonical_form(view.num_nodes, view.left, view.right, scratch);
      canonical = xt::canonical_tree(tree, form);
    }) / 1e3);
    std::optional<xt::XTreeEmbedder::Result> res;
    embed.add(mean_ns(1, [&] {
      res.emplace(xt::XTreeEmbedder::embed(canonical, embed_options, arena));
    }) / 1e3);
    sweep.add(static_cast<double>(res->stats.split_sweep_ns) / 1e3);
    repairs.add(static_cast<double>(res->stats.repair_placements));
    violations.add(static_cast<double>(res->stats.discipline_violations));
  }
  ReplayTimes t;
  t.view_us = view_mean.get();
  t.digest_us = digest.get();
  t.relabel_us = relabel.get();
  t.embed_us = embed.get();
  t.split_sweep_us = sweep.get();
  t.repairs_per_embed = repairs.get();
  t.violations_per_embed = violations.get();
  return t;
}

}  // namespace perfbench
