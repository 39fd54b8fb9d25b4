// Compute-layer replay for the traced run.  After the load phase, a
// seeded sample of the workload's own inputs goes single-threaded
// through the public calls in server order, each timed on its own:
//
//   served  decode -> digest -> probe -> relabel -> embed | lift | cube
//           -> audit -> encode            (plus insert into a full cache)
//   bulk    try_view -> digest -> relabel -> embed, at the pipeline's
//           options
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bulk/corpus.hpp"
#include "bulk/pipeline.hpp"
#include "service/canonical_cache.hpp"
#include "service/request.hpp"

namespace perfbench {

struct ReplayInput {
  std::string payload;  // xtb1 record, as sent
  xt::Theorem theorem = xt::Theorem::kT1;
  bool want_embedding = false;
  std::uint32_t shard = 0;  // whose cache the event loop would probe
};

/// Mean time per call of each replayed layer; layers a workload does
/// not reach stay 0.
struct ReplayTimes {
  double decode_us = 0.0;
  double digest_us = 0.0;
  double probe_ns = 0.0;
  double relabel_us = 0.0;
  double embed_us = 0.0;
  double split_sweep_us = 0.0;
  double lift_us = 0.0;
  double cube_us = 0.0;
  double repairs_per_embed = 0.0;
  double violations_per_embed = 0.0;
  double audit_us = 0.0;
  double encode_us = 0.0;
  double insert_us = 0.0;
  double view_us = 0.0;
};

/// `caches[i]` is shard i's live cache (one entry for a single server);
/// probes run against it as the load phase left it.
/// `intra_embed_parallelism` is the service's resolved setting.
[[nodiscard]] ReplayTimes replay_served(const std::vector<ReplayInput>& inputs,
                                        const std::vector<xt::CanonicalCache*>& caches,
                                        int intra_embed_parallelism);

[[nodiscard]] ReplayTimes replay_bulk(const xt::CorpusReader& reader,
                                      const std::vector<std::uint64_t>& records,
                                      const xt::BulkOptions& options);

}  // namespace perfbench
