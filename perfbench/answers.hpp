// Answer checks: every served answer is parsed and held to its
// theorem's bounds; the deterministic fields of answers fold into an
// order-independent output fingerprint; and a seeded sample of answers
// that carry the embedding is re-derived through verify/oracle after
// the timed window.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common.hpp"
#include "embedding/embedding.hpp"
#include "generator.hpp"

namespace perfbench {

/// What an answer for (theorem, n) may claim.  The dilation bound is
/// the paper's (3 / 11 / 4) on theorem-exact sizes and the engineering
/// envelope (6 / 14 / 7) elsewhere, chosen by is_exact_form exactly as
/// verify/certificate_chain does; the host is the optimal one.
struct Bound {
  std::int32_t host_height = 0;  // X-tree height (T1/T2), cube dimension (T3)
  std::int32_t dilation = 0;
  NodeId load = 0;
};
[[nodiscard]] Bound bound_for(Theorem theorem, NodeId n);
/// Vertex count of the host an answer names.
[[nodiscard]] xt::VertexId host_vertices(Theorem theorem, std::int32_t height);

/// The fields of an answer body (net/wire.hpp embed_response_json).
struct Answer {
  bool ok = false;
  std::int32_t host_height = -1;
  std::int32_t dilation = -1;
  NodeId load_factor = -1;
  std::uint64_t served_seq = 0;
  double latency_ms = 0.0;
  std::string_view embedding;  // the "[...]" text; empty when absent
};
[[nodiscard]] bool parse_answer(std::string_view body, Answer* out);

/// What the load generator remembers about a request in flight.
struct RequestInfo {
  std::uint64_t index = 0;
  bool priming = false;   // set-up request; index is then the hot slot
  std::int32_t hot = -1;
  Theorem theorem = Theorem::kT1;
  bool want_embedding = false;
  NodeId n = 0;
  std::uint32_t shard = 0;  // owning shard (routed), else 0
  std::string payload;      // kept only for oracle-sampled requests
};

/// One answer kept for the oracle.
struct OracleSample {
  BinaryTree tree;
  Theorem theorem = Theorem::kT1;
  std::int32_t host_height = 0;
  std::int32_t dilation = 0;  // -1: no claim (bulk), only the bound holds
  NodeId load_factor = 0;
  std::vector<xt::VertexId> placement;
  std::string label;
};

/// Re-derives one sample's dilation, load and placement through
/// verify/oracle; returns "" when its claims hold exactly.
[[nodiscard]] std::string oracle_check(const OracleSample& s);

class AnswerChecker {
 public:
  AnswerChecker(Ledger& ledger, const RequestStream& stream,
                std::uint64_t seed, bool tamper_dilation);

  /// True when the request's answer joins the oracle sample (the load
  /// generator then keeps a copy of its payload).
  [[nodiscard]] bool sample_for_oracle(const RequestInfo& req) const;

  /// Checks one answer; failures go to the ledger.  Returns true for
  /// an ok answer that passed every check (`out` is then filled).
  bool check(const RequestInfo& req, std::uint8_t code, std::string_view body,
             Answer* out);

  /// Oracle pass over the kept samples (outside the timed window).
  void verify_samples();

  [[nodiscard]] std::uint64_t fingerprint() const { return fingerprint_; }
  [[nodiscard]] std::size_t samples() const { return samples_.size(); }

 private:
  Ledger& ledger_;
  const RequestStream& stream_;
  std::uint64_t seed_;
  bool tamper_dilation_;
  std::uint64_t fingerprint_ = 0;
  // Per hot pair and embedding flag: hash of the first answer's
  // deterministic fields (0 = none yet); later answers must match.
  std::vector<std::uint64_t> hot_fields_;
  std::vector<bool> hot_sampled_;
  std::size_t fresh_sampled_ = 0;
  std::vector<OracleSample> samples_;
};

}  // namespace perfbench
