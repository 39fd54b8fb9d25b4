#include "answers.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <limits>
#include <string>

#include "core/xtree_embedder.hpp"
#include "net/wire.hpp"
#include "topology/hypercube.hpp"
#include "topology/xtree.hpp"
#include "util/hash.hpp"
#include "verify/certificate_chain.hpp"
#include "verify/oracle.hpp"

namespace perfbench {
namespace {

bool int_after(std::string_view body, std::string_view key, bool from_end,
               std::int64_t* out) {
  const std::size_t at = from_end ? body.rfind(key) : body.find(key);
  if (at == std::string_view::npos) return false;
  std::size_t i = at + key.size();
  if (i >= body.size()) return false;
  bool neg = false;
  if (body[i] == '-') {
    neg = true;
    ++i;
  }
  std::int64_t v = 0;
  const std::size_t start = i;
  while (i < body.size() && body[i] >= '0' && body[i] <= '9') {
    if (i - start >= 18) return false;  // would overflow; no valid field is this long
    v = v * 10 + (body[i++] - '0');
  }
  if (i == start) return false;
  *out = neg ? -v : v;
  return true;
}

/// Parses the "[a, b, ...]" placement text.  False on malformed text.
bool parse_placement(std::string_view text, std::vector<xt::VertexId>* out) {
  out->clear();
  if (text.size() < 2 || text.front() != '[' || text.back() != ']') return false;
  std::int64_t v = 0;
  bool in_number = false;
  for (std::size_t i = 1; i + 1 < text.size(); ++i) {
    const char c = text[i];
    if (c >= '0' && c <= '9') {
      v = v * 10 + (c - '0');
      if (v > std::numeric_limits<xt::VertexId>::max()) return false;
      in_number = true;
    } else if (c == ',') {
      if (!in_number) return false;
      out->push_back(static_cast<xt::VertexId>(v));
      v = 0;
      in_number = false;
    } else if (c != ' ') {
      return false;
    }
  }
  if (in_number) out->push_back(static_cast<xt::VertexId>(v));
  return true;
}

std::string describe(const RequestInfo& req) {
  std::string s = req.priming ? "priming request for hot pair "
                              : "request ";
  s += std::to_string(req.index);
  s += " (";
  s += xt::theorem_name(req.theorem);
  s += ", n=" + std::to_string(req.n) + ")";
  return s;
}

}  // namespace

Bound bound_for(Theorem theorem, NodeId n) {
  const std::int32_t r = xt::XTreeEmbedder::optimal_height(n, 16);
  const bool exact = xt::is_exact_form(n, 16);
  switch (theorem) {
    case Theorem::kT1: return {r, exact ? 3 : 6, 16};
    case Theorem::kT2: return {r + 4, exact ? 11 : 14, 1};
    case Theorem::kT3: return {r + 1, exact ? 4 : 7, 16};
  }
  return {};
}

xt::VertexId host_vertices(Theorem theorem, std::int32_t height) {
  if (height < 0 || height > 24) return 0;
  return theorem == Theorem::kT3
             ? static_cast<xt::VertexId>(xt::VertexId{1} << height)
             : static_cast<xt::VertexId>((xt::VertexId{2} << height) - 1);
}

bool parse_answer(std::string_view body, Answer* out) {
  *out = Answer{};
  out->ok = body.rfind("{\"status\": \"ok\"", 0) == 0;
  std::int64_t v = 0;
  if (!int_after(body, "\"host_height\": ", false, &v)) return false;
  out->host_height = static_cast<std::int32_t>(v);
  if (!int_after(body, "\"dilation\": ", false, &v)) return false;
  out->dilation = static_cast<std::int32_t>(v);
  if (!int_after(body, "\"load_factor\": ", false, &v)) return false;
  out->load_factor = static_cast<NodeId>(v);
  if (!int_after(body, "\"served_seq\": ", true, &v)) return false;
  out->served_seq = static_cast<std::uint64_t>(v);
  const std::size_t lat = body.rfind("\"latency_ms\": ");
  if (lat == std::string_view::npos) return false;
  out->latency_ms = std::strtod(body.data() + lat + 14, nullptr);
  const std::size_t emb = body.find("\"embedding\": [");
  if (emb != std::string_view::npos) {
    const std::size_t open = emb + 13;
    const std::size_t close = body.find(']', open);
    if (close == std::string_view::npos) return false;
    out->embedding = body.substr(open, close - open + 1);
  }
  return true;
}

std::string oracle_check(const OracleSample& s) {
  const NodeId n = s.tree.num_nodes();
  const Bound b = bound_for(s.theorem, n);
  if (static_cast<NodeId>(s.placement.size()) != n)
    return "placement has " + std::to_string(s.placement.size()) +
           " entries for n=" + std::to_string(n);
  try {
    xt::Embedding emb(n, host_vertices(s.theorem, s.host_height));
    for (NodeId v = 0; v < n; ++v)
      emb.place(v, s.placement[static_cast<std::size_t>(v)]);
    const std::string bad = xt::oracle_check_placement(s.tree, emb);
    if (!bad.empty()) return "placement: " + bad;
    const NodeId load = xt::oracle_load_factor(emb);
    if (load != s.load_factor || load > b.load)
      return "oracle load " + std::to_string(load) + " vs claimed " +
             std::to_string(s.load_factor) + " (bound " +
             std::to_string(b.load) + ")";
    const xt::DilationReport d =
        s.theorem == Theorem::kT3
            ? xt::oracle_dilation_hypercube(s.tree, emb,
                                            xt::Hypercube(s.host_height))
            : xt::oracle_dilation_xtree(s.tree, emb, xt::XTree(s.host_height));
    if ((s.dilation >= 0 && d.max != s.dilation) || d.max > b.dilation)
      return "oracle dilation " + std::to_string(d.max) + " vs claimed " +
             std::to_string(s.dilation) + " (bound " +
             std::to_string(b.dilation) + ")";
  } catch (const std::exception& e) {
    return std::string("placement rejected: ") + e.what();
  }
  return "";
}

AnswerChecker::AnswerChecker(Ledger& ledger, const RequestStream& stream,
                             std::uint64_t seed, bool tamper_dilation)
    : ledger_(ledger),
      stream_(stream),
      seed_(seed),
      tamper_dilation_(tamper_dilation),
      hot_fields_(2 * stream.hot().size(), 0),
      hot_sampled_(stream.hot().size(), false) {}

// About 1 answer in 64 that carries the embedding, at most 32 fresh
// shapes: enough to catch a wrong claim, small enough that the serial
// oracle stays a fraction of a second.
bool AnswerChecker::sample_for_oracle(const RequestInfo& req) const {
  if (req.priming || req.hot >= 0 || !req.want_embedding) return false;
  return fresh_sampled_ < 32 && mix_seed(seed_ ^ 0x6f7261636c65ull, req.index) % 64 == 0;
}

bool AnswerChecker::check(const RequestInfo& req, std::uint8_t code,
                          std::string_view body, Answer* out) {
  Answer a;
  if (code != static_cast<std::uint8_t>(xt::WireStatus::kOk) ||
      !parse_answer(body, &a) || !a.ok) {
    ledger_.fail(describe(req) + ": status " +
                 xt::wire_status_name(static_cast<xt::WireStatus>(code)) +
                 ", body " + std::string(body.substr(0, 160)));
    return false;
  }
  const Bound b = bound_for(req.theorem, req.n);
  if (tamper_dilation_) {
    tamper_dilation_ = false;
    a.dilation = b.dilation + 1;
  }
  if (a.host_height != b.host_height || a.dilation < 0 ||
      a.dilation > b.dilation || a.load_factor < 1 || a.load_factor > b.load) {
    ledger_.fail(describe(req) + ": host " + std::to_string(a.host_height) +
                 " dilation " + std::to_string(a.dilation) + " load " +
                 std::to_string(a.load_factor) + " outside bound (host " +
                 std::to_string(b.host_height) + ", dilation <= " +
                 std::to_string(b.dilation) + ", load <= " +
                 std::to_string(b.load) + ")");
    return false;
  }
  const bool keep_hot = req.hot >= 0 && req.want_embedding &&
                        !hot_sampled_[static_cast<std::size_t>(req.hot)];
  const bool keep = keep_hot || !req.payload.empty();
  if (req.want_embedding != !a.embedding.empty()) {
    ledger_.fail(describe(req) + (req.want_embedding
                                      ? ": embedding missing"
                                      : ": embedding sent unasked"));
    return false;
  }
  if (req.want_embedding) {
    // Only kept placements are parsed in full; the others are checked
    // for their entry count, and the fingerprint hash pins the rest.
    std::vector<xt::VertexId> placement;
    const std::size_t entries =
        keep ? 0
             : static_cast<std::size_t>(
                   std::count(a.embedding.begin(), a.embedding.end(), ',') + 1);
    if (keep && !parse_placement(a.embedding, &placement)) {
      ledger_.fail(describe(req) + ": malformed embedding");
      return false;
    }
    const std::size_t count = keep ? placement.size() : entries;
    if (count != static_cast<std::size_t>(req.n)) {
      ledger_.fail(describe(req) + ": embedding has " + std::to_string(count) +
                   " entries");
      return false;
    }
    if (keep) {
      OracleSample s;
      s.tree = keep_hot
                   ? stream_.hot()[static_cast<std::size_t>(req.hot)].tree
                   : xt::decode_xtb1_record(req.payload, nullptr);
      s.theorem = req.theorem;
      s.host_height = a.host_height;
      s.dilation = a.dilation;
      s.load_factor = a.load_factor;
      s.placement = std::move(placement);
      s.label = describe(req);
      samples_.push_back(std::move(s));
      if (keep_hot) hot_sampled_[static_cast<std::size_t>(req.hot)] = true;
      else ++fresh_sampled_;
    }
  }

  const std::int64_t fields[3] = {a.host_height, a.dilation, a.load_factor};
  const std::uint64_t h = xt::hash64(a.embedding.data(), a.embedding.size(),
                                     xt::hash64(fields, sizeof fields, 1));
  if (req.hot >= 0) {
    std::uint64_t& first = hot_fields_[2 * static_cast<std::size_t>(req.hot) +
                                       (req.want_embedding ? 1 : 0)];
    if (first == 0) {
      first = h;
    } else if (first != h) {
      ledger_.fail(describe(req) + ": answer differs from earlier answers "
                                   "for the same hot pair");
      return false;
    }
  }
  if (req.priming || req.index < kFingerprintRequests) {
    const std::uint64_t tag[2] = {req.priming ? 1u : 0u, req.index};
    fingerprint_ += xt::hash64(tag, sizeof tag, h);
  }
  *out = a;
  return true;
}

void AnswerChecker::verify_samples() {
  for (const OracleSample& s : samples_) {
    const std::string bad = oracle_check(s);
    if (!bad.empty()) ledger_.fail(s.label + ": oracle: " + bad);
  }
}

}  // namespace perfbench
