// Spans for the traced run, recorded from the benchmark's own code
// around calls into each layer's public functions.
//
//   client        load generator: frame sent -> answer received
//   service       TimedBackend around ServiceBackend: submit -> done
//   router        TimedBackend around the front Router: submit -> done
//   (net.inline)  inline cache hits never reach a backend; their
//                 server-side time is the answer's own latency_ms
//
// Server-side spans are joined to client spans after the run: a
// service span by its server and the answer's served_seq, a router
// span by the shard and a hash of the answer body it passed through
// verbatim.  A layer's self time is its span minus its child spans;
// time no joined span covers is reported as unattributed.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "net/backend.hpp"
#include "util/hash_ring.hpp"

namespace perfbench {

enum class SpanKind : std::uint8_t { kService, kRouter };

/// A server-side span.  `key` is the answer's served_seq (service) or
/// the hash of the answer body (router).
struct Span {
  SpanKind kind = SpanKind::kService;
  std::uint32_t server = 0;  // shard index (0 for a single server)
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t key = 0;
};

/// The load generator's root span for one request.
struct ClientSpan {
  std::uint64_t request = 0;
  std::uint32_t shard = 0;
  std::int64_t sent_ns = 0;
  std::int64_t recv_ns = 0;
  std::uint64_t served_seq = 0;  // 0 = answered inline on an event loop
  double latency_ms = 0.0;       // the server-reported time
  std::uint64_t body_hash = 0;   // routed runs only
};

/// Spans from server threads.  Recording is switched on and off by
/// the load generator at slice boundaries.
class SpanLog {
 public:
  std::atomic<bool> on{false};

  void add(const Span& span) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  [[nodiscard]] std::vector<Span> take() {
    const std::lock_guard<std::mutex> lock(mu_);
    return std::move(spans_);
  }

 private:
  std::mutex mu_;
  std::vector<Span> spans_;
};

/// Timing decorator: forwards every call to `inner` and, while the log
/// is on, records submit -> done as a span.  With a ring (the front
/// router) the span is attributed to the shard owning the request's
/// digest.  Must outlive every callback it hands to `inner`.
class TimedBackend final : public xt::EmbedBackend {
 public:
  TimedBackend(xt::EmbedBackend& inner, SpanLog& log, SpanKind kind,
               std::uint32_t server, const xt::HashRing* ring = nullptr)
      : inner_(inner), log_(log), kind_(kind), server_(server), ring_(ring) {}

  void submit(xt::EmbedRequest request, bool want_embedding,
              std::function<void(xt::WireStatus, std::string)> done) override;

  [[nodiscard]] xt::CanonicalCache* canonical_cache() override {
    return inner_.canonical_cache();
  }
  [[nodiscard]] xt::NodeId cache_load() const override {
    return inner_.cache_load();
  }
  [[nodiscard]] bool routes_by_digest() const override {
    return inner_.routes_by_digest();
  }
  [[nodiscard]] std::string stats_json() const override {
    return inner_.stats_json();
  }
  [[nodiscard]] const char* stats_key() const override {
    return inner_.stats_key();
  }

 private:
  xt::EmbedBackend& inner_;
  SpanLog& log_;
  SpanKind kind_;
  std::uint32_t server_;
  const xt::HashRing* ring_;
};

/// Per-request self time of each layer, averaged over the traced
/// requests.  The entries plus `unattributed_us` sum to
/// `client_mean_us`.
struct Breakdown {
  std::size_t requests = 0;
  double client_mean_us = 0.0;
  std::vector<std::pair<std::string, double>> self_us;
  double unattributed_us = 0.0;
  // Layer means over the requests that reached the layer.
  double edge_us = 0.0;          // client span - its child
  double service_us = 0.0;       // service span (queued requests)
  double router_us = 0.0;        // router span
  double router_hop_us = 0.0;    // router span - shard-side time
};

/// For each client span, the index in `server_spans` of its router
/// span and of its service span (-1 when the request did not reach
/// that layer, was answered inline, or could not be joined).
struct Joined {
  std::vector<std::int64_t> router;
  std::vector<std::int64_t> service;
};
[[nodiscard]] Joined join_spans(const std::vector<ClientSpan>& client,
                                const std::vector<Span>& server_spans,
                                bool routed);

/// Self times of the joined spans.  `routed` selects the
/// client -> router -> shard hierarchy.
[[nodiscard]] Breakdown self_times(const std::vector<ClientSpan>& client,
                                   const std::vector<Span>& server_spans,
                                   const Joined& joined, bool routed);

/// Writes client spans and their joined children as tab-separated
/// rows: id, name, request, parent id, start_ns, end_ns.  The file
/// holds the first kWrittenRequests requests, which bounds its size;
/// the self times use every span.
inline constexpr std::size_t kWrittenRequests = 100000;
void write_spans(const std::string& path, const std::vector<ClientSpan>& client,
                 const std::vector<Span>& server_spans, const Joined& joined);

/// The join key a router span stores: a hash of the answer body.
[[nodiscard]] std::uint64_t body_key(std::string_view body);

}  // namespace perfbench
