#include "tracing.hpp"

#include <cstdio>
#include <memory>
#include <unordered_map>

#include "common.hpp"
#include "util/hash.hpp"

namespace perfbench {
namespace {

std::uint64_t served_seq_of(std::string_view body) {
  constexpr std::string_view kKey = "\"served_seq\": ";
  const std::size_t at = body.rfind(kKey);
  if (at == std::string_view::npos) return 0;
  std::uint64_t v = 0;
  for (std::size_t i = at + kKey.size();
       i < body.size() && body[i] >= '0' && body[i] <= '9'; ++i)
    v = v * 10 + static_cast<std::uint64_t>(body[i] - '0');
  return v;
}

std::uint64_t join_key(std::uint32_t server, std::uint64_t key) {
  const std::uint64_t parts[2] = {server, key};
  return xt::hash64(parts, sizeof parts);
}

double span_ns(const Span& s) { return static_cast<double>(s.end_ns - s.start_ns); }

}  // namespace

std::uint64_t body_key(std::string_view body) {
  return xt::hash64(body.data(), body.size());
}

void TimedBackend::submit(xt::EmbedRequest request, bool want_embedding,
                          std::function<void(xt::WireStatus, std::string)> done) {
  if (!log_.on.load(std::memory_order_relaxed)) {
    inner_.submit(std::move(request), want_embedding, std::move(done));
    return;
  }
  const std::int64_t start = now_ns();
  std::uint32_t server = server_;
  if (ring_ != nullptr && request.canonical_digest.has_value())
    server = static_cast<std::uint32_t>(ring_->lookup(*request.canonical_digest));
  inner_.submit(
      std::move(request), want_embedding,
      [this, start, server, done = std::move(done)](xt::WireStatus status,
                                                    std::string body) {
        Span s;
        s.kind = kind_;
        s.server = server;
        s.start_ns = start;
        s.end_ns = now_ns();
        s.key = kind_ == SpanKind::kService ? served_seq_of(body) : body_key(body);
        log_.add(s);
        done(status, std::move(body));
      });
}

Joined join_spans(const std::vector<ClientSpan>& client,
                  const std::vector<Span>& server_spans, bool routed) {
  std::unordered_map<std::uint64_t, std::int64_t> service;
  // Router spans are keyed by body hash; identical bodies (same answer,
  // same reported latency) are interchangeable, so each key holds a
  // stack of candidates.
  std::unordered_map<std::uint64_t, std::vector<std::int64_t>> router;
  for (std::size_t i = 0; i < server_spans.size(); ++i) {
    const Span& s = server_spans[i];
    const std::uint64_t k = join_key(s.server, s.key);
    if (s.kind == SpanKind::kService) {
      service.emplace(k, static_cast<std::int64_t>(i));
    } else {
      router[k].push_back(static_cast<std::int64_t>(i));
    }
  }
  Joined j;
  j.router.assign(client.size(), -1);
  j.service.assign(client.size(), -1);
  for (std::size_t i = 0; i < client.size(); ++i) {
    const ClientSpan& c = client[i];
    if (routed) {
      auto it = router.find(join_key(c.shard, c.body_hash));
      if (it == router.end() || it->second.empty()) continue;
      j.router[i] = it->second.back();
      it->second.pop_back();
    }
    if (c.served_seq != 0) {
      auto it = service.find(join_key(c.shard, c.served_seq));
      if (it != service.end()) j.service[i] = it->second;
    }
  }
  return j;
}

Breakdown self_times(const std::vector<ClientSpan>& client,
                     const std::vector<Span>& server_spans, const Joined& joined,
                     bool routed) {
  double total = 0.0, edge = 0.0, inline_hit = 0.0, service = 0.0, hop = 0.0,
         unattributed = 0.0, router_sum = 0.0;
  std::size_t n_edge = 0, n_service = 0, n_router = 0;
  for (std::size_t i = 0; i < client.size(); ++i) {
    const ClientSpan& c = client[i];
    const double span = static_cast<double>(c.recv_ns - c.sent_ns);
    total += span;
    // The server-side time under this request's outermost backend: the
    // service span, or the loop's own report for an inline hit.
    double server_side = -1.0;
    if (c.served_seq == 0) {
      server_side = c.latency_ms * 1e6;
    } else if (joined.service[i] >= 0) {
      server_side = span_ns(server_spans[static_cast<std::size_t>(joined.service[i])]);
    }
    double child = server_side;
    if (routed) {
      if (joined.router[i] < 0) {
        unattributed += span;
        continue;
      }
      child = span_ns(server_spans[static_cast<std::size_t>(joined.router[i])]);
      router_sum += child;
      ++n_router;
      if (server_side < 0.0) {
        unattributed += child;  // the shard's share is unknown
      } else {
        hop += child - server_side;
      }
    } else if (server_side < 0.0) {
      unattributed += span;
      continue;
    }
    edge += span - child;
    ++n_edge;
    if (server_side >= 0.0) {
      if (c.served_seq == 0) {
        inline_hit += server_side;
      } else {
        service += server_side;
        ++n_service;
      }
    }
  }
  Breakdown b;
  b.requests = client.size();
  if (client.empty()) return b;
  const double n = static_cast<double>(client.size());
  b.client_mean_us = total / n / 1e3;
  b.self_us.emplace_back("net.edge", edge / n / 1e3);
  if (routed) b.self_us.emplace_back("router.hop", hop / n / 1e3);
  b.self_us.emplace_back("service", service / n / 1e3);
  b.self_us.emplace_back("net.inline", inline_hit / n / 1e3);
  b.unattributed_us = unattributed / n / 1e3;
  b.edge_us = n_edge > 0 ? edge / static_cast<double>(n_edge) / 1e3 : 0.0;
  b.service_us = n_service > 0 ? service / static_cast<double>(n_service) / 1e3 : 0.0;
  b.router_us = n_router > 0 ? router_sum / static_cast<double>(n_router) / 1e3 : 0.0;
  b.router_hop_us = n_router > 0 ? hop / static_cast<double>(n_router) / 1e3 : 0.0;
  return b;
}

void write_spans(const std::string& path, const std::vector<ClientSpan>& client,
                 const std::vector<Span>& server_spans, const Joined& joined) {
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(
      std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return;
  std::fprintf(f.get(), "id\tname\trequest\tparent\tstart_ns\tend_ns\n");
  const auto n = static_cast<long long>(client.size());
  for (std::size_t i = 0; i < client.size() && i < kWrittenRequests; ++i) {
    const ClientSpan& c = client[i];
    const auto id = static_cast<long long>(i);
    const auto req = static_cast<unsigned long long>(c.request);
    std::fprintf(f.get(), "%lld\tclient\t%llu\t-1\t%lld\t%lld\n", id, req,
                 static_cast<long long>(c.sent_ns),
                 static_cast<long long>(c.recv_ns));
    long long parent = id;
    if (joined.router[i] >= 0) {
      const Span& s = server_spans[static_cast<std::size_t>(joined.router[i])];
      parent = n + joined.router[i];
      std::fprintf(f.get(), "%lld\trouter\t%llu\t%lld\t%lld\t%lld\n", parent, req,
                   id, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    if (joined.service[i] >= 0) {
      const Span& s = server_spans[static_cast<std::size_t>(joined.service[i])];
      std::fprintf(f.get(), "%lld\tservice\t%llu\t%lld\t%lld\t%lld\n",
                   n + joined.service[i], req, parent,
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
}

}  // namespace perfbench
