// hit, miss and routed: the load generator against the epoll edge.
//
//   hit     512 hot (shape, theorem) pairs primed during set-up, every
//           request repeats one: inline cache hits on the event loop.
//   miss    every request a shape never sent before, n log-uniform in
//           64..2048: embed, audit, queue and large-answer encoding.
//   routed  the hit generator at duplication 0.9 through a front
//           NetServer and a Router to two in-process shards.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <memory>

#include "answers.hpp"
#include "loadgen.hpp"
#include "net/router.hpp"
#include "net/server.hpp"
#include "replay.hpp"
#include "service/service.hpp"
#include "tracing.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// Requests the replay sends through the compute layers.
constexpr int kReplayInputs = 64;

GenSpec spec_for(const std::string& workload) {
  if (workload == "hit") return {1.0, 512, 64, 256};
  if (workload == "miss") return {0.0, 0, 64, 2048};
  return {0.9, 512, 64, 256};  // routed
}

/// The servers under test, every config at its xt_serve / xt_router
/// default.  Direct: one EmbeddingService behind one NetServer.
/// Routed: two such shards behind a Router and a front NetServer.
/// With a span log, TimedBackend wraps each backend.
class Stack {
 public:
  struct Shard {
    std::unique_ptr<xt::EmbeddingService> service;
    std::unique_ptr<xt::ServiceBackend> backend;
    std::unique_ptr<TimedBackend> timed;
    std::unique_ptr<xt::NetServer> server;
  };

  Stack(bool routed, SpanLog* trace) {
    shards_.resize(routed ? 2 : 1);
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      Shard& s = shards_[i];
      s.service = std::make_unique<xt::EmbeddingService>(xt::ServiceConfig{});
      s.backend = std::make_unique<xt::ServiceBackend>(*s.service);
      xt::EmbedBackend* backend = s.backend.get();
      if (trace != nullptr) {
        s.timed = std::make_unique<TimedBackend>(*s.backend, *trace, SpanKind::kService,
                                                 static_cast<std::uint32_t>(i));
        backend = s.timed.get();
      }
      s.server = std::make_unique<xt::NetServer>(*backend, xt::NetServerConfig{});
      s.server->start();
    }
    if (!routed) return;
    xt::RouterConfig config;
    for (const Shard& s : shards_) config.shards.push_back({"127.0.0.1", s.server->port()});
    router_ = std::make_unique<xt::Router>(std::move(config));
    router_->start();
    xt::EmbedBackend* front_backend = router_.get();
    if (trace != nullptr) {
      router_timed_ = std::make_unique<TimedBackend>(*router_, *trace, SpanKind::kRouter, 0,
                                                     &router_->ring());
      front_backend = router_timed_.get();
    }
    front_ = std::make_unique<xt::NetServer>(*front_backend, xt::NetServerConfig{});
    front_->start();
  }

  ~Stack() { stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  /// Front first, so no callback outlives what it calls into.
  void stop() {
    if (stopped_) return;
    stopped_ = true;
    if (front_) front_->stop();
    if (router_) router_->stop();
    for (Shard& s : shards_) {
      s.server->stop();
      s.service->shutdown(true);
    }
  }

  [[nodiscard]] std::vector<Shard>& shards() { return shards_; }
  [[nodiscard]] xt::Router* router() { return router_.get(); }
  [[nodiscard]] xt::NetServer& front() { return front_ ? *front_ : *shards_[0].server; }
  [[nodiscard]] const xt::HashRing* ring() const {
    return router_ ? &router_->ring() : nullptr;
  }

 private:
  std::vector<Shard> shards_;
  std::unique_ptr<xt::Router> router_;
  std::unique_ptr<TimedBackend> router_timed_;
  std::unique_ptr<xt::NetServer> front_;
  bool stopped_ = false;
};

/// One set-up of a served workload: the inputs, the servers, the
/// connections and (hit, routed) the primed cache.
struct Setup {
  std::unique_ptr<RequestStream> stream;
  std::unique_ptr<Stack> stack;
  std::unique_ptr<AnswerChecker> checker;
  std::unique_ptr<Loadgen> loadgen;

  Setup() = default;
  Setup(const Setup&) = delete;
  Setup& operator=(const Setup&) = delete;
  ~Setup() { tear_down(); }

  /// The client first, then the servers it talks to.
  void tear_down() {
    loadgen.reset();
    stack.reset();
    checker.reset();
    stream.reset();
  }
};

/// Server counters at one instant.
struct Snapshot {
  xt::NetServerStats front;
  std::vector<xt::NetServerStats> net;  // per shard server
  std::vector<xt::ServiceStats> service;
  std::vector<xt::CanonicalCache::Counters> cache;
  xt::RouterStats router;

  static Snapshot of(Stack& stack) {
    Snapshot s;
    s.front = stack.front().stats();
    for (Stack::Shard& shard : stack.shards()) {
      s.net.push_back(shard.server->stats());
      s.service.push_back(shard.service->stats());
      s.cache.push_back(shard.service->canonical_cache()->counters());
    }
    if (stack.router() != nullptr) s.router = stack.router()->stats();
    return s;
  }
};

/// Gauges sampled from the load-generator thread during a traced run.
struct Gauges {
  double service_depth = 0, pool_depth = 0, router_depth = 0;
  int samples = 0;

  void sample(Stack& stack) {
    for (Stack::Shard& s : stack.shards())
      service_depth += static_cast<double>(s.service->stats().queue_depth);
    pool_depth += static_cast<double>(xt::ThreadPool::shared().queue_depth());
    if (stack.router() != nullptr) {
      for (const xt::RouterShardStats& s : stack.router()->stats().shards)
        router_depth += static_cast<double>(s.queue_depth);
    }
    ++samples;
  }
  [[nodiscard]] double mean(double sum) const { return samples > 0 ? sum / samples : 0.0; }
};

/// The accounting identities, checked once the run has drained.
void check_identities(Stack& stack, const Loadgen& loadgen, Ledger& ledger) {
  const bool routed = stack.router() != nullptr;
  for (std::size_t i = 0; i < stack.shards().size(); ++i) {
    Stack::Shard& shard = stack.shards()[i];
    const xt::ServiceStats s = shard.service->stats();
    const std::string name = routed ? "shard " + std::to_string(i) : "server";
    if (s.submitted != s.completed + s.rejected_full + s.rejected_shutdown + s.expired + s.failed)
      ledger.fail(name + ": service submitted " + std::to_string(s.submitted) +
                  " != completed + rejected_full + rejected_shutdown + expired + failed");
    const std::uint64_t ok = routed ? loadgen.ok_by_shard()[i] : loadgen.ok_total();
    const std::uint64_t inline_hits = shard.server->stats().inline_hits;
    if (ok != s.completed + inline_hits)
      ledger.fail(name + ": ok answers " + std::to_string(ok) + " != service completed " +
                  std::to_string(s.completed) + " + net inline_hits " +
                  std::to_string(inline_hits));
  }
  if (routed) {
    const xt::RouterStats r = stack.router()->stats();
    if (r.submitted != r.forwarded + r.shard_down_rejections + r.overloaded_rejections +
                           r.shutdown_rejections)
      ledger.fail("router submitted " + std::to_string(r.submitted) +
                  " != forwarded + shard_down + overloaded + shutdown");
  }
}

void add_layers(Values& v, Stack& stack, Loadgen& loadgen, const Snapshot& before,
                const Snapshot& after, const Gauges& gauges, const Breakdown& bd,
                const ReplayTimes& t) {
  const double window_ok =
      static_cast<double>(loadgen.arm(0).ok + loadgen.arm(1).ok);
  double inline_hits = 0, inline_probes = 0, cache_hits = 0, cache_probes = 0,
         evictions = 0, completed = 0, net_failures = 0, service_failures = 0;
  const auto net_fail = [](const xt::NetServerStats& n) {
    return static_cast<double>(n.overloaded_rejections + n.slow_consumer_disconnects +
                               n.protocol_errors);
  };
  for (std::size_t i = 0; i < after.net.size(); ++i) {
    const auto& n0 = before.net[i];
    const auto& n1 = after.net[i];
    inline_hits += static_cast<double>(n1.inline_hits - n0.inline_hits);
    inline_probes += static_cast<double>(n1.inline_hits + n1.inline_misses -
                                         n0.inline_hits - n0.inline_misses);
    const auto& c0 = before.cache[i];
    const auto& c1 = after.cache[i];
    cache_hits += static_cast<double>(c1.hits - c0.hits);
    cache_probes += static_cast<double>(c1.hits + c1.misses - c0.hits - c0.misses);
    evictions += static_cast<double>(after.service[i].cache_evictions -
                                     before.service[i].cache_evictions);
    completed += static_cast<double>(after.service[i].completed -
                                     before.service[i].completed);
    const xt::ServiceStats s = stack.shards()[i].service->stats();
    service_failures += static_cast<double>(s.rejected_full + s.expired + s.failed);
    net_failures += net_fail(stack.shards()[i].server->stats());
  }
  xt::RouterStats router;
  if (stack.router() != nullptr) {
    router = stack.router()->stats();
    net_failures += net_fail(stack.front().stats());
  }

  v["net.edge_us"] = bd.edge_us;
  v["net.inline_hit_ratio"] = ratio(inline_hits, inline_probes);
  v["net.bytes_out_per_op"] =
      ratio(static_cast<double>(after.front.bytes_out - before.front.bytes_out),
            static_cast<double>(after.front.responses_sent - before.front.responses_sent));
  v["net.encode_us"] = t.encode_us;
  v["net.failures"] = net_failures;
  v["io.decode_us"] = t.decode_us;
  v["btree.digest_us"] = t.digest_us;
  v["btree.relabel_us"] = t.relabel_us;
  v["cache.probe_ns"] = t.probe_ns;
  v["cache.insert_us"] = t.insert_us;
  v["cache.hit_ratio"] = ratio(cache_hits, cache_probes);
  v["cache.evictions_per_kop"] = ratio(evictions * 1000.0, window_ok);
  v["service.sojourn_us"] = bd.service_us;
  v["service.queue_depth_mean"] = gauges.mean(gauges.service_depth);
  // Little's law: mean wait = mean depth / completion rate.
  v["service.queue_wait_us"] =
      ratio(gauges.mean(gauges.service_depth), completed / loadgen.usage().seconds) * 1e6;
  v["service.failures"] = service_failures;
  v["core.embed_us"] = t.embed_us;
  v["core.split_sweep_us"] = t.split_sweep_us;
  v["core.lift_us"] = t.lift_us;
  v["core.cube_us"] = t.cube_us;
  v["core.repairs_per_embed"] = t.repairs_per_embed;
  v["core.discipline_violations_per_embed"] = t.violations_per_embed;
  v["embedding.audit_us"] = t.audit_us;
  v["pool.queue_depth_mean"] = gauges.mean(gauges.pool_depth);
  if (stack.router() != nullptr) {
    double forwarded = 0, largest = 0;
    for (std::size_t i = 0; i < router.shards.size(); ++i) {
      const double f = static_cast<double>(router.shards[i].forwarded -
                                           before.router.shards[i].forwarded);
      forwarded += f;
      largest = std::max(largest, f);
    }
    double call_failures = 0;
    for (const xt::RouterShardStats& s : router.shards)
      call_failures += static_cast<double>(s.call_failures);
    v["router.sojourn_us"] = bd.router_us;
    v["router.hop_us"] = bd.router_hop_us;
    v["router.queue_depth_mean"] = gauges.mean(gauges.router_depth);
    v["router.shard_share_max"] = ratio(largest, forwarded);
    v["router.failures"] = static_cast<double>(router.shard_down_rejections +
                                               router.overloaded_rejections) +
                           call_failures;
  }
  const WindowUsage& usage = loadgen.usage();
  v["proc.ctx_switches_per_op"] = ratio(static_cast<double>(usage.ctx_switches), window_ok);
  v["loadgen.busy_share"] = ratio(usage.caller_cpu_s, usage.seconds);
  const ArmResult& plain = loadgen.arm(0);
  const ArmResult& traced = loadgen.arm(1);
  v["trace.overhead_share"] =
      ratio(ratio(static_cast<double>(traced.ok), traced.seconds),
            ratio(static_cast<double>(plain.ok), plain.seconds));
  v["trace.unattributed_share"] = ratio(bd.unattributed_us, bd.client_mean_us);
}

/// Prints the untraced arm's latency: its sample count, p50 and p99,
/// and every sub-window.
void print_latency(const LatencyWindow& latency) {
  std::cout << "latency samples " << latency.samples() << ", p50 " << latency.p50_ms()
            << " ms, p99 " << latency.p99_ms()
            << " ms (the p99 is the traced run's net.rtt_p99_ms)\n"
            << latency.describe();
}

void print_breakdown(const Breakdown& bd) {
  std::cout << "trace: " << bd.requests << " traced requests, client mean "
            << bd.client_mean_us << " us; self time per request:\n";
  double sum = bd.unattributed_us;
  for (const auto& [layer, us] : bd.self_us) {
    std::cout << "  " << layer << " " << us << " us\n";
    sum += us;
  }
  std::cout << "  unattributed " << bd.unattributed_us << " us\n"
            << "  sum " << sum << " us (client mean " << bd.client_mean_us << " us)\n";
}

}  // namespace

void run_served(const Args& args, Report& report, Ledger& ledger) {
  const bool routed = args.workload == "routed";
  const GenSpec spec = spec_for(args.workload);
  SpanLog log;
  SpanLog* trace = args.trace ? &log : nullptr;
  Gauges gauges;
  Snapshot before, after;

  // The untraced run times kSetups set-ups before the window, at each
  // pause and after it (see kSetups); the window runs on the last one
  // before it.  A traced run sets up once.
  std::vector<double> setup_s;
  std::function<void()> time_set_ups;  // at a pause and after the window
  const auto set_up = [&](Setup& s) {
    s.tear_down();
    const std::int64_t t0 = now_ns();
    s.stream = std::make_unique<RequestStream>(spec, args.seed);
    s.stream->prefetch(kFingerprintRequests);
    s.stack = std::make_unique<Stack>(routed, trace);
    s.checker = std::make_unique<AnswerChecker>(ledger, *s.stream, args.seed,
                                                args.tamper == "dilation");
    LoadgenConfig config;
    config.port = s.stack->front().port();
    config.ring = s.stack->ring();
    config.trace = trace;
    config.drop_one_answer = args.tamper == "drop";
    config.on_window = [&](bool open) { (open ? before : after) = Snapshot::of(*s.stack); };
    if (trace != nullptr) config.sample = [&] { gauges.sample(*s.stack); };
    config.on_pause = [&] { time_set_ups(); };
    s.loadgen = std::make_unique<Loadgen>(std::move(config), *s.stream, *s.checker, ledger);
    if (!s.loadgen->connect()) return false;
    if (spec.hot > 0) s.loadgen->prime();
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    return true;
  };
  time_set_ups = [&] {
    Setup aside;
    for (int k = 0; k < kSetups; ++k) {
      if (!set_up(aside)) return;
    }
  };
  Setup run;
  for (int k = 0; k < (args.trace ? 1 : kSetups); ++k) {
    if (!set_up(run)) return;
  }
  Stack* const stack = run.stack.get();
  Loadgen* const loadgen = run.loadgen.get();
  AnswerChecker* const checker = run.checker.get();
  RequestStream* const stream = run.stream.get();

  loadgen->run(plan_slices(args));
  check_identities(*stack, *loadgen, ledger);
  checker->verify_samples();
  std::cout << "oracle re-derived " << checker->samples() << " answers\n";
  const WindowUsage& usage = loadgen->usage();
  report_host(usage.host_start, usage.host_end);
  const double busy = ratio(usage.caller_cpu_s, usage.seconds);
  std::cout << "loadgen busy share " << busy
            << (busy > 0.9 ? " (the load generator, not the program, bounds this run)" : "")
            << "\n";
  std::printf("input_digest %016llx\noutput_fingerprint %016llx\n",
              static_cast<unsigned long long>(stream->input_digest()),
              static_cast<unsigned long long>(checker->fingerprint()));
  std::fflush(stdout);
  // Peak memory is a per-layer metric (see README.md); untraced runs
  // print it.  Read before the replay.
  const double peak_rss_mib = ProcUsage::now().max_rss_mib;
  std::cout << "peak resident memory " << peak_rss_mib
            << " MiB (the traced run's proc.peak_rss_mb)\n";

  Values v;
  if (!args.trace) {
    const ArmResult& arm = loadgen->arm(0);
    print_latency(loadgen->latency());
    v["ok_per_s"] = ratio(static_cast<double>(arm.ok), arm.seconds);
    v["latency_p50_ms"] = loadgen->latency().p50_ms();
    const double program_cpu = usage.process_cpu_s - usage.caller_cpu_s;
    v["cpu_us_per_op"] = ratio(program_cpu * 1e6, static_cast<double>(arm.ok));
    run.tear_down();
    time_set_ups();
    print_setups(setup_s);
    v["setup_s"] = median_of(setup_s);
    report_end_to_end(v, report);
    return;
  }

  print_setups(setup_s);
  const std::vector<Span> spans = log.take();
  const Joined joined = join_spans(loadgen->spans(), spans, routed);
  const Breakdown bd = self_times(loadgen->spans(), spans, joined, routed);
  print_breakdown(bd);
  const std::string span_file =
      args.run_dir + "/spans-" + args.workload + "-" + std::to_string(args.seed) + ".tsv";
  write_spans(span_file, loadgen->spans(), spans, joined);
  std::cout << "spans written to " << span_file << "\n";

  RequestStream replay_stream(spec, args.seed);
  std::vector<ReplayInput> inputs;
  for (int i = 0; i < kReplayInputs; ++i) {
    const Request r = replay_stream.next();
    inputs.push_back({*r.payload, r.theorem, r.want_embedding,
                      stack->ring() != nullptr
                          ? static_cast<std::uint32_t>(stack->ring()->lookup(r.digest))
                          : 0u});
  }
  std::vector<xt::CanonicalCache*> caches;
  for (Stack::Shard& s : stack->shards()) caches.push_back(s.service->canonical_cache());
  const ReplayTimes times = replay_served(
      inputs, caches, stack->shards()[0].service->config().intra_embed_parallelism);
  add_layers(v, *stack, *loadgen, before, after, gauges, bd, times);
  print_latency(loadgen->latency());
  v["net.rtt_p99_ms"] = loadgen->latency().p99_ms();
  v["proc.peak_rss_mb"] = peak_rss_mib;
  report_layers(v, report);
}

}  // namespace perfbench
