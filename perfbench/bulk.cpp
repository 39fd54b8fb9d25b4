// bulk: bulk_embed drains an xtb1 corpus written during set-up, at
// xt_bulk embed's defaults and as `xt_bulk embed` does: one call per
// pass over the whole corpus.  The corpus is T1, n log-uniform in
// 64..2048, duplication 0.5: a duplicate is a mirrored copy of any
// earlier distinct record.  ok_per_s counts records resolved per
// second over the passes; latency_p50_ms is the median pass time.
#include <unistd.h>

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_set>

#include "answers.hpp"
#include "btree/canonical.hpp"
#include "bulk/corpus.hpp"
#include "bulk/pipeline.hpp"
#include "loadgen.hpp"
#include "replay.hpp"
#include "tracing.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr std::uint64_t kCorpusRecords = 4096;
constexpr NodeId kMinNodes = 64;
constexpr NodeId kMaxNodes = 2048;
constexpr int kOracleRecords = 24;
constexpr std::size_t kReplayRecords = 48;

struct Corpus {
  std::vector<NodeId> sizes;  // per record
  std::uint64_t digest = 0;   // input digest over every record
};

Corpus write_corpus(const std::string& path, std::uint64_t seed) {
  Corpus corpus;
  xt::CorpusWriter writer(path);
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::uint64_t> distinct;  // family_shape seed of each distinct record
  for (std::uint64_t i = 0; i < kCorpusRecords; ++i) {
    xt::Rng rng(mix_seed(seed, i));
    BinaryTree tree;
    if (!distinct.empty() && rng.chance(0.5)) {
      const std::uint64_t original = distinct[rng.below(distinct.size())];
      tree = mirrored(family_shape(original, kMinNodes, kMaxNodes), rng());
    } else {
      for (std::uint64_t attempt = 0;; ++attempt) {
        const std::uint64_t shape_seed = mix_seed(mix_seed(seed, i), attempt);
        tree = family_shape(shape_seed, kMinNodes, kMaxNodes);
        if (seen.insert(xt::canonical_hash(tree)).second) {
          distinct.push_back(shape_seed);
          break;
        }
      }
    }
    writer.add(tree);
    const auto bytes = static_cast<std::size_t>(tree.num_nodes()) * sizeof(NodeId);
    corpus.digest = xt::hash64(tree.parent_data(), bytes,
                               xt::hash64(tree.left_data(), bytes, corpus.digest));
    corpus.sizes.push_back(tree.num_nodes());
  }
  writer.finalize();
  return corpus;
}

/// Samples the shared pool's queue depth every 50 ms while running.
/// It sleeps between samples, so it keeps no CPU busy.
class PoolSampler {
 public:
  PoolSampler() : thread_([this] { loop(); }) {}
  ~PoolSampler() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  PoolSampler(const PoolSampler&) = delete;
  PoolSampler& operator=(const PoolSampler&) = delete;

  std::atomic<bool> on{false};
  [[nodiscard]] double mean() {
    const std::lock_guard<std::mutex> lock(mu_);
    return samples_ > 0 ? sum_ / samples_ : 0.0;
  }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(50), [this] { return stop_; })) {
      if (!on.load()) continue;
      sum_ += static_cast<double>(xt::ThreadPool::shared().queue_depth());
      ++samples_;
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  double sum_ = 0.0;
  int samples_ = 0;
  std::thread thread_;  // last: starts after the state it reads
};

}  // namespace

void run_bulk(const Args& args, Report& report, Ledger& ledger) {
  const std::string path =
      args.run_dir + "/corpus-" + std::to_string(::getpid()) + ".xtb";
  // As in the served workloads, the untraced run times kSetups
  // set-ups before the window, at each pause (into a corpus aside) and
  // after it; a traced run sets up once.
  std::vector<double> setup_s;
  const auto set_up = [&](const std::string& file, Corpus& corpus,
                          std::unique_ptr<xt::CorpusReader>& reader) {
    reader.reset();
    const std::int64_t t0 = now_ns();
    corpus = write_corpus(file, args.seed);
    reader = std::make_unique<xt::CorpusReader>(file);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  };
  const auto time_set_ups = [&] {
    const std::string aside = path + ".aside";
    Corpus corpus;
    std::unique_ptr<xt::CorpusReader> reader;
    for (int k = 0; k < kSetups; ++k) set_up(aside, corpus, reader);
    reader.reset();
    std::remove(aside.c_str());
  };
  Corpus corpus;
  std::unique_ptr<xt::CorpusReader> reader;
  for (int k = 0; k < (args.trace ? 1 : kSetups); ++k) set_up(path, corpus, reader);

  const xt::BulkOptions options;  // xt_bulk embed's defaults
  std::unique_ptr<PoolSampler> sampler;
  if (args.trace) sampler = std::make_unique<PoolSampler>();

  ArmResult arms[2];
  std::vector<double> pass_ms;  // the untraced arm's pass times
  std::ostringstream pass_lines;
  std::uint64_t fingerprint = 0, window_decoded = 0, window_deduped = 0, failures = 0;
  std::vector<std::int32_t> first_height(kCorpusRecords, -1);
  std::vector<NodeId> first_load(kCorpusRecords, -1);
  std::vector<ClientSpan> spans;
  double check_cpu = 0.0;
  std::uint64_t pass = 0;

  // One pass: drain the corpus, then check every record (the check's
  // CPU is the benchmark's own and is kept out of cpu_us_per_op).
  const auto run_pass = [&](bool measured, int arm) {
    const HostTicks h0 = HostTicks::now();
    const std::int64_t t0 = now_ns();
    const xt::BulkResult result = xt::bulk_embed(*reader, options);
    const std::int64_t t1 = now_ns();
    const HostTicks h1 = HostTicks::now();
    const double c0 = thread_cpu_s();
    ledger.attempt(kCorpusRecords);
    const xt::BulkStats& s = result.stats;
    if (!s.accounting_ok())
      ledger.fail("pass " + std::to_string(pass) + ": decoded != embedded + deduped + rejected");
    if (s.decoded != kCorpusRecords)
      ledger.fail("pass " + std::to_string(pass) + ": decoded " + std::to_string(s.decoded) +
                  " of " + std::to_string(kCorpusRecords) + " records");
    failures += s.rejected + s.verify_failures;
    std::uint64_t ok = 0;
    for (const xt::BulkRecordResult& r : result.records) {
      const NodeId n = corpus.sizes[r.index];
      const Bound b = bound_for(Theorem::kT1, n);
      if (r.status == xt::BulkRecordStatus::kRejected || !r.error.empty() ||
          r.host_height != b.host_height || r.load_factor < 1 || r.load_factor > b.load) {
        ledger.fail("record " + std::to_string(r.index) + ": status " +
                    xt::bulk_record_status_name(r.status) + ", host " +
                    std::to_string(r.host_height) + ", load " +
                    std::to_string(r.load_factor) + " " + r.error);
        continue;
      }
      ++ok;
      if (pass == 0) {
        first_height[r.index] = r.host_height;
        first_load[r.index] = r.load_factor;
        const std::uint64_t fields[4] = {r.index, static_cast<std::uint64_t>(r.host_height),
                                         static_cast<std::uint64_t>(r.load_factor),
                                         r.canonical_hash};
        fingerprint += xt::hash64(fields, sizeof fields);
      }
    }
    if (measured) {
      arms[arm].ok += ok;
      window_decoded += s.decoded;
      window_deduped += s.deduped;
      if (arm == 0) {
        const double ms = static_cast<double>(t1 - t0) * 1e-6;
        pass_ms.push_back(ms);
        const double steal = h1.total > h0.total
                                 ? static_cast<double>(h1.steal - h0.steal) /
                                       static_cast<double>(h1.total - h0.total)
                                 : 0.0;
        pass_lines << "  pass " << ms << " ms, " << static_cast<double>(ok) / ms * 1e3
                   << " records/s, host steal " << steal << "\n";
      }
      if (arm == 1) spans.push_back(ClientSpan{pass, 0, t0, t1, 0, 0.0, 0});
      check_cpu += thread_cpu_s() - c0;
    }
    ++pass;
  };

  // Slices as in the served workloads; a pass belongs to the slice it
  // starts in, and a slice ends with the pass that crosses its
  // deadline.  The warm-up runs at least one pass, the one the output
  // fingerprint covers.
  WindowUsage usage;
  for (const Slice& slice : plan_slices(args)) {
    if (slice.pause) {
      time_set_ups();
      continue;
    }
    if (sampler) sampler->on.store(slice.measured);
    const std::int64_t start = now_ns();
    const std::int64_t end = start + static_cast<std::int64_t>(slice.seconds * 1e9);
    if (slice.measured) usage.begin(start);
    do {
      run_pass(slice.measured, slice.arm);
    } while (now_ns() < end);
    if (slice.measured) {
      const std::int64_t t = now_ns();
      usage.end(t);
      arms[slice.arm].seconds += static_cast<double>(t - start) * 1e-9;
    }
  }
  if (sampler) sampler->on.store(false);

  // Oracle: a seeded sample of records re-embedded with their
  // placements kept (bit-identical to the drain, pinned by bulk_test)
  // and re-derived through verify/oracle.
  xt::Rng rng(mix_seed(args.seed, 0x62756c6b));
  std::vector<std::uint64_t> sample;
  for (int i = 0; i < kOracleRecords; ++i) sample.push_back(rng.below(kCorpusRecords));
  xt::BulkOptions keep = options;
  keep.keep_embeddings = true;
  const xt::BulkResult kept = xt::bulk_embed(*reader, keep, sample);
  for (const xt::BulkRecordResult& r : kept.records) {
    const std::string label = "record " + std::to_string(r.index);
    if (!r.embedding.has_value() || r.host_height != first_height[r.index] ||
        r.load_factor != first_load[r.index]) {
      ledger.fail(label + ": re-embedded record differs from the drained one");
      continue;
    }
    OracleSample s;
    s.tree = reader->materialize(r.index);
    s.host_height = r.host_height;
    s.dilation = -1;  // the bulk path does not audit dilation
    s.load_factor = r.load_factor;
    for (NodeId v = 0; v < r.embedding->num_guest_nodes(); ++v)
      s.placement.push_back(r.embedding->host_of(v));
    fingerprint += xt::hash64(s.placement.data(), s.placement.size() * sizeof(xt::VertexId));
    const std::string bad = oracle_check(s);
    if (!bad.empty()) ledger.fail(label + ": oracle: " + bad);
  }
  report_host(usage.host_start, usage.host_end);
  std::cout << "passes " << pass << " over " << kCorpusRecords << " records, oracle re-derived "
            << kept.records.size() << " records\n"
            << "pass time median " << median_of(pass_ms) << " ms over " << pass_ms.size()
            << " untraced passes\n"
            << pass_lines.str();
  std::printf("input_digest %016llx\noutput_fingerprint %016llx\n",
              static_cast<unsigned long long>(corpus.digest),
              static_cast<unsigned long long>(fingerprint));
  std::fflush(stdout);
  // Peak memory is a per-layer metric (see README.md); untraced runs
  // print it.  Read before the replay.
  const double peak_rss_mib = ProcUsage::now().max_rss_mib;
  std::cout << "peak resident memory " << peak_rss_mib
            << " MiB (the traced run's proc.peak_rss_mb)\n";

  const double window_ok = static_cast<double>(arms[0].ok + arms[1].ok);
  Values v;
  if (!args.trace) {
    v["ok_per_s"] = ratio(static_cast<double>(arms[0].ok), arms[0].seconds);
    v["latency_p50_ms"] = median_of(pass_ms);
    v["cpu_us_per_op"] =
        ratio((usage.process_cpu_s - check_cpu) * 1e6, window_ok);
    reader.reset();
    time_set_ups();
    print_setups(setup_s);
    v["setup_s"] = median_of(setup_s);
    report_end_to_end(v, report);
  } else {
    print_setups(setup_s);
    const std::string span_file =
        args.run_dir + "/spans-bulk-" + std::to_string(args.seed) + ".tsv";
    write_spans(span_file, spans, {},
                Joined{std::vector<std::int64_t>(spans.size(), -1),
                       std::vector<std::int64_t>(spans.size(), -1)});
    std::cout << "spans written to " << span_file << "\n";
    std::vector<std::uint64_t> replayed(sample.begin(), sample.end());
    while (replayed.size() < kReplayRecords) replayed.push_back(rng.below(kCorpusRecords));
    const ReplayTimes t = replay_bulk(*reader, replayed, options);
    v["btree.digest_us"] = t.digest_us;
    v["btree.relabel_us"] = t.relabel_us;
    v["core.embed_us"] = t.embed_us;
    v["core.split_sweep_us"] = t.split_sweep_us;
    v["core.repairs_per_embed"] = t.repairs_per_embed;
    v["core.discipline_violations_per_embed"] = t.violations_per_embed;
    v["pool.queue_depth_mean"] = sampler->mean();
    v["bulk.view_us"] = t.view_us;
    v["bulk.dedup_ratio"] = ratio(static_cast<double>(window_deduped),
                                  static_cast<double>(window_decoded));
    v["bulk.failures"] = static_cast<double>(failures);
    v["proc.ctx_switches_per_op"] =
        ratio(static_cast<double>(usage.ctx_switches), window_ok);
    v["proc.peak_rss_mb"] = peak_rss_mib;
    v["loadgen.busy_share"] = ratio(check_cpu, usage.seconds);
    v["trace.overhead_share"] =
        ratio(ratio(static_cast<double>(arms[1].ok), arms[1].seconds),
              ratio(static_cast<double>(arms[0].ok), arms[0].seconds));
    report_layers(v, report);
  }
  reader.reset();
  std::remove(path.c_str());
}

}  // namespace perfbench
