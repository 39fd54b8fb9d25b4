#include <stdexcept>
#include <utility>

#include "workloads.hpp"

namespace perfbench {
namespace {

using Table = std::vector<std::pair<const char*, const char*>>;  // name, unit

// The order and units of BENCHMARK.json.
const Table kEndToEnd = {
    {"ok_per_s", "ops/s"},
    {"latency_p50_ms", "ms"},
    {"cpu_us_per_op", "us"},
    {"setup_s", "s"},
};

const Table kLayers = {
    {"net.rtt_p99_ms", "ms"},
    {"net.edge_us", "us"},
    {"net.inline_hit_ratio", "ratio"},
    {"net.bytes_out_per_op", "bytes"},
    {"net.encode_us", "us"},
    {"net.failures", "count"},
    {"io.decode_us", "us"},
    {"btree.digest_us", "us"},
    {"btree.relabel_us", "us"},
    {"cache.probe_ns", "ns"},
    {"cache.insert_us", "us"},
    {"cache.hit_ratio", "ratio"},
    {"cache.evictions_per_kop", "1/kop"},
    {"service.sojourn_us", "us"},
    {"service.queue_depth_mean", "requests"},
    {"service.queue_wait_us", "us"},
    {"service.failures", "count"},
    {"core.embed_us", "us"},
    {"core.split_sweep_us", "us"},
    {"core.lift_us", "us"},
    {"core.cube_us", "us"},
    {"core.repairs_per_embed", "nodes/embed"},
    {"core.discipline_violations_per_embed", "count/embed"},
    {"embedding.audit_us", "us"},
    {"pool.queue_depth_mean", "tasks"},
    {"router.sojourn_us", "us"},
    {"router.hop_us", "us"},
    {"router.queue_depth_mean", "requests"},
    {"router.shard_share_max", "ratio"},
    {"router.failures", "count"},
    {"bulk.view_us", "us"},
    {"bulk.dedup_ratio", "ratio"},
    {"bulk.failures", "count"},
    {"proc.ctx_switches_per_op", "1/op"},
    {"proc.peak_rss_mb", "MiB"},
    {"loadgen.busy_share", "ratio"},
    {"trace.overhead_share", "ratio"},
    {"trace.unattributed_share", "ratio"},
};

void report_table(const Table& table, const Values& values, Report& report) {
  for (const auto& [name, unit] : values) {
    (void)unit;
    bool known = false;
    for (const auto& row : table) known = known || name == row.first;
    if (!known) throw std::logic_error("metric " + name + " is not in the table");
  }
  for (const auto& [name, unit] : table) {
    const auto it = values.find(name);
    report.add(name, it != values.end() ? it->second : 0.0, unit);
  }
}

}  // namespace

void report_end_to_end(const Values& values, Report& report) {
  report_table(kEndToEnd, values, report);
}

void report_layers(const Values& values, Report& report) {
  report_table(kLayers, values, report);
}

}  // namespace perfbench
