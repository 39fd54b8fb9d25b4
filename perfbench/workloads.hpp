// The four workloads.  Each fills the report with the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run) and
// reports every check into the ledger.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

/// hit, miss and routed: xtn1 over loopback through the epoll edge.
void run_served(const Args& args, Report& report, Ledger& ledger);

/// bulk: bulk_embed drains an xtb1 corpus written during set-up.
void run_bulk(const Args& args, Report& report, Ledger& ledger);

/// Metric values by name.
using Values = std::map<std::string, double>;

/// Adds every end-to-end metric (untraced runs) or every per-layer
/// metric (traced runs) to the report, in BENCHMARK.json order, with
/// its unit.  A layer the workload does not reach reports 0.
void report_end_to_end(const Values& values, Report& report);
void report_layers(const Values& values, Report& report);

}  // namespace perfbench
