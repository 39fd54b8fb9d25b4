// xt_perfbench: the serving stack's benchmark program.
//
//   xt_perfbench --workload=hit|miss|routed|bulk --seed=N --seconds=S
//                --trace=0|1 --run-dir=DIR [--tamper=dilation|drop]
//
// Runs one workload and prints, as its last line, one JSON object:
// {"correct", "attempted", "failed", "metrics"} with the end-to-end
// metrics (--trace=0) or the per-layer metrics (--trace=1).  Lines
// before it name the input digest, the output fingerprint, the
// latency sample count and every failed check.  perfbench/run.py
// builds this program and is the command BENCHMARK.json names.
#include <csignal>
#include <exception>
#include <iostream>
#include <set>
#include <string>

#include "common.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  std::signal(SIGPIPE, SIG_IGN);
  const xt::Cli cli(argc, argv);
  Args args;
  args.workload = cli.get("workload", "");
  args.seed = static_cast<std::uint64_t>(cli.get_int("seed", 1));
  args.seconds = cli.get_double("seconds", 10.0);
  args.trace = cli.get_int("trace", 0) != 0;
  args.tamper = cli.get("tamper", "");
  args.run_dir = cli.get("run-dir", ".");
  const std::set<std::string> served{"hit", "miss", "routed"};
  const bool bulk = args.workload == "bulk";
  if ((!bulk && served.count(args.workload) == 0) || args.seconds <= 0.0 ||
      (!args.tamper.empty() && (bulk || (args.tamper != "dilation" && args.tamper != "drop")))) {
    std::cerr << "usage: " << argv[0]
              << " --workload=hit|miss|routed|bulk --seed=N --seconds=S --trace=0|1"
                 " --run-dir=DIR [--tamper=dilation|drop (served workloads)]\n";
    return 2;
  }
  std::cout << "workload " << args.workload << " seed " << args.seed << " seconds "
            << args.seconds << " trace " << (args.trace ? 1 : 0) << "\n";
  try {
    Ledger ledger;
    Report report;
    if (bulk) {
      run_bulk(args, report, ledger);
    } else {
      run_served(args, report, ledger);
    }
    std::cout << "attempted " << ledger.attempted() << " failed " << ledger.failed() << "\n";
    std::cout << report.json(ledger.failed() == 0, ledger.attempted(), ledger.failed())
              << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "xt_perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
