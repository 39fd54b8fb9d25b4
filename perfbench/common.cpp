#include "common.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>

namespace perfbench {

void Ledger::fail(const std::string& what) {
  ++failed_;
  constexpr std::uint64_t kPrinted = 20;
  if (failed_ <= kPrinted) std::cout << "failure: " << what << "\n";
  if (failed_ == kPrinted + 1) std::cout << "failure: (further failures not printed)\n";
}

HostTicks HostTicks::now() {
  HostTicks t;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return t;
  unsigned long long v[8] = {};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                  &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (const unsigned long long x : v) t.total += x;
    t.steal = v[7];
  }
  std::fclose(f);
  return t;
}

void report_host(const HostTicks& start, const HostTicks& end) {
  if (end.total <= start.total) {
    std::cout << "host steal share unavailable\n";
    return;
  }
  std::cout << "host steal share "
            << static_cast<double>(end.steal - start.steal) /
                   static_cast<double>(end.total - start.total)
            << " (CPU time the hypervisor gave other guests during the window)\n";
}

void print_setups(const std::vector<double>& setup_s) {
  std::cout << "setup_s per set-up:";
  for (const double s : setup_s) std::cout << " " << s;
  std::cout << "\n";
}

std::string Report::json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    char value[64];
    // %.17g keeps every digit of the measurement; JSON has no NaN/inf.
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    os << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": " << value
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

std::vector<Slice> plan_slices(const Args& args) {
  const double warm = std::min(1.0, 0.25 * args.seconds);
  std::vector<Slice> slices{{warm, false, 0, false}};
  if (args.trace) {
    for (int i = 0; i < 10; ++i) slices.push_back({args.seconds / 10.0, true, i % 2, false});
    return slices;
  }
  for (int i = 0; i < kWindowParts; ++i) {
    if (i > 0) {
      slices.push_back({0.0, false, 0, true});
      slices.push_back({0.25 * warm, false, 0, false});
    }
    slices.push_back({args.seconds / kWindowParts, true, 0, false});
  }
  return slices;
}

void WindowUsage::begin(std::int64_t t) {
  if (!started_) host_start = HostTicks::now();
  started_ = true;
  start_ns_ = t;
  start_ = ProcUsage::now();
  start_caller_cpu_s_ = thread_cpu_s();
}

void WindowUsage::end(std::int64_t t) {
  const ProcUsage u = ProcUsage::now();
  seconds += static_cast<double>(t - start_ns_) * 1e-9;
  process_cpu_s += u.cpu_s - start_.cpu_s;
  caller_cpu_s += thread_cpu_s() - start_caller_cpu_s_;
  ctx_switches += u.ctx_switches - start_.ctx_switches;
  host_end = HostTicks::now();
}

void LatencyHistogram::add(std::int64_t ns) {
  const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0));
  std::size_t index = v;
  if (v >= (1u << kSubBits)) {
    const int e = std::bit_width(v) - 1;  // e >= kSubBits
    const std::uint64_t sub = (v >> (e - kSubBits)) & ((1u << kSubBits) - 1);
    index = (static_cast<std::size_t>(e - kSubBits + 1) << kSubBits) + sub;
  }
  ++buckets_[index];
  ++count_;
}

double LatencyHistogram::percentile_ms(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q / 100.0 * static_cast<double>(count_))), 1,
      count_);
  std::uint64_t below = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (below + buckets_[i] < rank) {
      below += buckets_[i];
      continue;
    }
    // Bucket i covers [low, low + width) ns; place the rank's sample
    // at its share of the bucket's samples.
    double low = static_cast<double>(i);
    double width = 1.0;
    if (i >= (1u << kSubBits)) {
      const int shift = static_cast<int>(i >> kSubBits) - 1;
      const std::uint64_t sub = i & ((1u << kSubBits) - 1);
      low = std::ldexp(static_cast<double>((1u << kSubBits) + sub), shift);
      width = std::ldexp(1.0, shift);
    }
    const double share = (static_cast<double>(rank - below) - 0.5) /
                         static_cast<double>(buckets_[i]);
    return (low + width * share) * 1e-6;
  }
  return 0.0;
}

void LatencyWindow::start(std::int64_t t) {
  segment_ns_ = t;
  if (!started_) host_ = HostTicks::now();
  started_ = true;
}

void LatencyWindow::add(std::int64_t t, std::int64_t latency_ns) {
  window_.add(latency_ns);
  sub_ms_.push_back(static_cast<double>(latency_ns) * 1e-6);
  const std::int64_t elapsed = active_ns_ + (t - segment_ns_);
  if (static_cast<double>(elapsed) * 1e-9 >= kMinSubWindowSeconds &&
      sub_ms_.size() >= kMinSubWindowSamples) {
    close(elapsed);
    active_ns_ = 0;
    segment_ns_ = t;
  }
}

void LatencyWindow::finish() {
  if (sub_ms_.size() >= kMinSubWindowSamples || (lines_.empty() && !sub_ms_.empty()))
    close(active_ns_);
}

void LatencyWindow::close(std::int64_t elapsed_ns) {
  const double seconds = static_cast<double>(elapsed_ns) * 1e-9;
  const double ok_per_s = seconds > 0 ? static_cast<double>(sub_ms_.size()) / seconds : 0.0;
  const double p50 = percentile_in_place(sub_ms_, 50.0);
  const double p99 = percentile_in_place(sub_ms_, 99.0);
  const HostTicks host = HostTicks::now();
  const double steal = host.total > host_.total
                           ? static_cast<double>(host.steal - host_.steal) /
                                 static_cast<double>(host.total - host_.total)
                           : 0.0;
  std::ostringstream os;
  os << "  sub-window " << ok_per_s << " ok/s, p50 " << p50 << " ms, p99 " << p99
     << " ms, host steal " << steal << "\n";
  lines_ += os.str();
  sub_ms_.clear();
  host_ = host;
}

std::string LatencyWindow::describe() const { return lines_; }

double percentile_in_place(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  // Nearest rank: the smallest sample with at least q % of the samples
  // at or below it.
  auto rank = static_cast<std::size_t>(std::ceil(q / 100.0 * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank), v.end());
  return v[rank];
}

}  // namespace perfbench
