// Shared vocabulary of the serving-stack benchmark: run arguments,
// the failure ledger every check reports into, the metric report, and
// the clocks and process counters the measurements read.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <string>
#include <vector>

namespace perfbench {

/// A stretch of a run.  Unmeasured slices warm the stack up; measured
/// slices count toward their arm (0 untraced, 1 traced).  A pause
/// sends nothing: it waits for every answer, times set-ups (see
/// kSetups), and ends when they are done.
struct Slice {
  double seconds = 0.0;
  bool measured = false;
  int arm = 0;
  bool pause = false;
};

/// Command-line arguments of one benchmark run.
struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test hooks: "dilation" raises one answer's dilation above
  /// its bound, "drop" discards one answer frame.  Empty in real runs.
  std::string tamper;
  /// Directory for run files (the bulk corpus, the span dump).
  std::string run_dir;
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread, in seconds.
inline double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Whole-process resource counters (getrusage).
struct ProcUsage {
  double cpu_s = 0.0;                 // user + system
  std::int64_t ctx_switches = 0;      // voluntary + involuntary
  double max_rss_mib = 0.0;

  static ProcUsage now() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    ProcUsage u;
    u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
    u.ctx_switches = ru.ru_nvcsw + ru.ru_nivcsw;
    u.max_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
    return u;
  }
};

/// Counts operations and failures.  Every check in the benchmark
/// reports here; the first few failures are printed so a failed run
/// says what went wrong.
class Ledger {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& what);
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The metrics one run prints, in insertion order.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// The result line: {"correct", "attempted", "failed", "metrics"}.
  [[nodiscard]] std::string json(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// Set-ups timed at each of the untraced run's set-up points: before
/// the measured window, at each pause inside it and after it.  Host
/// steal comes in bursts of seconds, so set-ups timed at one point of
/// the run alone can all fall in one; setup_s is the median of them
/// all.  A traced run sets up once.
inline constexpr int kSetups = 5;
/// Parts of the untraced measured window; a pause separates two parts.
inline constexpr int kWindowParts = 4;
/// Prints every set-up time.
void print_setups(const std::vector<double>& setup_s);

/// A warm-up, then the measured window: kWindowParts untraced parts
/// with a pause and a short re-warm between two, or ten alternating
/// untraced / traced slices so both arms see the same drift.
std::vector<Slice> plan_slices(const Args& args);

/// Host CPU time from /proc/stat, in clock ticks: the share stolen by
/// the hypervisor for other guests is a host condition a run reports
/// (it never aborts on it).  Zero when /proc/stat cannot be read.
struct HostTicks {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
  static HostTicks now();
};
/// Prints the steal share between two readings.
void report_host(const HostTicks& start, const HostTicks& end);

/// Counters summed over the measured slices of a window, so the
/// set-ups timed in its pauses stay out of them.
struct WindowUsage {
  double seconds = 0.0;
  double process_cpu_s = 0.0;  // user + system, whole process
  double caller_cpu_s = 0.0;   // the thread that marks the slices
  std::int64_t ctx_switches = 0;
  HostTicks host_start;        // at the first slice's start
  HostTicks host_end;          // at the last slice's end

  /// Marks a measured slice's start and end at `t`, on one thread.
  void begin(std::int64_t t);
  void end(std::int64_t t);

 private:
  bool started_ = false;
  std::int64_t start_ns_ = 0;
  ProcUsage start_;
  double start_caller_cpu_s_ = 0.0;
};

/// Latency percentiles in fixed memory: a sample falls into a bucket
/// 1/256 of its power of two wide (under 0.4 % of the value), and a
/// percentile interpolates within its bucket.
class LatencyHistogram {
 public:
  void add(std::int64_t ns);
  /// Nearest-rank percentile (q in [0, 100]), in ms; 0 when empty.
  [[nodiscard]] double percentile_ms(double q) const;
  [[nodiscard]] std::uint64_t count() const { return count_; }

 private:
  static constexpr int kSubBits = 8;
  std::vector<std::uint64_t> buckets_ = std::vector<std::uint64_t>(64 << kSubBits, 0);
  std::uint64_t count_ = 0;
};

/// The latency of the untraced arm of a measured window.  Every answer
/// goes into one histogram, which gives the window's percentiles.  The
/// window is also cut into sub-windows, each printed with its own
/// ok/s, p50, p99 and host steal share: a diagnostic that shows when
/// host steal hurt a run.  A sub-window closes once it spans at least
/// kMinSubWindowSeconds and holds at least kMinSubWindowSamples
/// answers, so its p99 has ten samples beyond it.
class LatencyWindow {
 public:
  static constexpr std::size_t kMinSubWindowSamples = 1000;
  static constexpr double kMinSubWindowSeconds = 0.5;

  /// Starts (or, after pause(), resumes) measuring at `t`.  A traced
  /// run measures its untraced arm in several slices.
  void start(std::int64_t t);
  void pause(std::int64_t t) { active_ns_ += t - segment_ns_; }
  /// One answer received at `t`, `latency_ns` after it was sent.
  void add(std::int64_t t, std::int64_t latency_ns);
  /// Closes the window (after pause()).  A trailing sub-window too
  /// small to stand alone is not printed; its answers still count.
  void finish();

  [[nodiscard]] double p50_ms() const { return window_.percentile_ms(50.0); }
  [[nodiscard]] double p99_ms() const { return window_.percentile_ms(99.0); }
  [[nodiscard]] std::uint64_t samples() const { return window_.count(); }
  /// One line per sub-window: ok/s, p50 ms, p99 ms, host steal share.
  [[nodiscard]] std::string describe() const;

 private:
  void close(std::int64_t elapsed_ns);

  std::int64_t segment_ns_ = 0;  // start of the running segment
  std::int64_t active_ns_ = 0;   // measured time before it, this sub-window
  bool started_ = false;
  HostTicks host_;
  std::vector<double> sub_ms_;   // this sub-window's latencies
  LatencyHistogram window_;
  std::string lines_;
};

/// num / den, or 0 when there is nothing to divide by.
inline double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Median of a sample (by value; the input is not reordered).
inline double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

/// Nearest-rank percentile (q in [0, 100]); sorts `v` in place.
double percentile_in_place(std::vector<double>& v, double q);

}  // namespace perfbench
