// The load generator: one thread, at most four connections, a closed
// loop with a fixed pipelined window per connection.  Frames are xtn1
// with xtb1-record payloads, taken pre-encoded from the hot set or
// generated from (seed, index).
//
// Every receive is bounded: an answer that does not arrive within
// kAnswerTimeoutNs is counted as lost, never waited on forever.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "answers.hpp"
#include "common.hpp"
#include "generator.hpp"
#include "net/client.hpp"
#include "tracing.hpp"
#include "util/hash_ring.hpp"

namespace perfbench {

inline constexpr std::int64_t kAnswerTimeoutNs = 5'000'000'000;
inline constexpr std::size_t kConnections = 4;
/// Requests in flight per connection: the default window of the
/// repository's pipelined clients, `bench_net --window` and
/// `bench_cluster --window`.  4 x 16 stays under every admission cap
/// at its default: 64 per connection, 4096 per server, 256 in the
/// service queue and 256 per router shard.
inline constexpr std::size_t kWindow = 16;

/// What one arm of the measured window saw.
struct ArmResult {
  double seconds = 0.0;
  std::uint64_t ok = 0;
};

struct LoadgenConfig {
  std::uint16_t port = 0;
  /// Routed runs: the router's ring, to attribute requests to shards.
  const xt::HashRing* ring = nullptr;
  /// Traced runs: switched on for the traced arm's slices.
  SpanLog* trace = nullptr;
  /// Called about every 50 ms of the measured window (traced runs).
  std::function<void()> sample;
  /// Called as the measured window opens (true) and closes (false),
  /// outside the timed slices, to snapshot server counters.
  std::function<void(bool open)> on_window;
  /// Called in a pause slice once every answer is in: the set-ups.
  std::function<void()> on_pause;
  /// Self-test: discard the first answer frame of the measured window.
  bool drop_one_answer = false;
};

class Loadgen {
 public:
  Loadgen(LoadgenConfig config, RequestStream& stream, AnswerChecker& checker,
          Ledger& ledger);
  ~Loadgen();

  Loadgen(const Loadgen&) = delete;
  Loadgen& operator=(const Loadgen&) = delete;

  /// Opens the connections; false (with a ledger failure) if any fails.
  bool connect();

  /// Sends every hot pair once, asking for the embedding, and waits for
  /// all answers: the set-up that primes the cache.
  void prime();

  /// Runs the slices back to back, then stops issuing and drains.  At
  /// least kFingerprintRequests stream requests are sent in total.  A
  /// pause slice sends nothing; once every answer is in (counted in no
  /// arm), it calls on_pause.  Answers count in the slice they land in.
  void run(const std::vector<Slice>& slices);

  [[nodiscard]] const ArmResult& arm(int a) const { return arms_[a]; }
  /// Latency of the window's untraced arm.
  [[nodiscard]] const LatencyWindow& latency() const { return latency_; }
  /// Totals over the whole run, priming included.
  [[nodiscard]] std::uint64_t ok_total() const { return ok_total_; }
  [[nodiscard]] const std::vector<std::uint64_t>& ok_by_shard() const {
    return ok_by_shard_;
  }
  /// Counters summed over the measured slices.
  [[nodiscard]] const WindowUsage& usage() const { return usage_; }
  [[nodiscard]] std::vector<ClientSpan>& spans() { return spans_; }

 private:
  struct Pending {
    RequestInfo info;
    std::int64_t sent_ns = 0;
    bool traced = false;
  };
  struct Conn;
  struct Outgoing {
    RequestInfo info;
    const std::string* payload = nullptr;
  };
  using Source = std::function<bool(Outgoing*)>;

  void pump(const Source& source, const std::vector<Slice>& slices,
            bool until_fingerprint);
  void fill(Conn& conn, const Source& source, bool traced, bool* exhausted);
  void flush(Conn& conn);
  void receive(Conn& conn, std::int64_t now, int slice_arm, bool measuring);
  void fail_all(Conn& conn, const std::string& why);

  LoadgenConfig config_;
  RequestStream& stream_;
  AnswerChecker& checker_;
  Ledger& ledger_;
  std::vector<std::unique_ptr<Conn>> conns_;

  ArmResult arms_[2];
  LatencyWindow latency_;
  std::uint64_t ok_total_ = 0;
  std::vector<std::uint64_t> ok_by_shard_;
  WindowUsage usage_;
  std::vector<ClientSpan> spans_;
  bool dropped_ = false;
};

}  // namespace perfbench
