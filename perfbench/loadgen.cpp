#include "loadgen.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <deque>
#include <limits>
#include <utility>

#include "net/wire.hpp"

namespace perfbench {
namespace {

constexpr std::int64_t kSampleEveryNs = 50'000'000;

std::int64_t to_ns(double seconds) {
  return static_cast<std::int64_t>(seconds * 1e9);
}

}  // namespace

struct Loadgen::Conn {
  xt::NetClient client;
  int fd = -1;
  xt::FrameParser parser;
  xt::WireFrame frame;  // reused across answers
  std::string out;
  std::size_t out_off = 0;
  std::deque<Pending> inflight;  // in send order; answers come in order
  bool dead = false;
};

Loadgen::Loadgen(LoadgenConfig config, RequestStream& stream,
                 AnswerChecker& checker, Ledger& ledger)
    : config_(std::move(config)),
      stream_(stream),
      checker_(checker),
      ledger_(ledger),
      ok_by_shard_(config_.ring != nullptr ? config_.ring->num_shards() : 1, 0) {}

Loadgen::~Loadgen() = default;

bool Loadgen::connect() {
  for (std::size_t i = 0; i < kConnections; ++i) {
    auto conn = std::make_unique<Conn>();
    std::string error;
    if (!conn->client.connect("127.0.0.1", config_.port, &error, 5000)) {
      ledger_.fail("connect to port " + std::to_string(config_.port) + ": " +
                   error);
      return false;
    }
    conn->fd = conn->client.fd();
    ::fcntl(conn->fd, F_SETFL, ::fcntl(conn->fd, F_GETFL, 0) | O_NONBLOCK);
    conns_.push_back(std::move(conn));
  }
  return true;
}

void Loadgen::prime() {
  const std::vector<Shape>& hot = stream_.hot();
  std::size_t next = 0;
  const Source source = [&](Outgoing* o) {
    if (next >= hot.size()) return false;
    const Shape& s = hot[next];
    o->info = RequestInfo{};
    o->info.index = next;
    o->info.priming = true;
    o->info.hot = static_cast<std::int32_t>(next);
    o->info.theorem = s.theorem;
    o->info.want_embedding = true;
    o->info.n = s.tree.num_nodes();
    if (config_.ring != nullptr)
      o->info.shard = static_cast<std::uint32_t>(config_.ring->lookup(s.digest));
    o->payload = &s.payload;
    ++next;
    return true;
  };
  pump(source, {}, false);
}

void Loadgen::run(const std::vector<Slice>& slices) {
  const Source source = [&](Outgoing* o) {
    const Request r = stream_.next();
    o->info = RequestInfo{};
    o->info.index = r.index;
    o->info.hot = r.hot;
    o->info.theorem = r.theorem;
    o->info.want_embedding = r.want_embedding;
    o->info.n = r.n;
    if (config_.ring != nullptr)
      o->info.shard = static_cast<std::uint32_t>(config_.ring->lookup(r.digest));
    if (checker_.sample_for_oracle(o->info)) o->info.payload = *r.payload;
    o->payload = r.payload;
    return true;
  };
  pump(source, slices, true);
}

void Loadgen::pump(const Source& source, const std::vector<Slice>& slices,
                   bool until_fingerprint) {
  std::size_t si = 0;
  std::int64_t slice_start = now_ns();
  std::int64_t slice_end = slice_start;
  bool window_open = false;
  std::int64_t next_sample = 0;
  bool exhausted = false;

  const auto begin_slice = [&](std::int64_t t) {
    const Slice& s = slices[si];
    if (s.measured && !window_open) {
      if (config_.on_window) {
        config_.on_window(true);
        t = now_ns();
      }
      window_open = true;
    }
    slice_start = t;
    // A pause ends when its set-ups are done, not at a deadline.
    slice_end = s.pause ? std::numeric_limits<std::int64_t>::max() : t + to_ns(s.seconds);
    if (s.measured) usage_.begin(t);
    if (s.measured && s.arm == 0) latency_.start(t);
    if (config_.trace != nullptr)
      config_.trace->on.store(s.measured && s.arm == 1, std::memory_order_relaxed);
  };
  const auto end_slice = [&](std::int64_t t) {
    const Slice& s = slices[si];
    if (!s.measured) return;
    arms_[s.arm].seconds += static_cast<double>(t - slice_start) * 1e-9;
    if (s.arm == 0) latency_.pause(t);
    usage_.end(t);
    const bool last = std::none_of(slices.begin() + static_cast<std::ptrdiff_t>(si) + 1,
                                   slices.end(), [](const Slice& x) { return x.measured; });
    if (last) latency_.finish();
    if (last && config_.on_window) config_.on_window(false);
  };
  const auto next_slice = [&](std::int64_t t) {
    end_slice(t);
    ++si;
    if (si < slices.size()) {
      begin_slice(t);
    } else if (config_.trace != nullptr) {
      config_.trace->on.store(false, std::memory_order_relaxed);
    }
  };
  // Moves to the slice covering `now`; a slice ends when the loop
  // first sees its deadline pass, and the next begins at that instant.
  const auto advance = [&](std::int64_t now) {
    while (si < slices.size() && now >= slice_end) next_slice(now);
  };
  if (!slices.empty()) begin_slice(slice_start);

  std::vector<pollfd> pfds;
  std::vector<Conn*> polled;
  for (;;) {
    std::int64_t now = now_ns();
    advance(now);
    const bool in_slices = si < slices.size();
    const bool pausing = in_slices && slices[si].pause;
    const bool measuring = in_slices && slices[si].measured;
    const bool traced = measuring && slices[si].arm == 1;
    const bool issuing =
        !exhausted && !pausing &&
        (in_slices || slices.empty() ||
         (until_fingerprint && stream_.issued() < kFingerprintRequests));

    bool outstanding = false;
    for (auto& conn : conns_) {
      if (conn->dead) continue;
      if (issuing) fill(*conn, source, traced, &exhausted);
      flush(*conn);
      // Lost answers: a bounded wait, then a counted failure.
      while (!conn->inflight.empty() &&
             now - conn->inflight.front().sent_ns > kAnswerTimeoutNs) {
        ledger_.fail("request " + std::to_string(conn->inflight.front().info.index) +
                     ": no answer within 5 s");
        conn->inflight.pop_front();
      }
      outstanding = outstanding || !conn->inflight.empty();
    }
    if (pausing && !outstanding) {
      if (config_.on_pause) config_.on_pause();
      next_slice(now_ns());
      continue;
    }
    if (!outstanding && !(issuing && !exhausted)) break;
    if (std::all_of(conns_.begin(), conns_.end(),
                    [](const auto& c) { return c->dead; }))
      break;

    if (measuring && config_.sample && now >= next_sample) {
      config_.sample();
      next_sample = now + kSampleEveryNs;
    }

    pfds.clear();
    polled.clear();
    for (auto& conn : conns_) {
      if (conn->dead) continue;
      short events = POLLIN;
      if (conn->out_off < conn->out.size()) events |= POLLOUT;
      pfds.push_back({conn->fd, events, 0});
      polled.push_back(conn.get());
    }
    int timeout_ms = 50;
    if (in_slices && !pausing)
      timeout_ms = static_cast<int>(std::clamp<std::int64_t>(
          (slice_end - now + 999'999) / 1'000'000, 0, 50));
    const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
    if (ready <= 0) continue;
    now = now_ns();
    advance(now);
    const bool measuring_now = si < slices.size() && slices[si].measured;
    const int arm_now = measuring_now ? slices[si].arm : 0;
    for (std::size_t i = 0; i < pfds.size(); ++i) {
      if (pfds[i].revents == 0) continue;
      if ((pfds[i].revents & POLLOUT) != 0) flush(*polled[i]);
      if ((pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) != 0)
        receive(*polled[i], now, arm_now, measuring_now);
    }
  }
  if (config_.trace != nullptr)
    config_.trace->on.store(false, std::memory_order_relaxed);
}

void Loadgen::fill(Conn& conn, const Source& source, bool traced,
                   bool* exhausted) {
  while (conn.inflight.size() < kWindow) {
    Outgoing o;
    if (!source(&o)) {
      *exhausted = true;
      return;
    }
    xt::WireFrame header;
    header.format = static_cast<std::uint8_t>(xt::WireFormat::kXtb1Record);
    header.code = static_cast<std::uint8_t>(o.info.theorem);
    header.flags = o.info.want_embedding ? xt::kWireFlagWantEmbedding : 0;
    header.request_id = static_cast<std::uint32_t>(o.info.index);
    const std::int64_t sent = now_ns();
    xt::encode_frame_into(conn.out, header, *o.payload);
    conn.inflight.push_back(Pending{std::move(o.info), sent, traced});
    ledger_.attempt();
  }
}

void Loadgen::flush(Conn& conn) {
  while (conn.out_off < conn.out.size()) {
    const ssize_t k = ::send(conn.fd, conn.out.data() + conn.out_off,
                             conn.out.size() - conn.out_off, MSG_NOSIGNAL);
    if (k > 0) {
      conn.out_off += static_cast<std::size_t>(k);
    } else if (k < 0 && errno == EINTR) {
      continue;
    } else if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    } else {
      fail_all(conn, "send failed");
      return;
    }
  }
  conn.out.clear();
  conn.out_off = 0;
}

void Loadgen::receive(Conn& conn, std::int64_t now, int slice_arm,
                      bool measuring) {
  char buf[1 << 16];
  for (;;) {
    const ssize_t k = ::recv(conn.fd, buf, sizeof buf, 0);
    if (k > 0) {
      conn.parser.feed(std::string_view(buf, static_cast<std::size_t>(k)));
      if (static_cast<std::size_t>(k) < sizeof buf) break;
    } else if (k < 0 && errno == EINTR) {
      continue;
    } else if (k < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      fail_all(conn, k == 0 ? "connection closed by the server" : "recv failed");
      return;
    }
  }
  xt::WireFrame& f = conn.frame;
  for (;;) {
    const xt::FrameParser::Result r = conn.parser.next(&f);
    if (r == xt::FrameParser::Result::kNeedMore) break;
    if (r == xt::FrameParser::Result::kError) {
      fail_all(conn, "unreadable answer frame: " + conn.parser.error());
      return;
    }
    if (config_.drop_one_answer && measuring && !dropped_) {
      dropped_ = true;  // self-test: this answer is lost
      continue;
    }
    auto it = std::find_if(conn.inflight.begin(), conn.inflight.end(),
                           [&](const Pending& p) {
                             return static_cast<std::uint32_t>(p.info.index) ==
                                    f.request_id;
                           });
    if (it == conn.inflight.end()) {
      ledger_.fail("answer for request id " + std::to_string(f.request_id) +
                   ", which is not in flight");
      continue;
    }
    const Pending p = std::move(*it);
    conn.inflight.erase(it);
    Answer a;
    if (!checker_.check(p.info, f.code, f.payload, &a)) continue;
    ++ok_total_;
    ++ok_by_shard_[p.info.shard];
    if (measuring) {
      ArmResult& arm = arms_[slice_arm];
      ++arm.ok;
      if (slice_arm == 0) latency_.add(now, now - p.sent_ns);
      if (p.traced && slice_arm == 1) {
        spans_.push_back(ClientSpan{p.info.index, p.info.shard, p.sent_ns, now,
                                    a.served_seq, a.latency_ms,
                                    config_.ring != nullptr ? body_key(f.payload)
                                                            : 0});
      }
    }
  }
}

void Loadgen::fail_all(Conn& conn, const std::string& why) {
  for (const Pending& p : conn.inflight)
    ledger_.fail("request " + std::to_string(p.info.index) + ": " + why);
  conn.inflight.clear();
  conn.dead = true;
}

}  // namespace perfbench
