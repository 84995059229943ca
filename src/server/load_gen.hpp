// Open-loop load generator for the KV service (DESIGN.md §12.3).
//
// One pacer thread issues requests on a fixed schedule — deterministic
// 1/rate spacing by default, exponential (Poisson process) interarrivals on
// request — and stamps each request with its SCHEDULED arrival time, not
// the time the pacer got around to enqueueing it. Latency is therefore
// measured from when the request *should* have arrived, so pacer lateness
// and queueing delay both land in the recorded tail instead of being
// silently absorbed (the coordinated-omission trap of closed-loop
// harnesses). When the service ring is full the request is shed and
// counted: an overloaded open-loop system drops work, it does not slow the
// arrival process down.
//
// Key choice follows a Zipfian(theta) over [0, keyspace) with scrambled
// ranks (util::Zipfian); the op mix is a cumulative draw over the six
// service verbs. Both live in RequestSource, which the TCP pacer
// (net/net_load_gen.hpp) shares. Everything is deterministic under a fixed
// seed.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdint>
#include <thread>

#include "server/kv_service.hpp"
#include "util/rng.hpp"
#include "util/zipfian.hpp"

namespace zstm::server {

/// Operation mix as fractions; anything left after the named verbs goes to
/// get (so the mix never needs to sum to exactly 1).
struct LoadMix {
  double put = 0.15;
  double del = 0.02;
  double multi_get = 0.05;
  double scan = 0.01;
  double transfer = 0.07;
};

struct LoadGenConfig {
  double rate = 2000.0;  ///< target arrivals per second
  std::chrono::milliseconds duration{1000};
  std::uint64_t keyspace = 4096;
  double zipf_theta = 0.99;  ///< 0 = uniform
  LoadMix mix;
  std::uint32_t multi_fanout = 16;
  bool poisson = false;  ///< exponential interarrivals instead of fixed
  std::uint64_t seed = 1;
  Value put_value = 100;
  Value transfer_amount = 1;
};

struct LoadGenResult {
  std::uint64_t offered = 0;   ///< scheduled arrivals
  std::uint64_t accepted = 0;  ///< made it into the ring
  std::uint64_t shed = 0;      ///< rejected (ring full / not accepting)
  std::uint64_t elapsed_ns = 0;
};

/// The request stream both open-loop pacers consume (run_open_loop here,
/// net::run_net_open_loop over TCP): the arrival schedule and the
/// op-mix/Zipfian draw. The stream is a pure function of the config and
/// the start time; each next() makes the draws in a fixed order (op roll,
/// keys, then the Poisson gap when enabled), so a seed names one stream.
class RequestSource {
 public:
  RequestSource(const LoadGenConfig& cfg, std::uint64_t t0_ns)
      : cfg_(cfg),
        rng_(cfg.seed),
        keys_(cfg.keyspace, cfg.zipf_theta, cfg.seed ^ 0x5eedULL),
        interval_ns_(1e9 / cfg.rate),
        next_(static_cast<double>(t0_ns)) {}

  /// Scheduled arrival of the next request (ProgressTracker::now_ns base).
  std::uint64_t scheduled() const { return static_cast<std::uint64_t>(next_); }

  /// Draw the next request, stamped with its scheduled arrival, and
  /// advance the schedule.
  Request next() {
    Request req;
    req.arrival_ns = scheduled();
    const double roll = rng_.next_unit();
    double acc = cfg_.mix.put;
    if (roll < acc) {
      req.op = Op::kPut;
      req.key = keys_.next();
      req.value = cfg_.put_value;
    } else if (roll < (acc += cfg_.mix.del)) {
      req.op = Op::kDel;
      req.key = keys_.next();
    } else if (roll < (acc += cfg_.mix.multi_get)) {
      req.op = Op::kMultiGet;
      const std::uint64_t span = cfg_.keyspace > cfg_.multi_fanout
                                     ? cfg_.keyspace - cfg_.multi_fanout
                                     : 1;
      req.key = rng_.next_below(span);  // window start: uniform, not skewed
      req.fanout = cfg_.multi_fanout;
    } else if (roll < (acc += cfg_.mix.scan)) {
      req.op = Op::kScan;
    } else if (roll < (acc += cfg_.mix.transfer)) {
      req.op = Op::kTransfer;
      req.key = keys_.next();
      req.key2 = keys_.next();
      if (req.key2 == req.key) req.key2 = (req.key + 1) % cfg_.keyspace;
      req.value = cfg_.transfer_amount;
    } else {
      req.op = Op::kGet;
      req.key = keys_.next();
    }

    if (cfg_.poisson) {
      // Exponential interarrival: -ln(U) scaled to the mean spacing.
      double u = rng_.next_unit();
      if (u <= 1e-12) u = 1e-12;
      next_ += -std::log(u) * interval_ns_;
    } else {
      next_ += interval_ns_;
    }
    return req;
  }

 private:
  LoadGenConfig cfg_;
  util::Xorshift rng_;
  util::Zipfian keys_;
  double interval_ns_;
  double next_;
};

/// Sleep until `scheduled`; behind schedule, return at once (burst
/// catch-up) — the scheduled stamp keeps the accounting honest.
inline void pace_until(std::uint64_t scheduled) {
  const std::uint64_t now = util::ProgressTracker::now_ns();
  if (scheduled > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(scheduled - now));
  }
}

/// End of a run that starts at `t0_ns` and lasts cfg.duration.
inline std::uint64_t schedule_end(const LoadGenConfig& cfg,
                                  std::uint64_t t0_ns) {
  return t0_ns + static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(
                         cfg.duration)
                         .count());
}

/// Run the open-loop schedule against `svc` from the calling thread.
/// Blocks for ~cfg.duration. The service must be start()ed.
inline LoadGenResult run_open_loop(KvService& svc, const LoadGenConfig& cfg) {
  LoadGenResult res;
  if (cfg.rate <= 0.0 || cfg.keyspace == 0) return res;

  const std::uint64_t t0 = util::ProgressTracker::now_ns();
  const std::uint64_t end = schedule_end(cfg, t0);
  RequestSource src(cfg, t0);
  while (src.scheduled() < end) {
    pace_until(src.scheduled());
    ++res.offered;
    if (svc.submit(src.next())) {
      ++res.accepted;
    } else {
      ++res.shed;
    }
  }
  res.elapsed_ns = util::ProgressTracker::now_ns() - t0;
  return res;
}

}  // namespace zstm::server
