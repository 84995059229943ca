// The open-loop KV stream: kv_server's request mix over its 4096 preloaded
// keys, with put/del moved onto a separate churn range, sent at fixed rates
// by the benchmark's own pacer through KvService::submit or over loopback
// TCP to a net::TcpServer. Phases: warm-up, light, heavy, then a fixed ladder
// of rates that stops at the first rate whose get p99 misses the limit or
// that sheds anything. Latency runs from each request's scheduled arrival.
//
// Oracles (from the benchmark's own records): every get / multi_get of a
// preloaded key finds it; churn keys only ever hold 0, so every scan's sum
// is the preload sum and its count lies in [keys, keys + churn]; final
// values equal the preload plus the tally of acknowledged transfers; audit()
// is sorted and its size equals the final scan count; over TCP every
// response's op and request id match a request that was sent.
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "api/stm_api.hpp"
#include "fronts.hpp"
#include "net/kv_client.hpp"
#include "net/tcp_server.hpp"
#include "net/wire.hpp"
#include "pacer.hpp"
#include "server/kv_service.hpp"
#include "server/kv_store.hpp"
#include "util/rng.hpp"
#include "util/zipfian.hpp"

namespace perfbench {
namespace {

using zstm::server::Key;
using zstm::server::Op;
using zstm::server::Value;
namespace wire = zstm::net::wire;

// The stream is kv_server's (server::LoadGenConfig defaults): 4096 keys
// preloaded with 100, Zipfian keys with theta 0.99, multi_get over 16
// consecutive keys from a uniform start, transfers of 1, and the LoadMix
// shares below. Only put and del differ: they go to a churn range of their
// own, Zipfian over it, and put writes 0, so the preloaded keys' sum is an
// invariant every scan can be checked against.
constexpr std::uint64_t kKeys = 4096;
constexpr std::uint64_t kChurn = 256;
constexpr double kTheta = 0.99;
constexpr Value kPreload = 100;
constexpr std::uint32_t kFanout = 16;
constexpr Value kTransferAmount = 1;
constexpr double kLightRate = 2'000;
constexpr double kHeavyRate = 10'000;
constexpr double kLadderBase = 20'000;
constexpr double kLadderStep = 1.25;  ///< coarse rungs, up to 20k x 1.25^16
constexpr int kLadderRungs = 17;
constexpr double kLadderFineStep = 1.05;  ///< between last pass and first fail
constexpr double kP99LimitUs = 10'000;
/// Each round's share of --seconds, per phase; a ladder rung lasts
/// kRungSeconds whatever --seconds is, so that its p99 rests on some
/// hundreds of gets.
constexpr double kLightShare = 0.1 / kKvRounds;
constexpr double kHeavyShare = 0.15 / kKvRounds;
constexpr double kRungSeconds = 0.05;
constexpr double kWarmSeconds = 0.1;
/// A traced phase marks every kTraceEvery-th request, and fewer in a long
/// phase so that no phase marks more than kTracedPerPhase: every phase of
/// every round then contributes spans, within the tracer's per-thread cap.
constexpr std::uint64_t kTraceEvery = 16;
constexpr std::uint64_t kTracedPerPhase = 512;

/// server::LoadMix's defaults; get takes the rest (0.70).
struct Mix {
  double put = 0.15, del = 0.02, multi_get = 0.05, scan = 0.01,
         transfer = 0.07;
};

struct Req {
  Op op = Op::kGet;
  Key key = 0;
  Key key2 = 0;
  Value value = 0;
  std::uint32_t fanout = 0;
};

/// One request's record, filled by whoever completes it.
struct Slot {
  Req req;
  std::uint64_t sched = 0;
  std::uint64_t span = 0;  ///< root span id when traced, else 0
  std::atomic<std::uint64_t> done{0};
  bool shed = false;
  bool ok = false;
  bool error = false;  ///< the front answered with an error status
  Value value = 0;
  std::uint64_t count = 0;
};

/// The stream for one phase: a pure function of (seed, phase). The draws
/// follow server::run_open_loop's order.
std::vector<Req> make_stream(std::uint64_t seed, int phase, std::size_t n) {
  const std::uint64_t s = seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(phase);
  zstm::util::Xorshift rng(s);
  zstm::util::Zipfian keys(kKeys, kTheta, s ^ 0x5eedULL);
  zstm::util::Zipfian churn(kChurn, kTheta, s ^ 0xc4u);
  const Mix mix;
  std::vector<Req> out(n);
  for (Req& r : out) {
    const double roll = rng.next_unit();
    double acc = mix.put;
    if (roll < acc) {
      r.op = Op::kPut;
      r.key = kKeys + churn.next();
      r.value = 0;
    } else if (roll < (acc += mix.del)) {
      r.op = Op::kDel;
      r.key = kKeys + churn.next();
    } else if (roll < (acc += mix.multi_get)) {
      r.op = Op::kMultiGet;
      r.key = rng.next_below(kKeys - kFanout);
      r.fanout = kFanout;
    } else if (roll < (acc += mix.scan)) {
      r.op = Op::kScan;
    } else if (roll < (acc += mix.transfer)) {
      r.op = Op::kTransfer;
      r.key = keys.next();
      r.key2 = keys.next();
      if (r.key2 == r.key) r.key2 = (r.key + 1) % kKeys;
      r.value = kTransferAmount;
    } else {
      r.op = Op::kGet;
      r.key = keys.next();
    }
  }
  return out;
}

const char* store_span_name(Op op) {
  switch (op) {
    case Op::kGet: return "store.get";
    case Op::kPut: return "store.put";
    case Op::kDel: return "store.del";
    case Op::kMultiGet: return "store.multi_get";
    case Op::kScan: return "store.scan";
    case Op::kTransfer: return "store.transfer";
    case Op::kCount: break;
  }
  return "store.?";
}

/// Runs one request on the store from the calling thread.
void execute(zstm::server::KvStore& store, const Req& r, Slot& s) {
  switch (r.op) {
    case Op::kGet: {
      const std::optional<Value> v = store.get(r.key);
      s.ok = v.has_value();
      s.value = v.value_or(0);
      break;
    }
    case Op::kPut:
      store.put(r.key, r.value);
      s.ok = true;
      break;
    case Op::kDel:
      s.ok = store.del(r.key);
      break;
    case Op::kMultiGet:
      s.count = store.multi_get(r.key, r.fanout, nullptr);
      s.ok = true;
      break;
    case Op::kScan: {
      const auto sc = store.scan();
      s.ok = true;
      s.count = sc.count;
      s.value = sc.sum;
      break;
    }
    case Op::kTransfer:
      s.ok = store.transfer(r.key, r.key2, r.value);
      break;
    case Op::kCount:
      break;
  }
}

zstm::server::ServiceConfig kv_service_config() {
  zstm::server::ServiceConfig cfg;
  cfg.variant = "zl";
  cfg.workers = kServiceWorkers;
  return cfg;
}

/// The slots of the phase in flight, as the TCP receivers see them.
struct Table {
  Slot* slots = nullptr;
  std::uint64_t base = 0;
  std::uint64_t size = 0;
};

/// Everything a front needs for the whole KV part of a run.
class Fixture {
 public:
  Fixture(Front front, bool traced) : traced_(traced) {
    svc_ = std::make_unique<zstm::server::KvService>(kv_service_config());
    svc_->preload(0, kKeys, kPreload);
    svc_->start();
    if (front == Front::kTcp) {
      zstm::net::NetConfig nc;
      nc.io_threads = kIoThreads;
      srv_ = std::make_unique<zstm::net::TcpServer>(*svc_, nc);
      if (!srv_->start()) return;
      for (int i = 0; i < kTcpConns; ++i) {
        const int fd = zstm::net::connect_tcp("127.0.0.1", srv_->port());
        if (fd < 0) return;
        fds_.push_back(fd);
      }
      for (const int fd : fds_) {
        receivers_.emplace_back([this, fd] { receive(fd); });
      }
    }
    ok_ = true;
  }

  ~Fixture() { shutdown(); }
  Fixture(const Fixture&) = delete;
  Fixture& operator=(const Fixture&) = delete;

  bool ok() const { return ok_; }

  zstm::server::KvStore& store() { return svc_->store(); }
  zstm::api::AnyStm& stm() { return svc_->stm(); }
  zstm::server::KvService& service() { return *svc_; }
  zstm::net::TcpServer* tcp() { return srv_.get(); }

  void set_table(Table* t) { table_.store(t, std::memory_order_release); }

  /// Sends slot `i` of `t` through `via` (the fixture's own front, or
  /// kService to bypass TCP). False = shed / not sent.
  bool send(Front via, Table& t, std::uint64_t i) {
    Slot& s = t.slots[i];
    const bool sampled = s.span != 0;
    switch (via) {
      case Front::kService: {
        zstm::server::Request r;
        r.op = s.req.op;
        r.key = s.req.key;
        r.key2 = s.req.key2;
        r.value = s.req.value;
        r.fanout = s.req.fanout;
        r.arrival_ns = s.sched;
        Slot* sp = &s;
        r.on_done = [sp](const zstm::server::Response& resp) {
          sp->ok = resp.ok;
          sp->value = resp.value;
          sp->count = resp.count;
          sp->done.store(now_ns(), std::memory_order_release);
        };
        trace::Scope span("server.submit", sampled, s.span, t.base + i);
        return svc_->submit(std::move(r));
      }
      case Front::kTcp: {
        wire::Request w;
        w.op = static_cast<wire::Op>(s.req.op);
        w.req_id = t.base + i;
        w.key = s.req.key;
        w.key2 = s.req.key2;
        w.value = s.req.value;
        w.fanout = s.req.fanout;
        std::uint8_t buf[wire::kReqFrame];
        std::size_t len;
        {
          trace::Scope span("wire.encode", sampled, s.span, w.req_id);
          len = wire::encode_request(w, buf);
        }
        trace::Scope span("net.send", sampled, s.span, w.req_id);
        return send_all(fds_[i % fds_.size()], buf, len);
      }
    }
    return false;
  }

  /// Responses whose id or op matched no request sent.
  std::uint64_t unmatched() const {
    return unmatched_.load(std::memory_order_relaxed);
  }

  /// Stops TCP and the service (draining every accepted request).
  void shutdown() {
    if (srv_ != nullptr) {
      for (const int fd : fds_) ::shutdown(fd, SHUT_RDWR);
      for (auto& t : receivers_) t.join();
      receivers_.clear();
      for (const int fd : fds_) ::close(fd);
      fds_.clear();
      srv_->stop();
    }
    svc_->stop();
  }

 private:
  static bool send_all(int fd, const std::uint8_t* p, std::size_t len) {
    while (len > 0) {
      const ssize_t n = ::send(fd, p, len, MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      p += n;
      len -= static_cast<std::size_t>(n);
    }
    return true;
  }

  void receive(int fd) {
    std::vector<std::uint8_t> buf;
    std::size_t off = 0;
    for (;;) {
      wire::Response resp;
      std::size_t consumed = 0;
      const std::uint64_t t0 = traced_ ? now_ns() : 0;
      const wire::Decode d = wire::decode_response(
          buf.data() + off, buf.size() - off, &resp, &consumed);
      if (d == wire::Decode::kFrame) {
        const std::uint64_t t1 = traced_ ? now_ns() : 0;
        off += consumed;
        if (off == buf.size()) {
          buf.clear();
          off = 0;
        }
        Table* t = table_.load(std::memory_order_acquire);
        if (t == nullptr || resp.req_id < t->base ||
            resp.req_id >= t->base + t->size) {
          unmatched_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        Slot& s = t->slots[resp.req_id - t->base];
        if (static_cast<Op>(resp.op) != s.req.op ||
            s.done.load(std::memory_order_relaxed) != 0) {
          unmatched_.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (s.span != 0) {
          trace::record("wire.decode", t0, t1, trace::new_id(), s.span,
                        resp.req_id);
        }
        s.shed = resp.status == wire::Status::kShed;
        s.error = resp.status == wire::Status::kError;
        s.ok = resp.status == wire::Status::kOk;
        s.value = resp.value;
        s.count = resp.count;
        s.done.store(now_ns(), std::memory_order_release);
        continue;
      }
      if (d == wire::Decode::kBad) {
        unmatched_.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      const std::size_t old = buf.size();
      buf.resize(old + 4096);
      ssize_t n;
      do {
        n = ::recv(fd, buf.data() + old, 4096, 0);
      } while (n < 0 && errno == EINTR);
      if (n <= 0) return;
      buf.resize(old + static_cast<std::size_t>(n));
    }
  }

  bool traced_;
  bool ok_ = false;
  std::unique_ptr<zstm::server::KvService> svc_;
  std::unique_ptr<zstm::net::TcpServer> srv_;
  std::vector<int> fds_;
  std::atomic<Table*> table_{nullptr};
  std::atomic<std::uint64_t> unmatched_{0};
  std::vector<std::thread> receivers_;
};

/// The oracles' running state across phases.
struct Oracle {
  Sabotage sabotage = Sabotage::kNone;
  std::vector<long> tally = std::vector<long>(kKeys, 0);
  bool dropped = false;
  bool perturbed = false;

  /// Checks one completed request and folds acknowledged transfers in.
  void observe(const Slot& s, Report& out) {
    out.check(!s.error, "kv.status");
    switch (s.req.op) {
      case Op::kGet:
        out.check(s.ok, "kv.get_found");
        break;
      case Op::kMultiGet:
        out.check(s.count == s.req.fanout, "kv.multi_get_found");
        break;
      case Op::kPut:
        out.check(s.ok, "kv.put_ack");
        break;
      case Op::kTransfer:
        out.check(s.ok, "kv.transfer_ack");
        if (!s.ok) break;
        if (sabotage == Sabotage::kDropTransfer && !dropped) {
          dropped = true;
          break;
        }
        tally[s.req.key] -= s.req.value;
        tally[s.req.key2] += s.req.value;
        break;
      case Op::kScan: {
        Value sum = s.value;
        if (sabotage == Sabotage::kScanSum && !perturbed) {
          sum += 1;
          perturbed = true;
        }
        out.check(sum == static_cast<Value>(kKeys) * kPreload, "kv.scan_sum");
        out.check(s.count >= kKeys && s.count <= kKeys + kChurn,
                  "kv.scan_count");
        break;
      }
      case Op::kDel:
      case Op::kCount:
        break;
    }
  }

  void final_state(zstm::server::KvStore& store, Report& out) {
    bool values_ok = true;
    for (Key k = 0; k < kKeys; ++k) {
      const std::optional<Value> v = store.get(k);
      values_ok = values_ok && v.has_value() && *v == kPreload + tally[k];
    }
    out.check(values_ok, "kv.final_values");
    bool churn_ok = true;
    for (Key k = kKeys; k < kKeys + kChurn; ++k) {
      const std::optional<Value> v = store.get(k);
      churn_ok = churn_ok && (!v.has_value() || *v == 0);
    }
    out.check(churn_ok, "kv.churn_values");
    const auto sc = store.scan();
    const auto audit = store.audit();
    out.check(audit.sorted && audit.size == sc.count, "kv.audit");
    out.check(sc.sum == static_cast<Value>(kKeys) * kPreload, "kv.scan_sum");
  }
};

struct PhaseStats {
  std::vector<double> get_us, update_us, scan_us, lateness_us;
  /// Get latency from the moment the pacer sent the request, so without
  /// the pacer's own lateness.
  std::vector<double> get_sent_us;
  std::uint64_t n = 0, shed = 0, lost = 0;
  double achieved_rps = 0;
};

/// One slot per request of a phase.
std::unique_ptr<Slot[]> make_slots(const std::vector<Req>& reqs) {
  std::unique_ptr<Slot[]> slots(new Slot[reqs.size()]);
  for (std::size_t i = 0; i < reqs.size(); ++i) slots[i].req = reqs[i];
  return slots;
}

/// Runs one fixed-rate phase through `via` and checks every response.
PhaseStats run_phase(Fixture& fx, Front via, double rate, double seconds,
                     std::uint64_t seed, int phase, std::uint64_t* next_id,
                     bool traced, Oracle& oracle, Report& out) {
  const auto n = static_cast<std::size_t>(std::max(1.0, rate * seconds));
  const std::vector<Req> reqs = make_stream(seed, phase, n);
  std::unique_ptr<Slot[]> slots = make_slots(reqs);
  Table table{slots.get(), *next_id, n};
  *next_id += n;
  fx.set_table(&table);

  PhaseStats st;
  st.n = n;
  st.lateness_us.reserve(n);
  const double interval = 1e9 / rate;
  const std::uint64_t trace_stride =
      std::max(kTraceEvery, (n + kTracedPerPhase - 1) / kTracedPerPhase);
  {
    Pacer pacer;
    const std::uint64_t t0 = now_ns() + 1'000'000;
    for (std::size_t i = 0; i < n; ++i) {
      Slot& s = slots[i];
      s.sched = t0 + static_cast<std::uint64_t>(interval * static_cast<double>(i));
      const std::uint64_t late = Pacer::wait_until(s.sched);
      st.lateness_us.push_back(static_cast<double>(late) / 1e3);
      if (traced && i % trace_stride == 0) s.span = trace::new_id();
      if (!fx.send(via, table, i)) s.shed = true;
    }
  }

  // Wait for every request that went out (bounded: a lost response is a
  // failed operation, not a hang).
  const std::uint64_t deadline = now_ns() + 20'000'000'000ULL;
  for (std::size_t i = 0; i < n; ++i) {
    Slot& s = slots[i];
    if (s.shed) continue;
    while (s.done.load(std::memory_order_acquire) == 0 && now_ns() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }
  fx.set_table(nullptr);

  std::uint64_t first = ~0ULL, last = 0;
  for (std::size_t i = 0; i < n; ++i) {
    Slot& s = slots[i];
    const std::uint64_t done = s.done.load(std::memory_order_acquire);
    if (s.shed || done == 0) {
      if (s.shed) ++st.shed;
      if (!s.shed) ++st.lost;
      continue;
    }
    if (s.span != 0) {
      trace::record("kv.request", s.sched, done, s.span, 0, table.base + i);
    }
    first = std::min(first, s.sched);
    last = std::max(last, done);
    const double us = static_cast<double>(done - s.sched) / 1e3;
    switch (s.req.op) {
      case Op::kGet:
        st.get_us.push_back(us);
        st.get_sent_us.push_back(us - st.lateness_us[i]);
        break;
      case Op::kPut:
      case Op::kTransfer: st.update_us.push_back(us); break;
      case Op::kScan: st.scan_us.push_back(us); break;
      default: break;
    }
    oracle.observe(s, out);
  }
  if (last > first) {
    st.achieved_rps = static_cast<double>(n - st.shed - st.lost) * 1e9 /
                      static_cast<double>(last - first);
  }
  return st;
}

/// Closed-loop direct KvStore calls over the heavy stream: the store layer's
/// own cost per verb, without queueing.
void store_probe(std::uint64_t seed, Report& out) {
  zstm::api::AnyStm stm = zstm::api::AnyStm::make(
      "zl", zstm::server::ServiceConfig::default_stm_config());
  const auto cfg = kv_service_config();
  zstm::server::KvStore store(stm, cfg.buckets, cfg.multi_get_long_threshold);
  for (Key k = 0; k < kKeys; ++k) store.put(k, kPreload);
  const std::vector<Req> reqs = make_stream(seed, 99, 20'000);
  std::vector<double> get, update, multi, scan;
  for (const Req& r : reqs) {
    Slot s;
    s.req = r;
    const std::uint64_t t0 = now_ns();
    {
      trace::Scope span(store_span_name(r.op), true);
      execute(store, r, s);
    }
    const double us = static_cast<double>(now_ns() - t0) / 1e3;
    switch (r.op) {
      case Op::kGet: get.push_back(us); break;
      case Op::kPut:
      case Op::kTransfer: update.push_back(us); break;
      case Op::kMultiGet: multi.push_back(us); break;
      case Op::kScan: scan.push_back(us); break;
      default: break;
    }
  }
  out.layer["store.get_us"] = median(get);
  out.layer["store.update_us"] = median(update);
  out.layer["store.multi_get_us"] = median(multi);
  out.layer["store.scan_us"] = median(scan);
}

}  // namespace

void warm_up_kv(const RunParams& p) {
  RunParams quiet = p;
  quiet.traced = false;
  quiet.sabotage = Sabotage::kNone;
  KvPart kv(quiet);
  Report scratch;
  kv.round(0, scratch);
}

double kv_setup_probe(Front front) {
  const std::uint64_t t0 = now_ns();
  {
    Fixture fx(front, false);
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

struct KvPart::Acc {
  std::uint64_t next_id = 1;
  int phase = 0;
  std::vector<double> light_p50, heavy_p50, heavy_p99, update_p50, scan_p50,
      max_rates, light_late, heavy_late, ladder_late_p50, ladder_late_p99, hops;
  double serial_entries = 0, kv_window_s = 0, max_attempts = 0, rungs = 0,
         ladder_shed = 0, generator_bound = 0, net_requests = 0, net_shed = 0;
};

KvPart::KvPart(const RunParams& p) : p_(p), acc_(std::make_unique<Acc>()) {}

KvPart::~KvPart() = default;

void KvPart::round(int round, Report& out) {
  const RunParams& p = p_;
  Acc& a = *acc_;
  std::uint64_t& next_id = a.next_id;
  int& phase = a.phase;
  Fixture fx(p.front, p.traced);
  if (!fx.ok()) {
    out.check(false, "kv.fixture");
    return;
  }
  Oracle oracle;
  oracle.sabotage = p.sabotage;
  auto run = [&](Front via, double rate, double secs) {
    const PhaseStats st = run_phase(fx, via, rate, secs, p.seed, phase++,
                                    &next_id, p.traced, oracle, out);
    out.attempted += st.n - st.shed;
    out.failed += st.lost;
    return st;
  };
  auto unshed = [&](const PhaseStats& st) {
    // Outside the ladder a shed request is a failed operation.
    out.attempted += st.shed;
    out.failed += st.shed;
  };

  if (p.traced && p.front == Front::kTcp && round == 0) {
    // Ping round trips on an idle server: the wire and event loop alone.
    zstm::net::KvClient client;
    std::vector<double> rtt;
    if (client.connect("127.0.0.1", fx.tcp()->port())) {
      for (int i = 0; i < 2000; ++i) {
        const std::uint64_t t0 = now_ns();
        trace::Scope span("client.ping", true);
        const bool ok = client.ping(i);
        rtt.push_back(static_cast<double>(now_ns() - t0) / 1e3);
        out.check(ok, "net.ping");
      }
    }
    out.layer["net.ping_rtt_us"] = median(rtt);
  }

  unshed(run(p.front, kHeavyRate, kWarmSeconds));
  const zstm::util::ProgressTracker::Snapshot prog0 = fx.stm().progress();
  const std::uint64_t kv_t0 = now_ns();

  double inproc_get_p50 = 0;
  if (p.traced && p.front == Front::kTcp) {
    // The same light phase without the wire, for the network hop's cost.
    const PhaseStats inproc = run(Front::kService, kLightRate, p.seconds * kLightShare);
    unshed(inproc);
    inproc_get_p50 = median(inproc.get_us);
  }
  const PhaseStats light = run(p.front, kLightRate, p.seconds * kLightShare);
  unshed(light);
  if (inproc_get_p50 > 0) a.hops.push_back(median(light.get_us) - inproc_get_p50);
  const PhaseStats heavy = run(p.front, kHeavyRate, p.seconds * kHeavyShare);
  unshed(heavy);

  double max_rate = 0, late_p50 = 0, late_p99 = 0;
  auto attempt = [&](double rate) {
    const PhaseStats st = run(p.front, rate, kRungSeconds);
    // A rung's shed requests are its verdict, not failed operations.
    a.ladder_shed += static_cast<double>(st.shed);
    const bool service_ok = st.shed == 0 && st.lost == 0 &&
                            quantile(st.get_sent_us, 0.99) <= kP99LimitUs;
    const bool pass = service_ok && quantile(st.get_us, 0.99) <= kP99LimitUs;
    if (pass) {
      max_rate = st.achieved_rps;
      late_p50 = median(st.lateness_us);
      late_p99 = quantile(st.lateness_us, 0.99);
      a.rungs += 1;
    } else if (service_ok) {
      // The service met the limit on what it was sent; the pacer's own
      // lateness broke it, so this rung measures the benchmark.
      a.generator_bound += 1;
    }
    return pass;
  };
  // A rung that misses is run once more before the ladder stops on it: a
  // single host stall of 10 ms or more fails a 50 ms rung on its own.
  auto rung = [&](double rate) { return attempt(rate) || attempt(rate); };
  // Coarse rungs up to the first failure, then fine rungs from the last
  // coarse pass towards it.
  double passed = 0, failed_at = 0;
  for (int i = 0; i < kLadderRungs; ++i) {
    const double rate = kLadderBase * std::pow(kLadderStep, i);
    if (!rung(rate)) {
      failed_at = rate;
      break;
    }
    passed = rate;
  }
  if (passed > 0 && failed_at > 0) {
    for (double rate = passed * kLadderFineStep; rate < failed_at * 0.999;
         rate *= kLadderFineStep) {
      if (!rung(rate)) break;
    }
  }
  a.kv_window_s += static_cast<double>(now_ns() - kv_t0) / 1e9;

  a.light_p50.push_back(median(light.get_us));
  a.heavy_p50.push_back(median(heavy.get_us));
  a.heavy_p99.push_back(quantile(heavy.get_us, 0.99));
  a.update_p50.push_back(median(heavy.update_us));
  a.scan_p50.push_back(median(heavy.scan_us));
  a.max_rates.push_back(max_rate);
  a.ladder_late_p50.push_back(late_p50);
  a.ladder_late_p99.push_back(late_p99);
  a.light_late.insert(a.light_late.end(), light.lateness_us.begin(),
                    light.lateness_us.end());
  a.heavy_late.insert(a.heavy_late.end(), heavy.lateness_us.begin(),
                    heavy.lateness_us.end());

  zstm::util::ProgressTracker::Snapshot prog1;
  {
    trace::Scope span("api.progress", p.traced);
    prog1 = fx.stm().progress();
  }
  a.serial_entries +=
      static_cast<double>(prog1.serial_entries - prog0.serial_entries);
  a.max_attempts = std::max<double>(a.max_attempts, prog1.max_attempts);

  if (p.front == Front::kTcp) {
    zstm::net::NetStats ns;
    {
      trace::Scope span("net.stats", p.traced);
      ns = fx.tcp()->stats();
    }
    a.net_requests += static_cast<double>(ns.requests);
    a.net_shed += static_cast<double>(ns.shed_backpressure);
    out.check(fx.unmatched() == 0, "net.response_ids");
  }
  fx.shutdown();
  {
    trace::Scope span("server.metrics", p.traced);
    const zstm::server::ServiceMetrics m = fx.service().metrics();
    out.check(m.accepted == m.completed, "server.drained");
  }
  oracle.final_state(fx.store(), out);
}

void KvPart::report(Report& out) const {
  const RunParams& p = p_;
  const Acc& a = *acc_;
  // Each figure is the median of the rounds' figures.
  out.layer["kv.get_p50_us.light"] = median(a.light_p50);
  out.layer["kv.get_p50_us.heavy"] = median(a.heavy_p50);
  out.layer["kv.get_p99_us.heavy"] = median(a.heavy_p99);
  out.layer["kv.update_p50_us.heavy"] = median(a.update_p50);
  out.layer["kv.scan_p50_us.heavy"] = median(a.scan_p50);
  out.layer["kv.max_rate_rps"] = median(a.max_rates);

  out.layer["gen.lateness_p50_us.light"] = median(a.light_late);
  out.layer["gen.lateness_p99_us.light"] = quantile(a.light_late, 0.99);
  out.layer["gen.lateness_p50_us.heavy"] = median(a.heavy_late);
  out.layer["gen.lateness_p99_us.heavy"] = quantile(a.heavy_late, 0.99);
  out.layer["gen.lateness_p50_us.ladder"] = median(a.ladder_late_p50);
  out.layer["gen.lateness_p99_us.ladder"] = median(a.ladder_late_p99);
  out.layer["gen.bound_rungs"] = a.generator_bound;
  out.layer["kv.ladder_rungs_passed"] = a.rungs / kKvRounds;
  out.layer["server.shed.ladder"] = a.ladder_shed;
  out.layer["api.serial_entries_per_s.kv"] = a.serial_entries / a.kv_window_s;
  out.layer["api.max_attempts.kv"] = a.max_attempts;
  if (p.front == Front::kTcp) {
    out.layer["net.requests"] = a.net_requests;
    out.layer["net.shed_backpressure"] = a.net_shed;
  }
  if (!a.hops.empty()) out.layer["net.hop_us"] = median(a.hops);
  if (p.traced) {
    store_probe(p.seed, out);
    out.layer["server.wait_us.light"] =
        out.layer["kv.get_p50_us.light"] - out.layer["store.get_us"];
  }
}

}  // namespace perfbench
