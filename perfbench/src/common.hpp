// Shared pieces of the benchmark: the clock, small statistics helpers, the
// run-wide result record (metrics, operation counts, oracle verdicts) and
// the span tracer used by traced runs.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "util/stats.hpp"

namespace perfbench {

/// Monotonic nanoseconds; the same timebase KvService stamps arrivals with.
inline std::uint64_t now_ns() { return zstm::util::ProgressTracker::now_ns(); }

/// Quantile of an unsorted sample (nearest rank); 0 when empty.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  std::size_t idx = static_cast<std::size_t>(q * static_cast<double>(v.size()));
  if (idx >= v.size()) idx = v.size() - 1;
  return v[idx];
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Deliberate faults the self-test injects into the oracles' inputs, to show
/// that each oracle can fail.
enum class Sabotage { kNone, kDropTransfer, kScanSum };

/// Everything one run reports. `e2e` holds the end-to-end metrics, `layer`
/// the per-layer ones; `checks` counts oracle failures by oracle name.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> e2e;
  std::map<std::string, double> layer;
  std::map<std::string, std::uint64_t> checks;

  void check(bool ok, const char* oracle) {
    if (!ok) ++checks[oracle];
  }
  bool correct() const { return checks.empty(); }
};

// ---------------------------------------------------------------------------
// Span tracing. Spans are kept in per-thread buffers and written out when the
// run ends; nothing is recorded unless tracing was switched on.
// ---------------------------------------------------------------------------
namespace trace {

struct Span {
  const char* name;
  std::uint64_t start;
  std::uint64_t end;
  std::uint64_t id;
  std::uint64_t parent;  ///< 0 = root
  std::uint64_t req;     ///< request id shared by one request's spans
};

/// Spans one thread may keep; later ones are dropped and counted. The KV
/// generator thread keeps every round's spans: per round some 20 phases
/// (at most 50, were every ladder rung retried) of at most 512 marked
/// requests with up to three spans each.
constexpr std::size_t kPerThreadCap = 1 << 20;

struct Buffer {
  std::vector<Span> spans;
  std::uint64_t next_id = 0;
  std::uint64_t tag = 0;
  std::uint64_t dropped = 0;
};

struct Registry {
  std::mutex mu;
  std::vector<std::unique_ptr<Buffer>> buffers;
};

inline Registry& registry() {
  static Registry r;
  return r;
}

inline Buffer& local() {
  thread_local Buffer* buf = nullptr;
  if (buf == nullptr) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.buffers.push_back(std::make_unique<Buffer>());
    buf = r.buffers.back().get();
    buf->tag = static_cast<std::uint64_t>(r.buffers.size()) << 40;
    buf->spans.reserve(1 << 14);
  }
  return *buf;
}

/// A span name with static storage duration (spans outlive their callers).
inline const char* intern(const std::string& name) {
  static std::mutex mu;
  static std::set<std::string> names;
  std::lock_guard<std::mutex> lk(mu);
  return names.insert(name).first->c_str();
}

/// A fresh span id (unique across threads).
inline std::uint64_t new_id() {
  Buffer& b = local();
  return b.tag | ++b.next_id;
}

/// Records one finished span with a caller-chosen id.
inline void record(const char* name, std::uint64_t start, std::uint64_t end,
                   std::uint64_t id, std::uint64_t parent, std::uint64_t req) {
  Buffer& b = local();
  if (b.spans.size() >= kPerThreadCap) {
    ++b.dropped;
    return;
  }
  b.spans.push_back(Span{name, start, end, id, parent, req});
}

/// RAII span around one call into a layer. Inactive (no clock reads) unless
/// `active`.
class Scope {
 public:
  Scope(const char* name, bool active, std::uint64_t parent = 0,
        std::uint64_t req = 0)
      : name_(name), parent_(parent), req_(req) {
    if (active) {
      id_ = new_id();
      start_ = now_ns();
    }
  }
  ~Scope() {
    if (id_ != 0) record(name_, start_, now_ns(), id_, parent_, req_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t req_;
  std::uint64_t id_ = 0;
  std::uint64_t start_ = 0;
};

/// Per span name: the median duration and median self time (duration minus
/// the time its child spans cover) in ns.
struct Summary {
  double p50_ns = 0;
  double self_p50_ns = 0;
};

/// Summarises every kept span by name, writes them all as tab-separated
/// lines to `path` (when non-empty), and reports spans dropped.
std::map<std::string, Summary> finish(const std::string& path,
                                      std::uint64_t* dropped);

}  // namespace trace
}  // namespace perfbench
