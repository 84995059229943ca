// The paper's §5.5 bank, closed loop, once per runtime module: 4 threads on
// api::Stm<R> (transfer = kUpdate, Compute-Total = kLong over all accounts).
// Thread 0 runs Compute-Total with probability 0.2; everything else is a
// transfer.
//
// Oracles (computed from the benchmark's own records, not the program's):
// every committed Compute-Total equals accounts x initial balance; the final
// balances equal the initial ones plus the per-thread tallies of the
// transfers the program acknowledged.
#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "api/stm_api.hpp"
#include "fronts.hpp"
#include "server/kv_service.hpp"
#include "util/align.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using zstm::api::TxKind;

constexpr long kTotal = static_cast<long>(kAccounts) * kInitialBalance;
constexpr int kSubWindows = 10;

/// Per-thread progress, written by its owner only and sampled by the main
/// thread at sub-window boundaries.
struct ThreadCounters {
  std::atomic<std::uint64_t> transfers{0};
  std::atomic<std::uint64_t> totals{0};
  std::atomic<std::uint64_t> transfer_attempts{0};
  std::atomic<std::uint64_t> total_attempts{0};
  std::atomic<std::uint64_t> total_started_ns{0};  ///< 0 = not in one
};

struct TotalResult {
  bool committed = false;
  long sum = 0;
  std::uint32_t attempts = 0;
};

/// What one variant's closed loop produced.
struct LoopResult {
  std::vector<double> transfer_rates;  ///< per sub-window, tx/s
  double window_s = 0;
  std::uint64_t transfers = 0;
  std::uint64_t totals = 0;
  std::uint64_t transfer_attempts = 0;
  std::uint64_t total_attempts = 0;
  std::uint64_t late_totals = 0;  ///< Compute-Totals open at window close
  std::vector<long> tally;        ///< acknowledged balance deltas
  std::uint64_t bad_totals = 0;
  std::uint64_t failed = 0;  ///< operations the program did not perform
};

/// The closed loop: `ops.transfer(t, from, to, amt, &attempts)` returns
/// nullopt when the program did not perform the request, else whether it
/// committed; `ops.total(t)` runs one Compute-Total episode.
template <typename Ops>
LoopResult drive(Ops& ops, int threads, std::uint64_t seed, double warm_s,
                 double window_s, const RunParams& p,
                 const std::function<void()>& at_window_start) {
  std::vector<zstm::util::Padded<ThreadCounters>> counters(
      static_cast<std::size_t>(threads));
  std::vector<std::vector<long>> tallies(static_cast<std::size_t>(threads),
                                         std::vector<long>(kAccounts, 0));
  std::vector<std::uint64_t> bad(static_cast<std::size_t>(threads), 0);
  std::vector<std::uint64_t> failed(static_cast<std::size_t>(threads), 0);
  std::atomic<bool> stop{false};

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      zstm::util::Xorshift rng(seed * 7919 + static_cast<std::uint64_t>(t));
      ThreadCounters& c = counters[static_cast<std::size_t>(t)].value;
      std::vector<long>& tally = tallies[static_cast<std::size_t>(t)];
      bool dropped_one = false;
      bool perturbed_one = false;
      while (!stop.load(std::memory_order_acquire)) {
        if (t == 0 && rng.chance(kComputeTotalShare)) {
          c.total_started_ns.store(now_ns(), std::memory_order_relaxed);
          TotalResult r = ops.total(t);
          c.total_started_ns.store(0, std::memory_order_relaxed);
          if (!r.committed) {
            ++failed[0];
            continue;
          }
          if (p.sabotage == Sabotage::kScanSum && !perturbed_one) {
            r.sum += 1;
            perturbed_one = true;
          }
          if (r.sum != kTotal) ++bad[0];
          c.total_attempts.store(c.total_attempts.load(std::memory_order_relaxed) +
                                     r.attempts,
                                 std::memory_order_relaxed);
          c.totals.store(c.totals.load(std::memory_order_relaxed) + 1,
                         std::memory_order_relaxed);
        } else {
          const auto from = static_cast<std::size_t>(rng.next_below(kAccounts));
          auto to = static_cast<std::size_t>(rng.next_below(kAccounts));
          if (to == from) to = (to + 1) % kAccounts;
          const long amount = 1 + static_cast<long>(rng.next_below(90));
          std::uint32_t attempts = 0;
          if (!ops.transfer(t, from, to, amount, &attempts)) {
            ++failed[static_cast<std::size_t>(t)];
            continue;
          }
          if (p.sabotage == Sabotage::kDropTransfer && !dropped_one && t == 0) {
            dropped_one = true;
          } else {
            tally[from] -= amount;
            tally[to] += amount;
          }
          c.transfer_attempts.store(
              c.transfer_attempts.load(std::memory_order_relaxed) + attempts,
              std::memory_order_relaxed);
          c.transfers.store(c.transfers.load(std::memory_order_relaxed) + 1,
                            std::memory_order_relaxed);
        }
      }
    });
  }

  auto sample = [&](std::uint64_t* tr, std::uint64_t* ct, std::uint64_t* tra,
                    std::uint64_t* cta) {
    *tr = *ct = *tra = *cta = 0;
    for (const auto& pc : counters) {
      *tr += pc.value.transfers.load(std::memory_order_relaxed);
      *ct += pc.value.totals.load(std::memory_order_relaxed);
      *tra += pc.value.transfer_attempts.load(std::memory_order_relaxed);
      *cta += pc.value.total_attempts.load(std::memory_order_relaxed);
    }
  };

  LoopResult res;
  std::this_thread::sleep_for(std::chrono::duration<double>(warm_s));
  if (at_window_start) at_window_start();
  std::uint64_t tr0, ct0, tra0, cta0;
  sample(&tr0, &ct0, &tra0, &cta0);
  const std::uint64_t t_begin = now_ns();
  std::uint64_t prev_t = t_begin, prev_tr = tr0;
  std::uint64_t tr = tr0, ct = ct0, tra = tra0, cta = cta0;
  for (int w = 1; w <= kSubWindows; ++w) {
    const std::uint64_t target =
        t_begin + static_cast<std::uint64_t>(window_s * 1e9 * w / kSubWindows);
    const std::uint64_t now = now_ns();
    if (target > now) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(target - now));
    }
    sample(&tr, &ct, &tra, &cta);
    const std::uint64_t t = now_ns();
    const double dt = static_cast<double>(t - prev_t) / 1e9;
    res.transfer_rates.push_back(static_cast<double>(tr - prev_tr) / dt);
    prev_t = t;
    prev_tr = tr;
  }
  res.window_s = static_cast<double>(prev_t - t_begin) / 1e9;
  res.transfers = tr - tr0;
  res.totals = ct - ct0;
  res.transfer_attempts = tra - tra0;
  res.total_attempts = cta - cta0;
  if (counters[0].value.total_started_ns.load(std::memory_order_relaxed) != 0) {
    res.late_totals = 1;
  }
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();

  res.tally.assign(kAccounts, 0);
  for (int t = 0; t < threads; ++t) {
    for (int a = 0; a < kAccounts; ++a) {
      res.tally[static_cast<std::size_t>(a)] +=
          tallies[static_cast<std::size_t>(t)][static_cast<std::size_t>(a)];
    }
    res.bad_totals += bad[static_cast<std::size_t>(t)];
    res.failed += failed[static_cast<std::size_t>(t)];
  }
  return res;
}

}  // namespace

/// One variant's results over every round of a run.
struct VariantAgg {
  std::vector<double> transfer_rates;  ///< per round: median sub-window rate
  std::vector<double> total_rates;     ///< per round: Compute-Totals / window
  double window_s = 0;
  std::uint64_t transfers = 0;
  std::uint64_t totals = 0;
  std::uint64_t transfer_attempts = 0;
  std::uint64_t total_attempts = 0;
  std::uint64_t late_totals = 0;
  std::uint64_t serial_entries = 0;
  zstm::util::StatsSnapshot stm;  ///< counter deltas over the windows

  void add(const LoopResult& r, const zstm::util::StatsSnapshot& s0,
           const zstm::util::StatsSnapshot& s1, std::uint64_t serial0,
           std::uint64_t serial1, Report& out) {
    transfer_rates.push_back(median(r.transfer_rates));
    if (r.window_s > 0) {
      total_rates.push_back(static_cast<double>(r.totals) / r.window_s);
    }
    window_s += r.window_s;
    transfers += r.transfers;
    totals += r.totals;
    transfer_attempts += r.transfer_attempts;
    total_attempts += r.total_attempts;
    late_totals += r.late_totals;
    serial_entries += serial1 - serial0;
    for (std::size_t i = 0; i < stm.totals.size(); ++i) {
      stm.totals[i] += s1.totals[i] - s0.totals[i];
    }
    out.attempted += r.transfers + r.totals + r.failed;
    out.failed += r.failed;
    out.check(r.bad_totals == 0, "bank.compute_total_sum");
  }

  /// The median over rounds. Within a round, transfers are the median
  /// sub-window rate (robust to a host stall) and Compute-Totals the whole
  /// window's rate (a sub-window holds too few of them on the runtimes that
  /// serialize them).
  void report(const std::string& v, Report& out) const {
    using zstm::util::Counter;
    if (starves(v)) {
      out.layer["stm.transfer_per_s." + v] = median(transfer_rates);
    } else {
      out.e2e["transfer_per_s." + v] = median(transfer_rates);
      if (serial_bound(v)) {
        out.layer["stm.compute_total_per_s." + v] = median(total_rates);
      } else {
        out.e2e["compute_total_per_s." + v] = median(total_rates);
      }
    }
    if (transfers > 0) {
      out.layer["api.attempts_per_transfer." + v] =
          static_cast<double>(transfer_attempts) / static_cast<double>(transfers);
    }
    if (totals > 0) {
      out.layer["api.attempts_per_compute_total." + v] =
          static_cast<double>(total_attempts) / static_cast<double>(totals);
    }
    if (v == "sstm") {
      out.layer["api.late_compute_totals.sstm"] = static_cast<double>(late_totals);
    }
    const double commits = std::max<double>(1.0, static_cast<double>(stm[Counter::kCommits]));
    auto per_commit = [&](Counter c) {
      return static_cast<double>(stm[c]) / commits;
    };
    out.layer["stm.aborts_per_commit." + v] = per_commit(Counter::kAborts);
    out.layer["stm.validation_fails_per_commit." + v] =
        per_commit(Counter::kValidationFails);
    out.layer["stm.extensions_per_commit." + v] = per_commit(Counter::kExtensions);
    if (v == "zl") {
      out.layer["stm.zone_conflicts_per_commit.zl"] =
          per_commit(Counter::kZoneConflicts);
    }
    out.layer["cm.waits_per_commit." + v] = per_commit(Counter::kCmWaits);
    out.layer["cm.kills_per_commit." + v] = per_commit(Counter::kCmKills);
    out.layer["object.pool_misses_per_commit." + v] =
        per_commit(Counter::kPoolMisses);
    if (window_s > 0) {
      out.layer["api.serial_entries_per_s." + v] =
          static_cast<double>(serial_entries) / window_s;
    }
  }
};

namespace {

void check_balances(const std::vector<long>& tally,
                    const std::vector<long>& finals, Report& out) {
  bool ok = finals.size() == tally.size();
  for (std::size_t a = 0; ok && a < finals.size(); ++a) {
    ok = finals[a] == kInitialBalance + tally[a];
  }
  out.check(ok, "bank.final_balances");
}

template <typename S>
struct DirectBank {
  S stm;
  std::vector<typename S::template Var<long>> accounts;
  std::vector<zstm::util::Padded<std::uint64_t>> calls;  // span sampling
  bool traced;
  const char* transfer_span;
  const char* total_span;

  DirectBank(zstm::api::CommonConfig cfg, bool tr, const std::string& v)
      : stm(cfg),
        calls(kBankThreadsDirect + 1),
        traced(tr),
        transfer_span(trace::intern("api.run.transfer." + v)),
        total_span(trace::intern("api.run.compute_total." + v)) {
    accounts.reserve(kAccounts);
    for (int i = 0; i < kAccounts; ++i) {
      accounts.push_back(stm.make_var(kInitialBalance));
    }
  }

  bool sampled(int t) {
    return traced && (++calls[static_cast<std::size_t>(t)].value % 64) == 0;
  }

  bool transfer(int t, std::size_t from, std::size_t to, long amount,
                std::uint32_t* attempts) {
    trace::Scope span(transfer_span, sampled(t));
    const zstm::api::RunResult r = stm.run(TxKind::kUpdate, [&](auto& tx) {
      tx.write(accounts[from]) -= amount;
      tx.write(accounts[to]) += amount;
    });
    *attempts = r.attempts;
    return r.committed;
  }

  TotalResult total(int t) {
    trace::Scope span(total_span, traced && t == 0);
    TotalResult out;
    const zstm::api::RunResult r = stm.run(TxKind::kLong, [&](auto& tx) {
      long sum = 0;
      for (auto& acc : accounts) sum += tx.read(acc);
      out.sum = sum;
    });
    out.committed = r.committed;
    out.attempts = r.attempts;
    return out;
  }

  std::vector<long> balances() {
    std::vector<long> b(kAccounts, 0);
    stm.run(TxKind::kReadOnly, [&](auto& tx) {
      for (int i = 0; i < kAccounts; ++i) {
        b[static_cast<std::size_t>(i)] = tx.read(accounts[static_cast<std::size_t>(i)]);
      }
    });
    return b;
  }
};

/// Each round of each variant draws its own transfer stream from the seed.
std::uint64_t round_seed(const RunParams& p, const std::string& v, int round) {
  std::uint64_t h = p.seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(round);
  for (const char c : v) h = h * 131 + static_cast<unsigned char>(c);
  return h;
}

zstm::api::CommonConfig bank_stm_config() {
  return zstm::server::ServiceConfig::default_stm_config();
}

void run_direct_variant(const std::string& v, const RunParams& p, int round,
                        double warm_s, double window_s, VariantAgg& agg,
                        Report& out) {
  zstm::api::visit_variant(
      v, bank_stm_config(),
      [&](auto tag, const char*, const zstm::api::CommonConfig& cfg) {
        using S = typename decltype(tag)::type;
        DirectBank<S> bank(cfg, p.traced, v);
        zstm::util::StatsSnapshot s0;
        std::uint64_t serial0 = 0;
        auto start = [&] {
          trace::Scope a("api.stats", p.traced);
          s0 = bank.stm.stats();
          trace::Scope b("api.progress", p.traced);
          serial0 = bank.stm.progress().serial_entries;
        };
        const LoopResult r =
            drive(bank, kBankThreadsDirect, round_seed(p, v, round), warm_s,
                  window_s, p, start);
        zstm::util::StatsSnapshot s1;
        std::uint64_t serial1 = 0;
        {
          trace::Scope a("api.stats", p.traced);
          s1 = bank.stm.stats();
        }
        {
          trace::Scope b("api.progress", p.traced);
          serial1 = bank.stm.progress().serial_entries;
        }
        agg.add(r, s0, s1, serial0, serial1, out);
        check_balances(r.tally, bank.balances(), out);
      });
}

}  // namespace

double bank_setup_probe() {
  const std::uint64_t t0 = now_ns();
  for (const char* v : bank_variants()) {
    zstm::api::visit_variant(
        v, bank_stm_config(),
        [&](auto tag, const char*, const zstm::api::CommonConfig& cfg) {
          using S = typename decltype(tag)::type;
          DirectBank<S> bank(cfg, false, v);
        });
  }
  return static_cast<double>(now_ns() - t0) / 1e9;
}

void warm_up_host() {
  // The first second or so of a fresh process runs the bank at a quarter of
  // its steady rate; burn it off before any timed window.
  RunParams p;
  VariantAgg agg;
  Report scratch;
  run_direct_variant("zl", p, 0, 1.0, 0.1, agg, scratch);
}

BankPart::BankPart(const RunParams& p)
    : p_(p), aggs_(std::make_unique<VariantAgg[]>(bank_variants().size())) {}

BankPart::~BankPart() = default;

void BankPart::round(int r, Report& out) {
  // Three quarters of the run's measured time go to the bank, whose figures
  // are the end-to-end ones. Each round gives every variant a fresh
  // fixture, a warm-up and a timed window.
  const double window_s = p_.seconds * 0.75 / (kBankRounds * bank_variants().size());
  const double warm_s = 0.15;
  for (std::size_t i = 0; i < bank_variants().size(); ++i) {
    run_direct_variant(bank_variants()[i], p_, r, warm_s, window_s, aggs_[i],
                       out);
  }
}

void BankPart::report(Report& out) const {
  for (std::size_t i = 0; i < bank_variants().size(); ++i) {
    aggs_[i].report(bank_variants()[i], out);
  }
}

}  // namespace perfbench
