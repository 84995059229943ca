// CS-STM allocation-path microbench (ROADMAP PR 3 follow-up): counts real
// global-heap allocations per committed transaction on the cs runtime, the
// bench_alloc-style check that pooling cs::TxDesc's inner vector-clock
// storage actually removed the hidden per-transaction std::vector malloc.
//
// This binary replaces global operator new/delete with counting versions
// (which is why it is a separate bench: the interposition would perturb
// every other harness's numbers). Workloads, on cs-vc (exact vector
// clocks):
//
//   read-only  — two reads per transaction. With the node pool on and the
//                per-slot spare-stamp recycling, steady state performs ~0
//                heap allocations per transaction (descriptor + its clock
//                both come from recycled storage).
//   update     — two writes per transaction. Written versions' stamp
//                vectors draw from the slab pool too (PoolAllocator), so
//                pooled updates are also ~0 allocs/txn in steady state;
//                the bench exits nonzero if they regress above
//                kMaxPooledUpdateAllocs.
//
// Modes: pooled (Config defaults) vs heap (use_node_pool = false, the
// ZSTM_POOL=0 path) — the heap rows also pay one malloc per
// locator/version/descriptor node.
//
// `--json` additionally writes BENCH_cs_alloc.json (see bench_json.hpp).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "cs/cs.hpp"
#include "util/rng.hpp"

// --- counting global allocator ---------------------------------------------

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// noinline, all six: once GCC inlines one side of a replacement pair into
// a caller that also sees the other side, -Wmismatched-new-delete pairs
// the malloc() inside `new` with an opaque `delete` (release build) or
// the free() inside `delete` with an opaque `new` (ASan build) and fails
// the -Werror build. With both sides out of line, the pairing is
// new/delete again.
[[gnu::noinline]] void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

// ---------------------------------------------------------------------------

namespace {

constexpr int kVars = 256;
constexpr auto kWarmup = std::chrono::milliseconds(100);
constexpr auto kMeasure = std::chrono::milliseconds(250);

struct Row {
  const char* workload;
  const char* mode;
  int threads;
  double tx_per_s = 0;
  double allocs_per_txn = 0;
  std::uint64_t commits = 0;
};

Row trial(bool update, bool pooled, int threads) {
  zstm::cs::Config cfg;
  cfg.max_threads = threads + 2;
  cfg.use_node_pool = pooled;
  auto rt = zstm::cs::make_vc_runtime(cfg);
  std::vector<zstm::cs::VcRuntime::Var<long>> vars;
  for (int i = 0; i < kVars; ++i) vars.push_back(rt->make_var<long>(100));

  std::atomic<std::uint64_t> commits{0};
  std::atomic<bool> stop{false};
  std::atomic<bool> measuring{false};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      auto th = rt->attach();
      zstm::util::Xorshift rng(static_cast<std::uint64_t>(t) * 271 + 3);
      std::uint64_t my = 0;
      while (!stop.load(std::memory_order_acquire)) {
        const std::size_t a = rng.next_below(kVars);
        std::size_t b = rng.next_below(kVars);
        if (b == a) b = (b + 1) % kVars;
        rt->run(*th, [&](zstm::cs::VcRuntime::Tx& tx) {
          if (update) {
            tx.write(vars[a]) -= 1;
            tx.write(vars[b]) += 1;
          } else {
            volatile long sum = tx.read(vars[a]) + tx.read(vars[b]);
            (void)sum;
          }
        });
        if (measuring.load(std::memory_order_relaxed)) ++my;
      }
      commits.fetch_add(my);
    });
  }

  // Warm up (slabs carved, spare stamps grown to capacity), then measure a
  // steady-state window with a fresh allocation counter.
  std::this_thread::sleep_for(kWarmup);
  const std::uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  measuring.store(true, std::memory_order_release);
  const auto t0 = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(kMeasure);
  stop.store(true, std::memory_order_release);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  for (auto& w : workers) w.join();
  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;

  Row r;
  r.workload = update ? "update" : "read-only";
  r.mode = pooled ? "pooled" : "heap";
  r.threads = threads;
  r.commits = commits.load();
  r.tx_per_s = static_cast<double>(r.commits) / secs;
  if (r.commits > 0) {
    r.allocs_per_txn =
        static_cast<double>(allocs) / static_cast<double>(r.commits);
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool json = zstm::benchjson::json_requested(argc, argv);
  std::printf("CS-STM allocation microbench: global operator-new calls per\n"
              "committed transaction, cs-vc, %d vars (spare-stamp recycling\n"
              "of cs::TxDesc's vector-clock storage)\n\n",
              kVars);
  if (!zstm::object::NodePool::env_enabled()) {
    std::printf("note: ZSTM_POOL=0 is set — the \"pooled\" rows run on the "
                "heap too.\n\n");
  }
  std::printf("%10s %8s %8s %12s %16s %12s\n", "workload", "mode", "threads",
              "tx/s", "allocs/txn", "commits");

  std::vector<Row> rows;
  for (int threads : {1, 2}) {
    for (const bool update : {false, true}) {
      rows.push_back(trial(update, /*pooled=*/false, threads));
      rows.push_back(trial(update, /*pooled=*/true, threads));
    }
  }
  for (const Row& r : rows) {
    std::printf("%10s %8s %8d %12.0f %16.3f %12llu\n", r.workload, r.mode,
                r.threads, r.tx_per_s, r.allocs_per_txn,
                static_cast<unsigned long long>(r.commits));
  }
  std::printf(
      "\nExpected: pooled rows show allocs/txn ~= 0 — descriptor and\n"
      "locator/version nodes come from the slab pool, their vector-clock\n"
      "storage from the per-slot spare buffer (read path) or the\n"
      "PoolAllocator-backed stamp (write path). Heap rows pay one malloc\n"
      "per locator/version/descriptor node plus one per stamp vector.\n");

  // Gate: the PoolAllocator change took pooled updates from ~2 stamp
  // mallocs per transaction to ~0; fail loudly if that regresses. The
  // threshold leaves headroom for slab carving and warmup stragglers.
  // Skipped when ZSTM_POOL=0 forces every row onto the heap.
  constexpr double kMaxPooledUpdateAllocs = 0.75;
  bool regressed = false;
  if (zstm::object::NodePool::env_enabled()) {
    for (const Row& r : rows) {
      if (std::string_view(r.mode) == "pooled" &&
          std::string_view(r.workload) == "update" &&
          r.allocs_per_txn > kMaxPooledUpdateAllocs) {
        std::printf("FAIL: pooled update threads=%d allocs/txn=%.3f > %.2f\n",
                    r.threads, r.allocs_per_txn, kMaxPooledUpdateAllocs);
        regressed = true;
      }
    }
  }

  if (json) {
    zstm::benchjson::Doc doc("cs_alloc");
    for (const Row& r : rows) {
      doc.row()
          .str("workload", r.workload)
          .str("mode", r.mode)
          .num("threads", r.threads)
          .num("tx_per_s", r.tx_per_s)
          .num("allocs_per_txn", r.allocs_per_txn)
          .num("commits", r.commits);
    }
    if (!doc.write()) return 1;
  }
  return regressed ? 1 : 0;
}
