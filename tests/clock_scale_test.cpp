// Tests for the scalable-timebase layer (DESIGN.md §10): the
// topology-sharded clock, the cache-topology discovery helpers, and the
// registry wiring on top of them.
//
// CTest label: `unit`. Also runs under the tsan preset (tsan-clock), which
// is the intended concurrency check for the sharded clock's lanes.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "timebase/sharded_clock.hpp"
#include "util/cpu_topology.hpp"
#include "util/thread_registry.hpp"

namespace zstm::timebase {
namespace {

// --- ShardedClock ------------------------------------------------------------

TEST(ShardedClock, StampOrderSemantics) {
  const ShardStamp a{0, 1}, b{0, 2}, c{1, 1};
  EXPECT_EQ(a.compare(b), Order::kBefore);
  EXPECT_EQ(b.compare(a), Order::kAfter);
  EXPECT_EQ(a.compare(a), Order::kEqual);
  EXPECT_EQ(a.compare(c), Order::kConcurrent);
  EXPECT_EQ(c.compare(a), Order::kConcurrent);
}

TEST(ShardedClock, PerShardTicksAreStrictlyIncreasing) {
  ShardedClock clk(8, 2);
  std::uint64_t prev = 0;
  for (int i = 0; i < 50; ++i) {
    const ShardStamp s = clk.tick(0);
    EXPECT_GT(s.tick, prev);
    prev = s.tick;
  }
}

TEST(ShardedClock, ExclusiveLayoutIsIdentityMappedSingleWriterLanes) {
  // shards == slots selects the exclusive layout: identity slot→shard map
  // and the RMW-free single-writer increment.
  ShardedClock ex(4, 4);
  EXPECT_TRUE(ex.exclusive());
  for (int s = 0; s < 4; ++s) EXPECT_EQ(ex.shard_of(s), s);
  std::uint64_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    const ShardStamp st = ex.tick(2);
    EXPECT_EQ(st.shard, 2u);
    EXPECT_GT(st.tick, prev);
    prev = st.tick;
  }
  // Fewer shards than slots: shared lanes, not exclusive.
  EXPECT_FALSE(ShardedClock(8, 2).exclusive());
}

TEST(ShardedClock, ExclusiveLaneIsVisibleToConcurrentReaders) {
  // One writer advancing its own lane; a reader polling now() on the same
  // shard must see a non-decreasing sequence that eventually reaches the
  // writer's last tick (release store → acquire-free relaxed load is fine
  // for monotonicity; coherence gives per-location order).
  ShardedClock clk(2, 2);
  ASSERT_TRUE(clk.exclusive());
  constexpr int kTicks = 50000;
  std::atomic<bool> done{false};
  std::atomic<bool> regressed{false};
  std::thread reader([&] {
    std::uint64_t prev = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t t = clk.now(0).tick;
      if (t < prev) regressed.store(true, std::memory_order_relaxed);
      prev = t;
    }
  });
  std::uint64_t last = 0;
  for (int i = 0; i < kTicks; ++i) last = clk.tick(0).tick;
  done.store(true, std::memory_order_release);
  reader.join();
  EXPECT_FALSE(regressed.load());
  EXPECT_EQ(last, static_cast<std::uint64_t>(kTicks));
  EXPECT_EQ(clk.now(0).tick, static_cast<std::uint64_t>(kTicks));
}

TEST(ShardedClock, ShardCountClampsToSlotsAndMax) {
  EXPECT_EQ(ShardedClock(2, 8).shards(), 2);   // clamped to slots
  EXPECT_EQ(ShardedClock(4, 0).shards(), util::cpu_topology().groups > 4
                                             ? 4
                                             : util::cpu_topology().groups);
  EXPECT_EQ(ShardedClock(64, 1000).shards(), ShardedClock::kMaxShards);
}

TEST(ShardedClock, ConcurrentUniqueIdsNeverCollide) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  ShardedClock clk(kThreads, kThreads);  // one shard per slot
  std::vector<std::vector<std::uint64_t>> got(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      auto& mine = got[static_cast<std::size_t>(t)];
      mine.reserve(kPerThread);
      for (int i = 0; i < kPerThread; ++i) mine.push_back(clk.unique_id(t));
    });
  }
  for (auto& th : threads) th.join();
  std::set<std::uint64_t> all;
  for (auto& v : got) all.insert(v.begin(), v.end());
  EXPECT_EQ(all.size(), static_cast<std::size_t>(kThreads) * kPerThread);
  EXPECT_EQ(all.count(0), 0u);  // ids are non-zero
}

// --- topology helpers --------------------------------------------------------

TEST(CpuTopology, DiscoveryIsSane) {
  const util::CpuTopology& topo = util::cpu_topology();
  EXPECT_GE(topo.cpus, 1);
  EXPECT_GE(topo.groups, 1);
  EXPECT_LE(topo.groups, topo.cpus);
  ASSERT_EQ(topo.group_of_cpu.size(), static_cast<std::size_t>(topo.cpus));
  for (const int g : topo.group_of_cpu) {
    EXPECT_GE(g, 0);
    EXPECT_LT(g, topo.groups);
  }
  EXPECT_FALSE(topo.source.empty());
}

TEST(CpuTopology, SlotHomeGroupsPartitionSlotsContiguously) {
  const int groups = util::cpu_topology().groups;
  constexpr int kCapacity = 16;
  int prev = 0;
  for (int s = 0; s < kCapacity; ++s) {
    const int g = util::slot_home_group(s, kCapacity);
    EXPECT_GE(g, 0);
    EXPECT_LT(g, groups);
    EXPECT_GE(g, prev);  // monotone over slot ids = contiguous blocks
    prev = g;
  }
  // Out-of-range inputs stay valid group indices.
  EXPECT_EQ(util::slot_home_group(-1, kCapacity), 0);
  const int g = util::slot_home_group(kCapacity + 3, kCapacity);
  EXPECT_GE(g, 0);
  EXPECT_LT(g, groups);
}

TEST(ThreadRegistry, TopologyAttachStillClaimsEverySlot) {
  // Whatever the topology, attach must hand out all capacity slots
  // exactly once, and home_group must be consistent with the static map.
  util::ThreadRegistry reg(8);
  std::vector<util::ThreadRegistry::Registration> regs;
  std::set<int> seen;
  for (int i = 0; i < 8; ++i) {
    regs.push_back(reg.attach());
    EXPECT_TRUE(seen.insert(regs.back().slot()).second);
    EXPECT_EQ(reg.home_group(regs.back().slot()),
              util::slot_home_group(regs.back().slot(), 8));
  }
  EXPECT_EQ(static_cast<int>(seen.size()), 8);
  EXPECT_THROW(reg.attach(), std::runtime_error);
}

}  // namespace
}  // namespace zstm::timebase
