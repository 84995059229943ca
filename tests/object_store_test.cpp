// Unit tests for the shared versioned-object substrate (src/object/):
// chain walking, locator settling, the shared acquire/arbitrate loop,
// prune-vs-pinned-reader interaction through EBR, and the
// adaptive-retention grow/decay transitions.
//
// CTest label: `unit` (DESIGN.md §6).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cm/contention_manager.hpp"
#include "fault/failpoint.hpp"
#include "object/object_store.hpp"
#include "runtime/payload.hpp"
#include "runtime/txdesc.hpp"
#include "util/ebr.hpp"
#include "util/stats.hpp"
#include "util/thread_registry.hpp"

namespace zstm::object {
namespace {

class TestDesc final : public runtime::TxDescBase {
 public:
  using TxDescBase::TxDescBase;
};

struct TestVersionMeta {
  std::uint64_t ts = 0;
};

struct TestTraits {
  using Desc = TestDesc;
  using VersionMeta = TestVersionMeta;
  using ObjectMeta = NoMeta;
};

using Store = ObjectStore<TestTraits>;
using Version = Store::Version;
using Locator = Store::Locator;
using Object = Store::Object;

/// Test rig: registry + stats + pool + EBR + a store with the given policy
/// (same member order as the runtimes: the pool outlives the EpochManager,
/// whose drain returns nodes to it).
struct Rig {
  explicit Rig(RetentionPolicy policy)
      : registry(8), stats(registry), pool(registry, &stats), epochs(registry),
        store(pool, epochs, stats, policy) {}

  util::ThreadRegistry registry;
  util::StatsDomain stats;
  NodePool pool;
  util::EpochManager epochs;
  Store store;
};

/// Commit one new version of `o` through the full locator protocol:
/// install a writer locator, flip the descriptor to committed, settle.
/// Returns the newly committed version. The descriptor must outlive any
/// use of the locator, so the caller provides it.
Version* commit_version(Rig& rig, Object& o, TestDesc& d, std::uint64_t ts,
                        int slot, long value) {
  Locator* l = o.loc.load(std::memory_order_acquire);
  EXPECT_EQ(l->writer, nullptr);
  const runtime::TypedPayload<long> pv(value);
  Version* tent = rig.store.clone_version(slot, pv);
  tent->prev.store(l->committed, std::memory_order_relaxed);
  EXPECT_TRUE(rig.store.install(o, l, &d, tent, slot));
  tent->ts = ts;
  d.finish_commit();
  Locator* owned = o.loc.load(std::memory_order_acquire);
  rig.store.settle(o, owned, slot);
  return tent;
}

int chain_length(Object& o) {
  Version* v = o.loc.load(std::memory_order_acquire)->committed;
  int n = 0;
  while (v != nullptr) {
    ++n;
    v = v->prev.load(std::memory_order_acquire);
  }
  return n;
}

RetentionPolicy fixed_policy(int kept) {
  return RetentionPolicy{RetentionMode::kFixed, kept, 1, 64, 64};
}

TEST(ObjectStore, AllocateCreatesSettledInitialState) {
  Rig rig(fixed_policy(4));
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(7));
  Locator* l = o->loc.load(std::memory_order_acquire);
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->writer, nullptr);
  EXPECT_EQ(l->tentative, nullptr);
  ASSERT_NE(l->committed, nullptr);
  EXPECT_EQ(runtime::payload_as<long>(*l->committed->data), 7);
  EXPECT_EQ(o->oid, 1u);
  EXPECT_EQ(rig.store.kept_bound(*o), 4u);
}

TEST(ObjectStore, SettleCommittedWriterPublishesTentative) {
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));

  TestDesc d(1, s, runtime::TxClass::kShort);
  Version* v1 = commit_version(rig, *o, d, 10, s, 42);

  Locator* l = o->loc.load(std::memory_order_acquire);
  EXPECT_EQ(l->writer, nullptr);       // settled
  EXPECT_EQ(l->committed, v1);         // tentative became current
  EXPECT_EQ(runtime::payload_as<long>(*l->committed->data), 42);
  EXPECT_EQ(chain_length(*o), 2);      // v1 -> initial
}

TEST(ObjectStore, SettleAbortedWriterKeepsCommittedAndRetiresTentative) {
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(5));
  Locator* initial = o->loc.load(std::memory_order_acquire);
  Version* base = initial->committed;

  TestDesc d(1, s, runtime::TxClass::kShort);
  const runtime::TypedPayload<long> pv(6);
  Version* tent = rig.store.clone_version(s, pv);
  tent->prev.store(base, std::memory_order_relaxed);
  ASSERT_TRUE(rig.store.install(*o, initial, &d, tent, s));
  d.finish_abort();

  const std::uint64_t retired_before = rig.epochs.retired_count();
  rig.store.settle(*o, o->loc.load(std::memory_order_acquire), s);
  Locator* l = o->loc.load(std::memory_order_acquire);
  EXPECT_EQ(l->writer, nullptr);
  EXPECT_EQ(l->committed, base);  // the tentative version never published
  // Both the tentative version and the superseded locator were retired.
  EXPECT_GE(rig.epochs.retired_count(), retired_before + 2);
}

TEST(ObjectStore, InstallFailsOnStaleLocatorWithoutConsuming) {
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));
  Locator* stale = o->loc.load(std::memory_order_acquire);

  TestDesc d1(1, s, runtime::TxClass::kShort);
  commit_version(rig, *o, d1, 5, s, 1);  // moves the locator on

  TestDesc d2(2, s, runtime::TxClass::kShort);
  const runtime::TypedPayload<long> pv(2);
  Version* tent = rig.store.clone_version(s, pv);
  EXPECT_FALSE(rig.store.install(*o, stale, &d2, tent, s));
  rig.store.discard_version(s, tent);  // caller still owns it on failure
}

TEST(ObjectStore, ResolveSkipsOwnLocatorToPreWriteVersion) {
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(3));
  Locator* l = o->loc.load(std::memory_order_acquire);
  Version* base = l->committed;

  TestDesc d(1, s, runtime::TxClass::kShort);
  const runtime::TypedPayload<long> pv(4);
  Version* tent = rig.store.clone_version(s, pv);
  tent->prev.store(base, std::memory_order_relaxed);
  ASSERT_TRUE(rig.store.install(*o, l, &d, tent, s));

  // The owner resolves to its pre-write base; a stranger sees the same
  // because the writer is still active (invisible tentative state).
  EXPECT_EQ(rig.store.resolve(*o, &d, OnCommitting::kWait, s), base);
  EXPECT_EQ(rig.store.resolve(*o, nullptr, OnCommitting::kWait, s), base);

  d.finish_abort();
  rig.store.settle(*o, o->loc.load(std::memory_order_acquire), s);
}

// --- acquire / ready_locator -----------------------------------------------

/// A contention manager that replays a script of decisions (the last one
/// repeats) and records the attempt number of every call.
class ScriptedCm final : public cm::ContentionManager {
 public:
  explicit ScriptedCm(std::vector<cm::Decision> script)
      : script_(std::move(script)) {}
  cm::Decision arbitrate(const runtime::TxDescBase&,
                         const runtime::TxDescBase&,
                         std::uint32_t attempt) override {
    attempts.push_back(attempt);
    const std::size_t i = attempts.size() - 1;
    return i < script_.size() ? script_[i] : script_.back();
  }
  std::string name() const override { return "scripted"; }

  std::vector<std::uint32_t> attempts;

 private:
  std::vector<cm::Decision> script_;
};

/// Thrown by the test's abort path (the runtimes throw their TxAborted).
struct Aborted {};

/// Install `d` as the active writer of `o` over its current locator.
Version* install_writer(Rig& rig, Object& o, TestDesc& d, int slot,
                        long value) {
  Locator* l = o.loc.load(std::memory_order_acquire);
  const runtime::TypedPayload<long> pv(value);
  Version* tent = rig.store.clone_version(slot, pv);
  tent->prev.store(l->committed, std::memory_order_relaxed);
  EXPECT_TRUE(rig.store.install(o, l, &d, tent, slot));
  return tent;
}

/// The on_base hook every runtime shares the shape of: clone the base,
/// link it, count the call.
auto cloning_hook(Rig& rig, int slot, int* calls) {
  return [&rig, slot, calls](Version* base) {
    ++*calls;
    Version* t = rig.store.clone_version(slot, *base->data);
    t->prev.store(base, std::memory_order_relaxed);
    return t;
  };
}

auto throwing_abort() {
  return [] { throw Aborted{}; };
}

TEST(ObjectStore, AcquireSettlesFinishedWritersWithoutArbitration) {
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  ScriptedCm cm({cm::Decision::kAbortSelf});
  const AcquireSpec spec{cm, fault::Site::kLsaAcquire};
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));
  Version* initial = o->loc.load(std::memory_order_acquire)->committed;

  // A committed writer: its tentative version becomes the base.
  TestDesc committed(1, s, runtime::TxClass::kShort);
  Version* v1 = install_writer(rig, *o, committed, s, 1);
  committed.finish_commit();
  TestDesc me(2, s, runtime::TxClass::kShort);
  int calls = 0;
  Version* t2 = rig.store.acquire(*o, &me, spec, s,
                                  cloning_hook(rig, s, &calls),
                                  throwing_abort());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(t2->prev.load(std::memory_order_relaxed), v1);
  Locator* l = o->loc.load(std::memory_order_acquire);
  EXPECT_EQ(l->writer, &me);
  EXPECT_EQ(l->tentative, t2);
  EXPECT_EQ(l->committed, v1);
  me.finish_abort();
  rig.store.release(*o, &me, s);

  // An aborted writer: its tentative version is dropped, the committed
  // version it was based on stays the base.
  TestDesc aborted(3, s, runtime::TxClass::kShort);
  install_writer(rig, *o, aborted, s, 3);
  aborted.finish_abort();
  TestDesc me2(4, s, runtime::TxClass::kShort);
  Version* t4 = rig.store.acquire(*o, &me2, spec, s,
                                  cloning_hook(rig, s, &calls),
                                  throwing_abort());
  EXPECT_EQ(t4->prev.load(std::memory_order_relaxed), v1);
  EXPECT_EQ(o->loc.load(std::memory_order_acquire)->committed, v1);
  EXPECT_NE(v1, initial);
  EXPECT_TRUE(cm.attempts.empty());  // finished writers are never arbitrated
  me2.finish_abort();
  rig.store.release(*o, &me2, s);
}

TEST(ObjectStore, ReadyLocatorReturnsOwnLocatorWithoutArbitration) {
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  ScriptedCm cm({cm::Decision::kAbortSelf});
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));

  TestDesc me(1, s, runtime::TxClass::kShort);
  install_writer(rig, *o, me, s, 1);
  Locator* mine = o->loc.load(std::memory_order_acquire);
  EXPECT_EQ(rig.store.ready_locator(*o, &me, {cm, fault::Site::kZlAcquire}, s,
                                    throwing_abort()),
            mine);
  EXPECT_TRUE(cm.attempts.empty());
  me.finish_abort();
  rig.store.release(*o, &me, s);
}

TEST(ObjectStore, AbortSelfReachesAbortPathWithNothingInstalled) {
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  ScriptedCm cm({cm::Decision::kAbortSelf});
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));

  TestDesc owner(1, s, runtime::TxClass::kShort);
  install_writer(rig, *o, owner, s, 1);
  Locator* before = o->loc.load(std::memory_order_acquire);
  const util::StatsSnapshot stats_before = rig.stats.snapshot();

  TestDesc me(2, s, runtime::TxClass::kShort);
  int calls = 0;
  EXPECT_THROW(rig.store.acquire(*o, &me, {cm, fault::Site::kCsAcquire}, s,
                                 cloning_hook(rig, s, &calls),
                                 throwing_abort()),
               Aborted);
  EXPECT_EQ(cm.attempts, std::vector<std::uint32_t>{0});
  EXPECT_EQ(calls, 0);  // no tentative version was ever made
  EXPECT_EQ(o->loc.load(std::memory_order_acquire), before);
  EXPECT_EQ(owner.status(), runtime::TxStatus::kActive);
  const util::StatsSnapshot after = rig.stats.snapshot();
  EXPECT_EQ(after[util::Counter::kPoolHits] + after[util::Counter::kPoolMisses],
            stats_before[util::Counter::kPoolHits] +
                stats_before[util::Counter::kPoolMisses]);
  EXPECT_EQ(after[util::Counter::kCmKills], 0u);
  EXPECT_EQ(after[util::Counter::kCmWaits], 0u);
  EXPECT_FALSE(me.waiting());

  owner.finish_abort();
  rig.store.release(*o, &owner, s);
}

TEST(ObjectStore, AcquireCarriesTheCmAttemptAcrossFailedInstalls) {
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  // Wait once, then kill: first the owner, then the writer that races in.
  ScriptedCm cm({cm::Decision::kWait, cm::Decision::kAbortOther,
                 cm::Decision::kAbortOther});
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));

  TestDesc owner(1, s, runtime::TxClass::kShort);
  install_writer(rig, *o, owner, s, 1);
  TestDesc racer(2, s, runtime::TxClass::kShort);
  TestDesc me(3, s, runtime::TxClass::kShort);
  int calls = 0;
  Version* tent = rig.store.acquire(
      *o, &me, {cm, fault::Site::kSstmAcquire}, s,
      [&](Version* base) {
        // The first round loses its install: another writer gets in
        // between the ready locator and the CAS.
        if (calls++ == 0) install_writer(rig, *o, racer, s, 2);
        Version* t = rig.store.clone_version(s, *base->data);
        t->prev.store(base, std::memory_order_relaxed);
        return t;
      },
      throwing_abort());
  EXPECT_EQ(calls, 2);
  EXPECT_EQ(cm.attempts, (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(owner.status(), runtime::TxStatus::kAborted);
  EXPECT_EQ(racer.status(), runtime::TxStatus::kAborted);
  EXPECT_EQ(o->loc.load(std::memory_order_acquire)->tentative, tent);
  const util::StatsSnapshot st = rig.stats.snapshot();
  EXPECT_EQ(st[util::Counter::kCmWaits], 1u);
  EXPECT_EQ(st[util::Counter::kCmKills], 2u);
  me.finish_abort();
  rig.store.release(*o, &me, s);
}

TEST(ObjectStore, AcquirePokesTheSiteItIsGiven) {
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  ScriptedCm cm({cm::Decision::kAbortSelf});
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));
  fault::registry().disarm_all();
  ASSERT_TRUE(fault::registry().arm(fault::Site::kCsAcquire, 1.0));

  TestDesc me(1, s, runtime::TxClass::kShort);
  int calls = 0;
  EXPECT_THROW(rig.store.acquire(*o, &me, {cm, fault::Site::kCsAcquire}, s,
                                 cloning_hook(rig, s, &calls),
                                 throwing_abort()),
               Aborted);
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(fault::registry().triggers(fault::Site::kCsAcquire), 1u);

  // Another runtime's site is not the armed one: the same call succeeds,
  // and the armed site is not touched.
  rig.store.acquire(*o, &me, {cm, fault::Site::kLsaAcquire}, s,
                    cloning_hook(rig, s, &calls), throwing_abort());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(fault::registry().hits(fault::Site::kCsAcquire), 1u);
  EXPECT_EQ(fault::registry().triggers(fault::Site::kLsaAcquire), 0u);
  fault::registry().disarm_all();
  me.finish_abort();
  rig.store.release(*o, &me, s);
}

TEST(ObjectStore, SuccessorOfWalksChain) {
  Rig rig(fixed_policy(8));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));
  Version* v0 = o->loc.load(std::memory_order_acquire)->committed;

  TestDesc d1(1, s, runtime::TxClass::kShort);
  Version* v1 = commit_version(rig, *o, d1, 10, s, 1);
  TestDesc d2(2, s, runtime::TxClass::kShort);
  Version* v2 = commit_version(rig, *o, d2, 20, s, 2);
  TestDesc d3(3, s, runtime::TxClass::kShort);
  Version* v3 = commit_version(rig, *o, d3, 30, s, 3);

  EXPECT_EQ(Store::successor_of(v3, v2), v3);
  EXPECT_EQ(Store::successor_of(v3, v1), v2);
  EXPECT_EQ(Store::successor_of(v3, v0), v1);
  // A version not on the chain (pruned) yields nullptr.
  Version detached(new runtime::TypedPayload<long>(99));
  EXPECT_EQ(Store::successor_of(v3, &detached), nullptr);
}

TEST(ObjectStore, PruneBoundsChainAtFixedDepth) {
  Rig rig(fixed_policy(3));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));

  std::vector<TestDesc*> descs;
  for (int i = 1; i <= 10; ++i) {
    auto* d = new TestDesc(static_cast<std::uint64_t>(i), s,
                           runtime::TxClass::kShort);
    descs.push_back(d);
    commit_version(rig, *o, *d, static_cast<std::uint64_t>(10 * i), s, i);
    EXPECT_LE(chain_length(*o), 3);
  }
  for (auto* d : descs) delete d;
}

TEST(ObjectStore, PrunedSuffixSurvivesWhileReaderIsPinned) {
  Rig rig(fixed_policy(1));  // aggressive pruning: single-version
  auto reader_reg = rig.registry.attach();
  auto writer_reg = rig.registry.attach();
  const int ws = writer_reg.slot();

  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(123));
  Version* old_version = o->loc.load(std::memory_order_acquire)->committed;

  // A reader pins (as every transaction attempt does) and holds a pointer
  // to the current version.
  auto guard = rig.epochs.pin_guard(reader_reg.slot());

  // A writer commits over it; prune severs the old version off the chain.
  TestDesc d(1, ws, runtime::TxClass::kShort);
  commit_version(rig, *o, d, 10, ws, 124);
  EXPECT_EQ(chain_length(*o), 1);

  // The severed version was retired but must not be freed while the reader
  // is pinned: its payload stays dereferenceable.
  for (int i = 0; i < 10; ++i) rig.epochs.collect(ws);
  EXPECT_EQ(runtime::payload_as<long>(*old_version->data), 123);
  EXPECT_LT(rig.epochs.freed_count(), rig.epochs.retired_count());

  // After the reader unpins, collection may reclaim everything retired.
  guard = util::EpochManager::Guard();
  for (int i = 0; i < 10; ++i) rig.epochs.collect(ws);
  EXPECT_EQ(rig.epochs.freed_count(), rig.epochs.retired_count());
}

TEST(ObjectStore, AdaptiveBoundDoublesOnTooOldAborts) {
  RetentionPolicy p{RetentionMode::kAdaptive, /*initial=*/1, /*min=*/1,
                    /*max=*/8, /*decay_period=*/1000};
  Rig rig(p);
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));

  EXPECT_EQ(rig.store.kept_bound(*o), 1u);
  rig.store.note_too_old(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 2u);
  rig.store.note_too_old(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 4u);
  rig.store.note_too_old(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 8u);
  rig.store.note_too_old(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 8u);  // capped at max_kept
  EXPECT_EQ(rig.stats.snapshot()[util::Counter::kRetentionGrows], 3u);
}

TEST(ObjectStore, AdaptiveBoundDecaysAfterQuiescentPrunes) {
  RetentionPolicy p{RetentionMode::kAdaptive, /*initial=*/1, /*min=*/1,
                    /*max=*/8, /*decay_period=*/3};
  Rig rig(p);
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));

  rig.store.note_too_old(*o, s);
  rig.store.note_too_old(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 4u);

  // Each prune (triggered by every settle of a committed writer) counts
  // toward the quiescence streak; after decay_period of them the bound
  // shrinks by one.
  for (int i = 0; i < 3; ++i) rig.store.prune(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 3u);
  for (int i = 0; i < 3; ++i) rig.store.prune(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 2u);

  // A too-old abort resets the streak: two prunes, abort, two prunes — no
  // decay, and the abort doubled the bound again.
  for (int i = 0; i < 2; ++i) rig.store.prune(*o, s);
  rig.store.note_too_old(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 4u);
  for (int i = 0; i < 2; ++i) rig.store.prune(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 4u);

  EXPECT_EQ(rig.stats.snapshot()[util::Counter::kRetentionDecays], 2u);
}

TEST(ObjectStore, AdaptiveBoundNeverDecaysBelowFloor) {
  RetentionPolicy p{RetentionMode::kAdaptive, /*initial=*/2, /*min=*/2,
                    /*max=*/8, /*decay_period=*/1};
  Rig rig(p);
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));
  for (int i = 0; i < 10; ++i) rig.store.prune(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 2u);
}

TEST(ObjectStore, FixedModeIgnoresTooOldFeedback) {
  Rig rig(fixed_policy(4));
  auto reg = rig.registry.attach();
  const int s = reg.slot();
  Object* o = rig.store.allocate(new runtime::TypedPayload<long>(0));
  rig.store.note_too_old(*o, s);
  rig.store.note_too_old(*o, s);
  EXPECT_EQ(rig.store.kept_bound(*o), 4u);
  EXPECT_EQ(rig.stats.snapshot()[util::Counter::kRetentionGrows], 0u);
}

}  // namespace
}  // namespace zstm::object
