// HTMLock and switchingMode mechanisms at protocol level: TL/STL admission,
// lock-transaction irrevocability, concurrent HTM execution, LLC overflow
// signatures, and in-place switching on capacity overflow (Fig 5/6).
#include <gtest/gtest.h>

#include "testbed.hpp"

namespace lktm::test {
namespace {

constexpr Addr kA = 0x100000;
constexpr Addr kB = 0x200040;

TestSystemOptions htmLockOpts(bool switching = false,
                              mem::CacheGeometry geo = {32 * 1024, 4}) {
  TestSystemOptions opt;
  opt.policy = htmLockPolicy(switching);
  opt.l1 = geo;
  return opt;
}

TEST(HtmLock, TlEntryGrantedWhenFree) {
  TestSystem sys(htmLockOpts());
  sys.hlBegin(0);
  EXPECT_EQ(sys.l1(0).mode(), TxMode::TL);
  EXPECT_TRUE(sys.dir().arbiter().active());
  EXPECT_EQ(sys.dir().arbiter().holder(), 0);
  sys.hlEnd(0);
  EXPECT_EQ(sys.l1(0).mode(), TxMode::None);
  sys.drain();
  EXPECT_FALSE(sys.dir().arbiter().active());
}

TEST(HtmLock, HtmTxRunsConcurrentlyWithLockTx) {
  // The headline HTMLock property: a lock transaction and an HTM transaction
  // on disjoint data both commit, neither aborts.
  TestSystem sys(htmLockOpts());
  sys.hlBegin(0);
  sys.store(0, kA, 1);
  sys.l1(1).txBegin();
  sys.store(1, kB, 2);
  sys.commit(1);           // HTM tx commits while the lock tx is running
  sys.hlEnd(0);
  EXPECT_TRUE(sys.aborts(0).empty());
  EXPECT_TRUE(sys.aborts(1).empty());
  EXPECT_EQ(sys.load(1, kA), 1u);
  EXPECT_EQ(sys.load(0, kB), 2u);
  sys.drain();
  sys.expectCoherent();
}

TEST(HtmLock, ConflictingHtmTxIsRejectedNotLockTx) {
  TestSystem sys(htmLockOpts());
  sys.setPriority(1, 1'000'000);  // even a "high priority" HTM tx loses
  sys.hlBegin(0);
  sys.store(0, kA, 1);
  sys.l1(1).txBegin();
  auto done = sys.asyncStore(1, kA, 2);
  sys.drain();
  EXPECT_FALSE(*done) << "HTM tx must wait for the irrevocable lock tx";
  EXPECT_TRUE(sys.aborts(0).empty());
  sys.hlEnd(0);
  sys.runUntil(*done);  // woken at hlend
  sys.commit(1);
  EXPECT_EQ(sys.load(0, kA), 2u);
  sys.drain();
  sys.expectCoherent();
}

TEST(HtmLock, LockTxAbortsConflictingHtmTxOnItsOwnRequests) {
  TestSystem sys(htmLockOpts());
  sys.setPriority(1, 1'000'000);
  sys.l1(1).txBegin();
  sys.store(1, kA, 2);  // HTM tx owns the line speculatively
  sys.hlBegin(0);
  sys.store(0, kA, 1);  // lock-mode request carries top priority
  ASSERT_EQ(sys.aborts(1).size(), 1u);
  EXPECT_EQ(sys.aborts(1)[0], AbortCause::LockConflict);
  sys.hlEnd(0);
  EXPECT_EQ(sys.load(1, kA), 1u);
  sys.drain();
  sys.expectCoherent();
}

TEST(HtmLock, LockTxRecordsReadWriteSets) {
  TestSystem sys(htmLockOpts());
  sys.hlBegin(0);
  sys.load(0, kA);
  sys.store(0, kB, 1);
  EXPECT_TRUE(sys.l1(0).cache().find(lineOf(kA))->txRead);
  EXPECT_TRUE(sys.l1(0).cache().find(lineOf(kB))->txWrite);
  sys.hlEnd(0);
  EXPECT_EQ(sys.l1(0).cache().countIf(
                [](const mem::CacheEntry& e) { return e.transactional(); }),
            0u);
  sys.drain();
  sys.expectCoherent();
}

TEST(HtmLock, LockTxSurvivesFaultsByConstruction) {
  // TL mode is not speculative: there is no abort path at all; we simply
  // verify stores are immediately durable and mode survives arbitrary events.
  TestSystem sys(htmLockOpts());
  sys.hlBegin(0);
  sys.store(0, kA, 7);
  EXPECT_EQ(sys.l1(0).mode(), TxMode::TL);
  sys.hlEnd(0);
  EXPECT_EQ(sys.load(1, kA), 7u);
  sys.drain();
  sys.expectCoherent();
}

TEST(HtmLock, OverflowSpillsIntoLlcSignatures) {
  TestSystem sys(htmLockOpts(false, {8 * 1024, 4}));  // 32 sets
  sys.hlBegin(0);
  for (int i = 0; i < 5; ++i) {
    sys.store(0, kA + static_cast<Addr>(i) * 32 * kLineBytes, 10 + i);
  }
  sys.drain();
  // One line spilled; it is in the write signature, and its (irrevocable)
  // data reached the LLC.
  EXPECT_TRUE(sys.dir().htmlockUnit().writeSig().mayContain(lineOf(kA)));
  EXPECT_EQ(sys.dir().llcData(lineOf(kA))[wordOf(kA)], 10u);
  // Another core's request for the spilled line is signature-rejected.
  auto done = sys.asyncLoad(1, kA);
  sys.runFor(20000);  // non-tx requests poll; the queue never drains
  EXPECT_FALSE(*done);
  EXPECT_GT(sys.dir().sigRejects(), 0u);
  // hlend clears signatures and wakes the waiter.
  sys.hlEnd(0);
  sys.runUntil(*done);
  EXPECT_EQ(sys.load(1, kA), 10u);
  sys.drain();
  sys.expectCoherent();
}

TEST(HtmLock, HlEndClearsTxBitsOfSpilledAndReusedWays) {
  // Five stores to one 4-way set: the fifth spills the LRU tx line through
  // the signatures and reuses its way for a new tx line. hlend must clear the
  // tx bits of every way the lock transaction marked, the reused one too.
  TestSystem sys(htmLockOpts(false, {8 * 1024, 4}));  // 32 sets
  sys.hlBegin(0);
  for (int i = 0; i < 5; ++i) {
    sys.store(0, kA + static_cast<Addr>(i) * 32 * kLineBytes, 10 + i);
  }
  sys.load(0, kA + 7 * kLineBytes);  // a read-set line in another set
  sys.drain();
  ASSERT_TRUE(sys.dir().htmlockUnit().writeSig().mayContain(lineOf(kA)));
  EXPECT_EQ(sys.l1(0).cache().countIf(
                [](const mem::CacheEntry& e) { return e.transactional(); }),
            5u);
  sys.hlEnd(0);
  EXPECT_EQ(sys.l1(0).cache().countIf(
                [](const mem::CacheEntry& e) { return e.transactional(); }),
            0u);
  sys.drain();
  sys.expectCoherent();  // would report "tx-marked lines outside a tx"
}

TEST(HtmLock, ReadOverflowAllowsSharedButNotExclusive) {
  TestSystem sys(htmLockOpts(false, {8 * 1024, 4}));
  sys.memory().writeWord(kA, 5);
  sys.load(1, kA);  // another cached copy exists
  sys.hlBegin(0);
  for (int i = 0; i < 5; ++i) {
    sys.load(0, kA + static_cast<Addr>(i) * 32 * kLineBytes);
  }
  sys.drain();
  EXPECT_TRUE(sys.dir().htmlockUnit().readSig().mayContain(lineOf(kA)));
  // A shared read is fine (another copy exists: no silent-E hazard)...
  TestSystem* s = &sys;
  EXPECT_EQ(s->load(1, kA), 5u);  // core 1 still has/refreshes S copy
  // ...but an exclusive request must be rejected.
  auto done = sys.asyncStore(1, kA, 9);
  sys.runFor(20000);
  EXPECT_FALSE(*done);
  sys.hlEnd(0);
  sys.runUntil(*done);
  sys.drain();
  sys.expectCoherent();
}

TEST(HtmLock, SecondTlWaitsForFirst) {
  TestSystem sys(htmLockOpts());
  sys.hlBegin(0);
  bool granted = false;
  sys.l1(1).hlBegin([&] { granted = true; });
  sys.drain();
  EXPECT_FALSE(granted) << "only one HTMLock-mode transaction at a time";
  sys.hlEnd(0);
  sys.runUntil(granted);
  EXPECT_EQ(sys.l1(1).mode(), TxMode::TL);
  sys.hlEnd(1);
  sys.drain();
  sys.expectCoherent();
}

// --------------------------------------------------------- switchingMode

TEST(SwitchingMode, OverflowSwitchesToStl) {
  TestSystem sys(htmLockOpts(true, {8 * 1024, 4}));
  sys.l1(0).txBegin();
  for (int i = 0; i < 4; ++i) {
    sys.store(0, kA + static_cast<Addr>(i) * 32 * kLineBytes, 20 + i);
  }
  // Fifth same-set line: instead of aborting, apply for STL.
  sys.store(0, kA + 4ull * 32 * kLineBytes, 24);
  EXPECT_EQ(sys.l1(0).mode(), TxMode::STL);
  EXPECT_EQ(sys.switchedCount(0), 1u);
  EXPECT_TRUE(sys.aborts(0).empty()) << "no work lost";
  EXPECT_EQ(sys.dir().arbiter().holderMode(), TxMode::STL);
  EXPECT_EQ(sys.l1(0).txCounters().switchAttempts, 1u);
  EXPECT_EQ(sys.l1(0).txCounters().switchGrants, 1u);
  // The spilled line went into the signatures (irrevocable data).
  sys.drain();
  EXPECT_TRUE(sys.dir().htmlockUnit().anyOverflow());
  // Commit via hlend (Listing 2's STL branch).
  sys.hlEnd(0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(sys.load(1, kA + static_cast<Addr>(i) * 32 * kLineBytes), 20u + i);
  }
  sys.drain();
  sys.expectCoherent();
}

TEST(SwitchingMode, DeniedWhileLockTxActiveAbortsAsUsual) {
  TestSystem sys(htmLockOpts(true, {8 * 1024, 4}));
  sys.hlBegin(1);  // TL holder occupies the HTMLock slot
  sys.l1(0).txBegin();
  for (int i = 0; i < 4; ++i) {
    sys.store(0, kA + static_cast<Addr>(i) * 32 * kLineBytes, 1);
  }
  auto done = sys.asyncStore(0, kA + 4ull * 32 * kLineBytes, 1);
  sys.drain();
  EXPECT_FALSE(*done);
  ASSERT_EQ(sys.aborts(0).size(), 1u);
  EXPECT_EQ(sys.aborts(0)[0], AbortCause::Overflow);
  EXPECT_EQ(sys.l1(0).txCounters().switchAttempts, 1u);
  EXPECT_EQ(sys.l1(0).txCounters().switchGrants, 0u);
  sys.hlEnd(1);
  sys.drain();
  sys.expectCoherent();
}

TEST(SwitchingMode, OnlyOneSwitchAttemptPerTransaction) {
  TestSystem sys(htmLockOpts(true, {8 * 1024, 4}));
  sys.hlBegin(1);  // slot taken: the switch attempt below will be denied
  sys.l1(0).txBegin();
  for (int i = 0; i < 4; ++i) {
    sys.store(0, kA + static_cast<Addr>(i) * 32 * kLineBytes, 1);
  }
  auto done = sys.asyncStore(0, kA + 4ull * 32 * kLineBytes, 1);
  sys.drain();
  ASSERT_EQ(sys.aborts(0).size(), 1u);
  // Retry the transaction; the slot is still taken. Second overflow in the
  // *new* attempt is allowed one fresh switch attempt.
  sys.l1(0).txBegin();
  for (int i = 0; i < 4; ++i) {
    sys.store(0, kA + static_cast<Addr>(i) * 32 * kLineBytes, 1);
  }
  auto done2 = sys.asyncStore(0, kA + 4ull * 32 * kLineBytes, 1);
  sys.drain();
  EXPECT_FALSE(*done2);
  EXPECT_EQ(sys.l1(0).txCounters().switchAttempts, 2u);
  sys.hlEnd(1);
  sys.drain();
  sys.expectCoherent();
}

TEST(SwitchingMode, StlBlocksExternalRequestsWhileApplying) {
  // Functional check: a conflicting request arriving during/after the switch
  // is rejected rather than aborting the (now irrevocable) transaction.
  TestSystem sys(htmLockOpts(true, {8 * 1024, 4}));
  sys.l1(0).txBegin();
  for (int i = 0; i < 5; ++i) {
    sys.store(0, kA + static_cast<Addr>(i) * 32 * kLineBytes, 30 + i);
  }
  ASSERT_EQ(sys.l1(0).mode(), TxMode::STL);
  auto done = sys.asyncStore(1, kA + 32 * kLineBytes, 99);
  sys.runFor(20000);
  EXPECT_FALSE(*done);
  EXPECT_TRUE(sys.aborts(0).empty());
  sys.hlEnd(0);
  sys.runUntil(*done);
  sys.drain();
  sys.expectCoherent();
}

TEST(SwitchingMode, TlNeedsAuthorizationWhileStlActive) {
  TestSystem sys(htmLockOpts(true, {8 * 1024, 4}));
  sys.l1(0).txBegin();
  for (int i = 0; i < 5; ++i) {
    sys.store(0, kA + static_cast<Addr>(i) * 32 * kLineBytes, 1);
  }
  ASSERT_EQ(sys.l1(0).mode(), TxMode::STL);
  bool granted = false;
  sys.l1(1).hlBegin([&] { granted = true; });
  sys.drain();
  EXPECT_FALSE(granted) << "TL must wait for the STL transaction";
  sys.hlEnd(0);
  sys.runUntil(granted);
  EXPECT_EQ(sys.l1(1).mode(), TxMode::TL);
  sys.hlEnd(1);
  sys.drain();
  sys.expectCoherent();
}


// ------------------------------------------- switch-on-fault extension API

TEST(SwitchOnFault, GrantedWhenSlotFree) {
  TestSystem sys(htmLockOpts(true));
  sys.l1(0).txBegin();
  sys.store(0, kA, 1);
  bool granted = false;
  bool called = false;
  sys.l1(0).trySwitchToLockMode([&](bool ok) {
    granted = ok;
    called = true;
  });
  while (!called) {
    ASSERT_TRUE(sys.engine().queue().runOne());
  }
  EXPECT_TRUE(granted);
  EXPECT_EQ(sys.l1(0).mode(), TxMode::STL);
  // The speculative store survives and commits via hlend.
  sys.hlEnd(0);
  EXPECT_EQ(sys.load(1, kA), 1u);
  sys.drain();
  sys.expectCoherent();
}

TEST(SwitchOnFault, DeniedWhenSlotTaken) {
  TestSystem sys(htmLockOpts(true));
  sys.hlBegin(1);
  sys.l1(0).txBegin();
  sys.store(0, kA, 1);
  bool called = false, granted = true;
  sys.l1(0).trySwitchToLockMode([&](bool ok) {
    granted = ok;
    called = true;
  });
  while (!called) sys.engine().queue().runOne();
  EXPECT_FALSE(granted);
  EXPECT_EQ(sys.l1(0).mode(), TxMode::Htm) << "caller decides how to die";
  sys.l1(0).txAbort(AbortCause::Fault);
  sys.hlEnd(1);
  sys.drain();
  sys.expectCoherent();
}

TEST(SwitchOnFault, RefusedOutsideHtmOrAfterPriorAttempt) {
  TestSystem sys(htmLockOpts(true));
  bool granted = true;
  sys.l1(0).trySwitchToLockMode([&](bool ok) { granted = ok; });
  EXPECT_FALSE(granted) << "not in a transaction";
  sys.drain();
}

}  // namespace
}  // namespace lktm::test
