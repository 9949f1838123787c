// Best-effort HTM semantics and the recovery mechanism, at protocol level:
// speculative isolation, abort causes, requester-wins vs recovery decisions,
// the three reject actions, pre-image flushing (Fig 3) and wakeups.
#include <gtest/gtest.h>

#include "testbed.hpp"

namespace lktm::test {
namespace {

constexpr Addr kA = 0x100000;
constexpr Addr kB = 0x200040;
constexpr Addr kLock = 0x1000;

TEST(Htm, CommitPublishesSpeculativeStores) {
  TestSystem sys;
  sys.l1(0).txBegin();
  sys.store(0, kA, 5);
  EXPECT_TRUE(sys.l1(0).cache().find(lineOf(kA))->txWrite);
  sys.commit(0);
  EXPECT_FALSE(sys.l1(0).cache().find(lineOf(kA))->transactional());
  EXPECT_EQ(sys.load(1, kA), 5u);
  sys.drain();
  sys.expectCoherent();
}

TEST(Htm, AbortDiscardsSpeculativeStores) {
  TestSystem sys;
  sys.memory().writeWord(kA, 3);
  sys.l1(0).txBegin();
  sys.store(0, kA, 99);
  sys.l1(0).txAbort(AbortCause::Explicit);
  sys.drain();
  EXPECT_EQ(sys.load(1, kA), 3u);  // pre-transaction value
  EXPECT_EQ(sys.aborts(0).size(), 1u);
  EXPECT_EQ(sys.aborts(0)[0], AbortCause::Explicit);
  sys.expectCoherent();
}

/// Records the line of every TxAbortInv at the moment it is sent.
struct AbortInvLog final : coh::MsgTap {
  std::vector<LineAddr> lines;
  void onSend(const coh::Msg& m, noc::NodeId, noc::NodeId) override {
    if (m.type == coh::MsgType::TxAbortInv) lines.push_back(m.line);
  }
  void onDeliver(const coh::Msg&, noc::NodeId, noc::NodeId) override {}
};

TEST(Htm, AbortInvalidatesWriteSetInCacheIndexOrder) {
  // The abort walks only the transaction's footprint, yet must send the
  // TxAbortInvs in the order a whole-cache walk would: by set, not by the
  // order the lines were written.
  TestSystem sys;
  const LineAddr set0 = lineOf(kA) - lineOf(kA) % sys.l1(0).cache().numSets();
  AbortInvLog log;
  sys.ctx().setVerifyTap(&log);
  sys.l1(0).txBegin();
  for (const LineAddr set : {5u, 0u, 3u}) sys.store(0, byteOf(set0 + set), set);
  sys.l1(0).txAbort(AbortCause::Explicit);
  sys.ctx().setVerifyTap(nullptr);
  EXPECT_EQ(log.lines, (std::vector<LineAddr>{set0, set0 + 3, set0 + 5}));
  sys.drain();
  sys.expectCoherent();
}

TEST(Htm, AbortRestoresPreImageOfDirtyLine) {
  // A line dirty with *pre-transaction* data is speculatively overwritten;
  // the WbClean pre-image flush (Fig 3 support) must preserve the old value.
  TestSystem sys;
  sys.store(0, kA, 7);  // non-speculative dirty
  sys.l1(0).txBegin();
  sys.store(0, kA, 9);  // speculative; pre-image 7 flushed to LLC
  sys.l1(0).txAbort(AbortCause::Explicit);
  sys.drain();
  EXPECT_EQ(sys.load(1, kA), 7u);
  sys.expectCoherent();
}

TEST(Htm, RequesterWinsAbortsResponder) {
  TestSystem sys;  // default policy: requester-wins
  sys.l1(0).txBegin();
  sys.store(0, kA, 1);
  sys.l1(1).txBegin();
  sys.store(1, kA, 2);  // conflicting request wins
  EXPECT_EQ(sys.aborts(0).size(), 1u);
  EXPECT_EQ(sys.aborts(0)[0], AbortCause::MemConflict);
  EXPECT_EQ(sys.l1(0).mode(), TxMode::None);
  sys.commit(1);
  EXPECT_EQ(sys.load(0, kA), 2u);
  sys.drain();
  sys.expectCoherent();
}

TEST(Htm, RequesterWinsOnReadSetConflict) {
  TestSystem sys;
  sys.l1(0).txBegin();
  sys.load(0, kA);  // read set
  sys.store(1, kA, 2);  // non-tx exclusive request
  EXPECT_EQ(sys.aborts(0).size(), 1u);
  EXPECT_EQ(sys.aborts(0)[0], AbortCause::NonTran);
  sys.drain();
  sys.expectCoherent();
}

TEST(Htm, ConcurrentReadersDontConflict) {
  TestSystem sys;
  sys.memory().writeWord(kA, 11);
  sys.l1(0).txBegin();
  EXPECT_EQ(sys.load(0, kA), 11u);
  sys.l1(1).txBegin();
  EXPECT_EQ(sys.load(1, kA), 11u);  // read-read: no conflict
  EXPECT_TRUE(sys.aborts(0).empty());
  EXPECT_TRUE(sys.aborts(1).empty());
  sys.commit(0);
  sys.commit(1);
  sys.drain();
  sys.expectCoherent();
}

TEST(Htm, LockWordConflictClassifiedMutex) {
  TestSystem sys;
  sys.l1(0).setLockLine(lineOf(kLock));
  sys.l1(1).setLockLine(lineOf(kLock));
  sys.l1(0).txBegin();
  sys.load(0, kLock);      // subscribe the fallback lock
  sys.store(1, kLock, 1);  // another thread acquires it non-speculatively
  ASSERT_EQ(sys.aborts(0).size(), 1u);
  EXPECT_EQ(sys.aborts(0)[0], AbortCause::Mutex);
  sys.drain();
  sys.expectCoherent();
}

TEST(Htm, OverflowAbortsWithoutSwitching) {
  TestSystemOptions opt;
  opt.l1 = mem::CacheGeometry{8 * 1024, 4};  // 32 sets
  TestSystem sys(opt);
  sys.l1(0).txBegin();
  for (int i = 0; i < 4; ++i) {
    sys.store(0, kA + static_cast<Addr>(i) * 32 * kLineBytes, 1);
  }
  // Fifth line in the same set: every way is transactional -> overflow.
  bool done = false;
  sys.l1(0).store(kA + 4ull * 32 * kLineBytes, 1, [&] { done = true; });
  sys.drain();
  EXPECT_FALSE(done) << "the overflowing store belongs to the dead transaction";
  ASSERT_EQ(sys.aborts(0).size(), 1u);
  EXPECT_EQ(sys.aborts(0)[0], AbortCause::Overflow);
  // All speculative stores rolled back.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(sys.load(1, kA + static_cast<Addr>(i) * 32 * kLineBytes), 0u);
  }
  sys.expectCoherent();
}

TEST(Htm, ReadSetEvictionAlsoOverflows) {
  TestSystemOptions opt;
  opt.l1 = mem::CacheGeometry{8 * 1024, 4};
  TestSystem sys(opt);
  sys.l1(0).txBegin();
  for (int i = 0; i < 4; ++i) {
    sys.load(0, kA + static_cast<Addr>(i) * 32 * kLineBytes);
  }
  auto done = sys.asyncLoad(0, kA + 4ull * 32 * kLineBytes);
  sys.drain();
  EXPECT_FALSE(*done);
  ASSERT_EQ(sys.aborts(0).size(), 1u);
  EXPECT_EQ(sys.aborts(0)[0], AbortCause::Overflow);
}

// ------------------------------------------------------ recovery mechanism

TEST(Recovery, HigherPriorityResponderRejects) {
  TestSystemOptions opt;
  opt.policy = recoveryPolicy(core::RejectAction::WaitWakeup);
  TestSystem sys(opt);
  sys.setPriority(0, 100);
  sys.setPriority(1, 10);
  sys.l1(0).txBegin();
  sys.store(0, kA, 1);
  sys.l1(1).txBegin();
  auto done = sys.asyncStore(1, kA, 2);
  sys.drain();
  EXPECT_FALSE(*done) << "low-priority request must be held";
  EXPECT_TRUE(sys.aborts(0).empty()) << "high-priority holder survives";
  EXPECT_TRUE(sys.aborts(1).empty()) << "WaitWakeup does not abort the requester";
  EXPECT_EQ(sys.l1(0).txCounters().rejectsSent, 1u);
  EXPECT_EQ(sys.l1(1).txCounters().rejectsReceived, 1u);
  // Holder commits -> wakeup -> held request completes.
  sys.commit(0);
  sys.runUntil(*done);
  EXPECT_EQ(sys.l1(0).txCounters().wakeupsSent, 1u);
  sys.commit(1);
  EXPECT_EQ(sys.load(0, kA), 2u);
  sys.drain();
  sys.expectCoherent();
}

TEST(Recovery, AbortAlsoWakesWaiters) {
  TestSystemOptions opt;
  opt.policy = recoveryPolicy(core::RejectAction::WaitWakeup);
  TestSystem sys(opt);
  sys.setPriority(0, 100);
  sys.setPriority(1, 10);
  sys.l1(0).txBegin();
  sys.store(0, kA, 1);
  sys.l1(1).txBegin();
  auto done = sys.asyncStore(1, kA, 2);
  sys.drain();
  EXPECT_FALSE(*done);
  sys.l1(0).txAbort(AbortCause::Explicit);  // e.g. a fault elsewhere
  sys.runUntil(*done);
  sys.commit(1);
  EXPECT_EQ(sys.load(0, kA), 2u);
  sys.drain();
  sys.expectCoherent();
}

TEST(Recovery, LowerPriorityResponderStillAborts) {
  TestSystemOptions opt;
  opt.policy = recoveryPolicy(core::RejectAction::WaitWakeup);
  TestSystem sys(opt);
  sys.setPriority(0, 10);
  sys.setPriority(1, 100);
  sys.l1(0).txBegin();
  sys.store(0, kA, 1);
  sys.l1(1).txBegin();
  sys.store(1, kA, 2);  // higher priority requester wins as usual
  ASSERT_EQ(sys.aborts(0).size(), 1u);
  EXPECT_EQ(sys.aborts(0)[0], AbortCause::MemConflict);
  sys.commit(1);
  sys.drain();
  sys.expectCoherent();
}

TEST(Recovery, SelfAbortActionAbortsRequester) {
  TestSystemOptions opt;
  opt.policy = recoveryPolicy(core::RejectAction::SelfAbort);
  TestSystem sys(opt);
  sys.setPriority(0, 100);
  sys.setPriority(1, 10);
  sys.l1(0).txBegin();
  sys.store(0, kA, 1);
  sys.l1(1).txBegin();
  auto done = sys.asyncStore(1, kA, 2);
  sys.drain();
  EXPECT_FALSE(*done);
  ASSERT_EQ(sys.aborts(1).size(), 1u);
  EXPECT_EQ(sys.aborts(1)[0], AbortCause::MemConflict);
  EXPECT_TRUE(sys.aborts(0).empty());
  sys.commit(0);
  sys.drain();
  sys.expectCoherent();
}

TEST(Recovery, RetryLaterEventuallySucceeds) {
  TestSystemOptions opt;
  opt.policy = recoveryPolicy(core::RejectAction::RetryLater);
  TestSystem sys(opt);
  sys.setPriority(0, 100);
  sys.setPriority(1, 10);
  sys.l1(0).txBegin();
  sys.store(0, kA, 1);
  sys.l1(1).txBegin();
  auto done = sys.asyncStore(1, kA, 2);
  // Let a few retry rounds happen while the holder still runs.
  for (int i = 0; i < 200 && !*done; ++i) sys.engine().queue().runOne();
  EXPECT_FALSE(*done);
  sys.commit(0);
  sys.runUntil(*done);  // a later retry wins
  EXPECT_GT(sys.l1(1).txCounters().rejectsReceived, 0u);
  sys.commit(1);
  sys.drain();
  sys.expectCoherent();
}

TEST(Recovery, InvalidationRejectKeepsSharedCopy) {
  // Exclusive request against a *read* line of a higher-priority tx: the
  // sharer rejects the Inv and keeps its S copy.
  TestSystemOptions opt;
  opt.policy = recoveryPolicy(core::RejectAction::WaitWakeup);
  TestSystem sys(opt);
  sys.memory().writeWord(kA, 4);
  sys.setPriority(0, 100);
  sys.setPriority(1, 10);
  sys.load(1, kA);  // make the line shared first
  sys.l1(0).txBegin();
  sys.load(0, kA);
  sys.l1(1).txBegin();
  auto done = sys.asyncStore(1, kA, 9);  // upgrade rejected by core 0
  sys.drain();
  EXPECT_FALSE(*done);
  ASSERT_NE(sys.l1(0).cache().find(lineOf(kA)), nullptr);
  EXPECT_TRUE(sys.l1(0).cache().find(lineOf(kA))->txRead);
  sys.commit(0);
  sys.runUntil(*done);
  sys.commit(1);
  sys.drain();
  sys.expectCoherent();
}

TEST(Recovery, TieBrokenByCoreIdEndToEnd) {
  TestSystemOptions opt;
  opt.policy = recoveryPolicy(core::RejectAction::WaitWakeup);
  TestSystem sys(opt);
  sys.setPriority(0, 5);
  sys.setPriority(1, 5);
  // Core 0 (smaller id) holds: it wins the tie and rejects core 1.
  sys.l1(0).txBegin();
  sys.store(0, kA, 1);
  sys.l1(1).txBegin();
  auto done = sys.asyncStore(1, kA, 2);
  sys.drain();
  EXPECT_FALSE(*done);
  EXPECT_TRUE(sys.aborts(0).empty());
  sys.commit(0);
  sys.runUntil(*done);
  sys.commit(1);
  sys.drain();
  sys.expectCoherent();
}

TEST(Recovery, NonTxRequesterStillBeatsHtmTx) {
  // The paper keeps non_tran aborts under every configuration.
  TestSystemOptions opt;
  opt.policy = recoveryPolicy(core::RejectAction::WaitWakeup);
  TestSystem sys(opt);
  sys.setPriority(0, 1'000'000);
  sys.l1(0).txBegin();
  sys.store(0, kA, 1);
  sys.store(1, kA, 2);  // non-transactional store
  ASSERT_EQ(sys.aborts(0).size(), 1u);
  EXPECT_EQ(sys.aborts(0)[0], AbortCause::NonTran);
  sys.drain();
  sys.expectCoherent();
}

TEST(Recovery, TxBitsClearAfterCommitAndAbort) {
  TestSystemOptions opt;
  opt.policy = recoveryPolicy();
  TestSystem sys(opt);
  sys.l1(0).txBegin();
  sys.load(0, kA);
  sys.store(0, kB, 1);
  sys.commit(0);
  EXPECT_EQ(sys.l1(0).cache().countIf(
                [](const mem::CacheEntry& e) { return e.transactional(); }),
            0u);
  sys.l1(0).txBegin();
  sys.store(0, kA, 2);
  sys.l1(0).txAbort(AbortCause::Explicit);
  EXPECT_EQ(sys.l1(0).cache().countIf(
                [](const mem::CacheEntry& e) { return e.transactional(); }),
            0u);
  sys.drain();
  sys.expectCoherent();
}

}  // namespace
}  // namespace lktm::test
