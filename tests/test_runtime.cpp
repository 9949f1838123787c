// The software layer: Listing 1 / Listing 2 codegen, lock implementations,
// retry strategy — validated structurally and end-to-end on real CPUs.
#include <gtest/gtest.h>

#include "cpu_harness.hpp"
#include "runtime/backends/lockiller.hpp"
#include "workloads/address_space.hpp"

namespace lktm::test {
namespace {

using cpu::Op;
using cpu::ProgramBuilder;
using rt::RuntimeKind;
using tm::LockillerBackend;

constexpr Addr kCounter = 0x100000;

/// The lock-elision backend of `kind` around the shared fallback lock.
LockillerBackend backendOf(RuntimeKind kind, const rt::RetryPolicy& retry = {}) {
  tm::BackendConfig cfg;
  cfg.retry = retry;
  cfg.lockAddr = wl::kFallbackLockAddr;
  return LockillerBackend(cfg, kind, rt::toString(kind));
}

cpu::Program incrementProgram(LockillerBackend& backend, unsigned tid,
                              unsigned iters) {
  ProgramBuilder b;
  backend.emitProgramStart(b, tid, 4);
  b.mark(TimeCat::NonTran);
  b.compute(static_cast<std::int64_t>(5 + 3 * tid));
  for (unsigned i = 0; i < iters; ++i) {
    backend.emitTransaction(b, [](ProgramBuilder& pb) {
      pb.li(1, kCounter);
      pb.load(2, 1);
      pb.addi(2, 2, 1);
      pb.store(1, 2);
    });
    b.compute(15);
  }
  b.barrier();
  b.halt();
  return b.build();
}

unsigned countOps(const cpu::Program& p, Op op) {
  unsigned n = 0;
  for (const auto& i : p.code) n += i.op == op;
  return n;
}

// ------------------------------------------------------------- structural

TEST(Runtime, KindSelection) {
  core::TmPolicy cgl;
  cgl.htmEnabled = false;
  EXPECT_EQ(rt::runtimeFor(cgl), RuntimeKind::CGL);
  core::TmPolicy base;
  EXPECT_EQ(rt::runtimeFor(base), RuntimeKind::BestEffort);
  core::TmPolicy hl;
  hl.htmLock = true;
  EXPECT_EQ(rt::runtimeFor(hl), RuntimeKind::HtmLock);
}

TEST(Runtime, CglUsesNoTransactions) {
  LockillerBackend r = backendOf(RuntimeKind::CGL);
  const auto p = incrementProgram(r, 0, 1);
  EXPECT_EQ(countOps(p, Op::XBegin), 0u);
  EXPECT_EQ(countOps(p, Op::HlBegin), 0u);
  EXPECT_GT(countOps(p, Op::Cas), 0u);  // lock acquisition
}

TEST(Runtime, BestEffortSubscribesAndAbortsOnHeldLock) {
  // Listing 1 lines 8-9: load of the lock word inside the tx + xabort.
  LockillerBackend r = backendOf(RuntimeKind::BestEffort);
  const auto p = incrementProgram(r, 0, 1);
  EXPECT_EQ(countOps(p, Op::XBegin), 1u);
  EXPECT_EQ(countOps(p, Op::XAbort), 1u);
  EXPECT_EQ(countOps(p, Op::HlBegin), 0u);
  EXPECT_EQ(countOps(p, Op::TTest), 0u);
}

TEST(Runtime, HtmLockDoesNotSubscribeAndUsesListing2) {
  // The grey modifications: no lock-word subscription (no xabort), hlbegin
  // on the fallback path, ttest-dispatched release.
  LockillerBackend r = backendOf(RuntimeKind::HtmLock);
  const auto p = incrementProgram(r, 0, 1);
  EXPECT_EQ(countOps(p, Op::XBegin), 1u);
  EXPECT_EQ(countOps(p, Op::XAbort), 0u);
  EXPECT_EQ(countOps(p, Op::HlBegin), 1u);
  EXPECT_EQ(countOps(p, Op::HlEnd), 2u);  // STL and TL branches
  EXPECT_EQ(countOps(p, Op::TTest), 1u);
}

TEST(Runtime, McsNodesAreDistinctLines) {
  LockillerBackend r = backendOf(RuntimeKind::CGL);
  EXPECT_NE(lineOf(r.mcsNodeAddr(0)), lineOf(wl::kFallbackLockAddr));
  for (unsigned a = 0; a < 32; ++a) {
    for (unsigned b = a + 1; b < 32; ++b) {
      EXPECT_NE(lineOf(r.mcsNodeAddr(a)), lineOf(r.mcsNodeAddr(b)));
    }
  }
}

// -------------------------------------------------------------- end-to-end

class RuntimeE2E : public ::testing::TestWithParam<RuntimeKind> {};

TEST_P(RuntimeE2E, CriticalSectionsExecuteExactlyOnce) {
  const RuntimeKind kind = GetParam();
  rt::RetryPolicy retry;
  LockillerBackend runtime = backendOf(kind, retry);
  TestSystemOptions opt;
  opt.cores = 4;
  opt.policy = kind == RuntimeKind::HtmLock ? htmLockPolicy(true) : recoveryPolicy();
  if (kind == RuntimeKind::CGL) opt.policy.htmEnabled = false;
  CpuHarness h(4, opt);
  const unsigned iters = 20;
  for (CoreId c = 0; c < 4; ++c) {
    h.setProgram(c, incrementProgram(runtime, static_cast<unsigned>(c), iters));
  }
  h.run();
  EXPECT_EQ(h.read(kCounter), 4u * iters);
  h.sys().expectCoherent();
}

INSTANTIATE_TEST_SUITE_P(AllKinds, RuntimeE2E,
                         ::testing::Values(RuntimeKind::CGL, RuntimeKind::BestEffort,
                                           RuntimeKind::HtmLock),
                         [](const auto& info) {
                           std::string s = toString(info.param);
                           for (auto& c : s) {
                             if (c == '-') c = '_';
                           }
                           return s;
                         });

TEST(Runtime, TestAndSetCglAlsoCorrect) {
  rt::RetryPolicy retry;
  retry.cglLock = rt::LockImpl::TestAndSet;
  LockillerBackend runtime = backendOf(RuntimeKind::CGL, retry);
  TestSystemOptions opt;
  opt.cores = 4;
  opt.policy.htmEnabled = false;
  CpuHarness h(4, opt);
  for (CoreId c = 0; c < 4; ++c) {
    h.setProgram(c, incrementProgram(runtime, static_cast<unsigned>(c), 15));
  }
  h.run();
  EXPECT_EQ(h.read(kCounter), 60u);
}

TEST(Runtime, BestEffortFallsBackOnFault) {
  // A syscall inside every critical section: best-effort HTM cannot commit a
  // single one speculatively; all must complete via the fallback lock.
  LockillerBackend runtime = backendOf(RuntimeKind::BestEffort);
  TestSystemOptions opt;
  opt.cores = 2;
  CpuHarness h(2, opt);
  for (CoreId c = 0; c < 2; ++c) {
    ProgramBuilder b;
    runtime.emitProgramStart(b, static_cast<unsigned>(c), 2);
    for (int i = 0; i < 5; ++i) {
      runtime.emitTransaction(b, [&](ProgramBuilder& pb) {
        pb.li(1, kCounter);
        pb.load(2, 1);
        pb.addi(2, 2, 1);
        pb.syscall();
        pb.store(1, 2);
      });
    }
    b.barrier();
    b.halt();
    h.setProgram(c, b.build());
  }
  h.run();
  EXPECT_EQ(h.read(kCounter), 10u);
  const auto& tx0 = h.cpu(0).txCounters();
  const auto& tx1 = h.cpu(1).txCounters();
  EXPECT_EQ(tx0.htmCommits + tx1.htmCommits, 0u);
  EXPECT_GE(tx0.abortCount(AbortCause::Fault) + tx1.abortCount(AbortCause::Fault), 10u);
}

TEST(Runtime, HtmLockFaultGoesToTlAndSurvives) {
  LockillerBackend runtime = backendOf(RuntimeKind::HtmLock);
  TestSystemOptions opt;
  opt.cores = 2;
  opt.policy = htmLockPolicy(true);
  CpuHarness h(2, opt);
  for (CoreId c = 0; c < 2; ++c) {
    ProgramBuilder b;
    runtime.emitProgramStart(b, static_cast<unsigned>(c), 2);
    for (int i = 0; i < 5; ++i) {
      runtime.emitTransaction(b, [&](ProgramBuilder& pb) {
        pb.li(1, kCounter);
        pb.load(2, 1);
        pb.addi(2, 2, 1);
        pb.syscall();
        pb.store(1, 2);
      });
    }
    b.barrier();
    b.halt();
    h.setProgram(c, b.build());
  }
  h.run();
  EXPECT_EQ(h.read(kCounter), 10u);
  EXPECT_EQ(h.cpu(0).txCounters().lockCommits + h.cpu(1).txCounters().lockCommits,
            10u);
}

TEST(Runtime, SwitchingModeCompletesOverflowingSections) {
  // Critical sections whose write sets overflow a tiny L1: with switchingMode
  // they complete as STL without ever acquiring the software lock.
  LockillerBackend runtime = backendOf(RuntimeKind::HtmLock);
  TestSystemOptions opt;
  opt.cores = 2;
  opt.policy = htmLockPolicy(true);
  opt.l1 = mem::CacheGeometry{8 * 1024, 4};  // 32 sets
  CpuHarness h(2, opt);
  for (CoreId c = 0; c < 2; ++c) {
    ProgramBuilder b;
    runtime.emitProgramStart(b, static_cast<unsigned>(c), 2);
    for (int i = 0; i < 3; ++i) {
      runtime.emitTransaction(b, [&](ProgramBuilder& pb) {
        // Six same-set lines (disjoint per core) force an overflow.
        for (int j = 0; j < 6; ++j) {
          pb.li(1, static_cast<std::int64_t>(0x100000 + c * 0x40000 +
                                             static_cast<Addr>(j) * 32 * kLineBytes));
          pb.load(2, 1);
          pb.addi(2, 2, 1);
          pb.store(1, 2);
        }
      });
      b.compute(20);
    }
    b.barrier();
    b.halt();
    h.setProgram(c, b.build());
  }
  h.run();
  for (CoreId c = 0; c < 2; ++c) {
    for (int j = 0; j < 6; ++j) {
      EXPECT_EQ(h.read(0x100000 + static_cast<Addr>(c) * 0x40000 +
                       static_cast<Addr>(j) * 32 * kLineBytes),
                3u);
    }
  }
  const auto stl = h.cpu(0).txCounters().stlCommits + h.cpu(1).txCounters().stlCommits;
  EXPECT_GT(stl, 0u) << "switchingMode should have rescued overflow aborts";
}

TEST(Runtime, SpinBackoffClampBoundary) {
  // The emitted backoff loop doubles the register *before* clamping, so the
  // clamped cap must leave headroom for one doubling in a signed int64.
  rt::RetryPolicy p;
  EXPECT_EQ(p.clampedSpinBackoff(), p.spinBackoff);
  EXPECT_EQ(p.clampedSpinBackoffMax(), p.spinBackoffMax);

  p.spinBackoffMax = rt::RetryPolicy::kSpinBackoffCeiling - 1;
  EXPECT_EQ(p.clampedSpinBackoffMax(), rt::RetryPolicy::kSpinBackoffCeiling - 1);
  p.spinBackoffMax = rt::RetryPolicy::kSpinBackoffCeiling;
  EXPECT_EQ(p.clampedSpinBackoffMax(), rt::RetryPolicy::kSpinBackoffCeiling);
  p.spinBackoffMax = rt::RetryPolicy::kSpinBackoffCeiling + 1;
  EXPECT_EQ(p.clampedSpinBackoffMax(), rt::RetryPolicy::kSpinBackoffCeiling);
  p.spinBackoffMax = std::numeric_limits<Cycle>::max();
  EXPECT_EQ(p.clampedSpinBackoffMax(), rt::RetryPolicy::kSpinBackoffCeiling);

  // One doubling of anything at or below the clamp stays a valid int64.
  const auto clamped = static_cast<std::int64_t>(p.clampedSpinBackoffMax());
  EXPECT_GT(clamped, 0);
  EXPECT_LE(clamped, std::numeric_limits<std::int64_t>::max() / 2);

  // The initial backoff is clamped against the effective cap, not the raw one.
  p.spinBackoffMax = 16;
  p.spinBackoff = 1000;
  EXPECT_EQ(p.clampedSpinBackoff(), 16u);
}

TEST(Runtime, HugeSpinBackoffCapRunsCorrectly) {
  // A cap of Cycle max used to be loaded verbatim into a signed register
  // (becoming -1) and the pre-clamp doubling could overflow. With the clamp
  // the contended fallback path must still produce the exact counter value.
  rt::RetryPolicy retry;
  retry.maxRetries = 1;  // force the lock path under conflicts
  retry.spinBackoffMax = std::numeric_limits<Cycle>::max();
  LockillerBackend runtime = backendOf(RuntimeKind::BestEffort, retry);
  TestSystemOptions opt;
  opt.cores = 4;
  CpuHarness h(4, opt);
  for (CoreId c = 0; c < 4; ++c) {
    h.setProgram(c, incrementProgram(runtime, static_cast<unsigned>(c), 25));
  }
  h.run();
  EXPECT_EQ(h.read(kCounter), 100u);
}

TEST(Runtime, RetryExhaustionTakesFallback) {
  // With zero retries every conflict abort goes straight to the lock.
  rt::RetryPolicy retry;
  retry.maxRetries = 1;
  LockillerBackend runtime = backendOf(RuntimeKind::BestEffort, retry);
  TestSystemOptions opt;
  opt.cores = 4;
  CpuHarness h(4, opt);
  for (CoreId c = 0; c < 4; ++c) {
    h.setProgram(c, incrementProgram(runtime, static_cast<unsigned>(c), 25));
  }
  h.run();
  EXPECT_EQ(h.read(kCounter), 100u);
}

}  // namespace
}  // namespace lktm::test
