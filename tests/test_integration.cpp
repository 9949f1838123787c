// Whole-stack integration: every Table II system x STAMP analogs x thread
// counts completes, keeps atomicity, keeps SWMR, and is bit-deterministic.
#include <gtest/gtest.h>

#include <cstring>

#include "config/runner.hpp"
#include "config/sweep.hpp"
#include "config/systems.hpp"
#include "workloads/micro.hpp"
#include "workloads/workload.hpp"

namespace lktm::cfg {
namespace {

RunResult run(const std::string& system, const std::string& workload,
              unsigned threads, MachineParams machine = MachineParams::typical()) {
  RunConfig rc;
  rc.machine = machine;
  rc.system = systemByName(system);
  rc.threads = threads;
  return runSimulation(rc, [&] { return wl::makeStamp(workload); });
}

// Cross product property test: "it completes and nothing is ever lost".
struct MatrixCase {
  const char* system;
  const char* workload;
  unsigned threads;
};

class MatrixTest : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(MatrixTest, CompletesCoherentlyAndAtomically) {
  const auto& c = GetParam();
  const auto r = run(c.system, c.workload, c.threads);
  EXPECT_TRUE(r.ok()) << r.str();
  EXPECT_GT(r.cycles, 0u);
  EXPECT_GT(r.totalCommits() + r.htmCommits(), 0u);
}

std::vector<MatrixCase> matrixCases() {
  std::vector<MatrixCase> out;
  const char* systems[] = {"CGL",           "Baseline",       "LosaTM-SAFU",
                           "Lockiller-RAI", "Lockiller-RRI",  "Lockiller-RWI",
                           "Lockiller-RWL", "Lockiller-RWIL", "LockillerTM"};
  const char* workloads[] = {"intruder", "labyrinth", "yada", "kmeans+"};
  for (const char* s : systems) {
    for (const char* w : workloads) {
      for (unsigned t : {2u, 4u}) out.push_back({s, w, t});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(AllSystemsHardWorkloads, MatrixTest,
                         ::testing::ValuesIn(matrixCases()),
                         [](const auto& info) {
                           std::string s = std::string(info.param.system) + "_" +
                                           info.param.workload + "_" +
                                           std::to_string(info.param.threads) + "t";
                           for (auto& c : s) {
                             if (c == '-' || c == '+') c = '_';
                           }
                           return s;
                         });

TEST(Integration, DeterministicAcrossRuns) {
  const auto a = run("LockillerTM", "intruder", 8);
  const auto b = run("LockillerTM", "intruder", 8);
  EXPECT_EQ(a.cycles, b.cycles);
  EXPECT_EQ(a.htmCommits(), b.htmCommits());
  EXPECT_EQ(a.aborts(), b.aborts());
  EXPECT_EQ(a.rejectsSent(), b.rejectsSent());
  EXPECT_EQ(a.messages(), b.messages());
}

TEST(Integration, DeterministicUnderAllPolicies) {
  for (const auto& sys : evaluatedSystems()) {
    const auto a = run(sys.name, "vacation+", 4);
    const auto b = run(sys.name, "vacation+", 4);
    EXPECT_EQ(a.cycles, b.cycles) << sys.name;
    EXPECT_EQ(a.aborts(), b.aborts()) << sys.name;
  }
}

TEST(Integration, SmallCacheStressesOverflowButStaysCorrect) {
  for (const char* sys : {"Baseline", "Lockiller-RWIL", "LockillerTM"}) {
    const auto r = run(sys, "labyrinth", 4, MachineParams::smallCache());
    EXPECT_TRUE(r.ok()) << r.str();
    EXPECT_GT(r.abortCount(AbortCause::Overflow) + r.stlCommits() +
                  r.lockCommits(),
              0u)
        << sys << ": 8KB L1 must trigger the overflow machinery";
  }
}

TEST(Integration, LargeCacheRemovesMostOverflow) {
  const auto small = run("Baseline", "labyrinth", 2, MachineParams::smallCache());
  const auto large = run("Baseline", "labyrinth", 2, MachineParams::largeCache());
  EXPECT_LT(large.abortCount(AbortCause::Overflow),
            small.abortCount(AbortCause::Overflow));
}

TEST(Integration, ThreadScalingKeepsTotalWork) {
  // Fixed total work: commits across all threads are ~constant in the
  // thread count (lock commits + htm commits + stl commits).
  const auto a = run("LockillerTM", "ssca2", 2);
  const auto b = run("LockillerTM", "ssca2", 16);
  EXPECT_EQ(a.totalCommits(), b.totalCommits());
}

TEST(Integration, SweepRunnerPreservesOrderAndLabels) {
  std::vector<SweepJob> jobs;
  for (unsigned t : {2u, 4u}) {
    jobs.push_back({.label = "job" + std::to_string(t),
                    .system = "Baseline",
                    .workload = "counter",
                    .threads = t,
                    .run = [t](sim::SimContext& ctx) {
                      RunConfig rc;
                      rc.system = systemByName("Baseline");
                      rc.threads = t;
                      return runSimulation(
                          rc, [] { return wl::makeCounter(4, 2, 64); }, &ctx);
                    }});
  }
  const auto results = runSweep(std::move(jobs), 2);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].threads, 2u);
  EXPECT_EQ(results[1].threads, 4u);
  EXPECT_TRUE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
}

TEST(Integration, SweepCapturesExceptionsAsFailures) {
  std::vector<SweepJob> jobs;
  jobs.push_back({.label = "boom",
                  .system = "SysX",
                  .workload = "wlY",
                  .threads = 4,
                  .run = [](sim::SimContext&) -> RunResult {
                    throw std::runtime_error("boom");
                  }});
  const auto results = runSweep(std::move(jobs), 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_FALSE(results[0].ok());
  EXPECT_NE(results[0].diagnostic.find("boom"), std::string::npos);
  // The failed cell is still locatable by its sweep coordinates (the old
  // exception path dropped workload/threads, so findResult could never see
  // failed jobs).
  const RunResult* r = findResult(results, "SysX", "wlY", 4);
  ASSERT_NE(r, nullptr);
  // A crash is a Failed run, not a Hang — the old code folded every failure
  // into the hang flag.
  EXPECT_EQ(r->status, RunStatus::Failed);
  EXPECT_FALSE(r->hang());
}

TEST(Integration, SweepHandlesEmptyJobList) {
  const auto results = runSweep({}, 4);
  EXPECT_TRUE(results.empty());
}

TEST(Integration, FindResultLocatesCells) {
  std::vector<RunResult> rs(2);
  rs[0].system = "A";
  rs[0].workload = "w";
  rs[0].threads = 2;
  rs[1].system = "B";
  rs[1].workload = "w";
  rs[1].threads = 4;
  EXPECT_EQ(findResult(rs, "B", "w", 4), &rs[1]);
  EXPECT_EQ(findResult(rs, "B", "w", 8), nullptr);
}

TEST(Integration, BreakdownAccountsForAllCycles) {
  const auto r = run("LockillerTM", "vacation-", 4);
  ASSERT_TRUE(r.ok()) << r.str();
  // Every thread's breakdown sums to <= wall-clock; total > 0.
  for (unsigned tid = 0; tid < 4; ++tid) {
    const cfg::TimeBreakdown bd = r.threadBreakdown(tid);
    EXPECT_LE(bd.total(), r.cycles);
    EXPECT_GT(bd.total(), 0u);
  }
  EXPECT_GT(r.breakdown().total(), 0u);
}

TEST(Integration, Table2RegistryMatchesPaper) {
  const auto systems = evaluatedSystems();
  ASSERT_EQ(systems.size(), 11u);  // 9 paper rows + TL2-STM + Hybrid-TM
  EXPECT_EQ(systems[0].name, "CGL");
  EXPECT_FALSE(systems[0].policy.htmEnabled);
  EXPECT_EQ(systems[1].name, "Baseline");
  EXPECT_EQ(systems[1].policy.conflict, core::ConflictPolicy::RequesterWins);
  EXPECT_TRUE(systems[1].policy.subscribeLock);
  EXPECT_EQ(systems[2].name, "LosaTM-SAFU");
  EXPECT_EQ(systems[2].policy.priority, core::PriorityKind::Progression);
  EXPECT_EQ(systems[5].name, "Lockiller-RWI");
  EXPECT_EQ(systems[5].policy.rejectAction, core::RejectAction::WaitWakeup);
  EXPECT_FALSE(systems[5].policy.htmLock);
  EXPECT_EQ(systems[6].name, "Lockiller-RWL");
  EXPECT_EQ(systems[6].policy.priority, core::PriorityKind::None);
  EXPECT_TRUE(systems[6].policy.htmLock);
  EXPECT_EQ(systems[8].name, "LockillerTM");
  EXPECT_TRUE(systems[8].policy.htmLock);
  EXPECT_TRUE(systems[8].policy.switching);
  EXPECT_FALSE(systems[8].policy.subscribeLock);
  // Backend-defined rows come from the backend registry, after the paper's.
  EXPECT_EQ(systems[9].name, "TL2-STM");
  EXPECT_EQ(systems[9].backend, "tl2");
  EXPECT_FALSE(systems[9].policy.htmEnabled);
  EXPECT_EQ(systems[10].name, "Hybrid-TM");
  EXPECT_EQ(systems[10].backend, "hybrid");
  EXPECT_TRUE(systems[10].policy.htmEnabled);
  EXPECT_FALSE(systems[10].policy.subscribeLock);
  EXPECT_THROW(systemByName("nope"), std::invalid_argument);
}

TEST(Integration, MachinePresetsMatchPaper) {
  const auto typical = MachineParams::typical();
  EXPECT_EQ(typical.numCores, 32u);
  EXPECT_EQ(typical.l1.sizeBytes, 32u * 1024);
  EXPECT_EQ(typical.protocol.l1HitLatency, 2u);
  EXPECT_EQ(typical.protocol.llcLatency, 12u);
  EXPECT_EQ(typical.protocol.memLatency, 100u);
  EXPECT_EQ(typical.mesh.cols * typical.mesh.rows, 32u);
  EXPECT_EQ(MachineParams::smallCache().l1.sizeBytes, 8u * 1024);
  EXPECT_EQ(MachineParams::largeCache().l1.sizeBytes, 128u * 1024);
}

// FNV-1a over every field of every snapshot entry. result_digest covers only
// cycles, commits and aborts; this pins the counters a speed-only change
// could still move (mem.line_reads, dir.llc.hits/misses, histograms...).
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void put(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void put(const std::string& s) {
    put(s.size());
    for (const char c : s) put(static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
  }
};

void foldSnapshot(Fnv& f, const stats::StatSnapshot& snap) {
  f.put(snap.size());
  for (const stats::SnapshotEntry& e : snap.entries()) {
    f.put(e.path);
    f.put(static_cast<std::uint64_t>(e.kind));
    f.put(e.value);
    f.put(e.count);
    f.put(e.sum);
    f.put(e.min);
    f.put(e.max);
    f.put(e.buckets.size());
    for (const auto& [bucket, n] : e.buckets) {
      f.put(bucket);
      f.put(n);
    }
    f.put(e.overflowed ? 1 : 0);
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(e.number));
    std::memcpy(&bits, &e.number, sizeof(bits));
    f.put(bits);
  }
}

TEST(Integration, FullStatsFingerprintUnchanged) {
  struct Cell {
    const char* system;
    const char* workload;
    unsigned threads;
    const char* machine;
  };
  const Cell cells[] = {
      {"Baseline", "genome", 8, "typical"},
      {"LockillerTM", "genome", 8, "typical"},
      {"TL2-STM", "genome", 8, "typical"},
      {"Baseline", "vacation+", 8, "typical"},
      {"LockillerTM", "vacation+", 8, "typical"},
      {"TL2-STM", "vacation+", 8, "typical"},
      {"LockillerTM", "kmeans+", 64, "typical-c64-b8"},
  };
  Fnv f;
  for (const Cell& c : cells) {
    RunConfig rc;
    rc.machine = machineByName(c.machine);
    rc.system = systemByName(c.system);
    rc.threads = c.threads;
    rc.rngSeed = 11;
    const auto r = runSimulation(rc, [&] { return wl::makeStamp(c.workload); });
    ASSERT_TRUE(r.ok()) << r.str();
    f.put(r.cycles);
    foldSnapshot(f, r.stats);
  }
  EXPECT_EQ(f.h, 0xad0dbd3695810baaull) << std::hex << "0x" << f.h;
}

TEST(Integration, MachineValidateLimitsCoresTo512) {
  // Builds the parameters only; no simulation starts.
  MachineOverrides ov;
  ov.cores = 512;
  MachineParams ok = MachineParams::typical();
  applyMachineOverrides(ok, ov);
  EXPECT_NO_THROW(ok.validate());

  ov.cores = 513;
  MachineParams tooMany = MachineParams::typical();
  applyMachineOverrides(tooMany, ov);
  try {
    tooMany.validate();
    ADD_FAILURE() << "513 cores were accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("512"), std::string::npos) << e.what();
  }
}

}  // namespace
}  // namespace lktm::cfg
