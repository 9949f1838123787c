// The sweep path end to end: worker-pool exception capture, per-job
// determinism across host-thread counts, the manifest orchestrator (done
// records, resume, retry classification, budgets) and the bit-identical
// merged-artifact guarantee an interrupted sweep must keep.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "config/artifact.hpp"
#include "config/distrib.hpp"
#include "config/orchestrator.hpp"
#include "config/sweep.hpp"
#include "stats/json.hpp"

namespace lktm::test {
namespace {

namespace fs = std::filesystem;
using namespace lktm::cfg;

std::string tempDir(const std::string& name) {
  const fs::path p = fs::temp_directory_path() / ("lktm_test_" + name);
  fs::remove_all(p);
  fs::create_directories(p);
  return p.string();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The small real grid the orchestrator tests run: micro workloads so every
/// job finishes in milliseconds.
SweepManifest testManifest(const std::string& artifactDir) {
  return makeManifest(artifactDir, "typical", {"Baseline", "LockillerTM"},
                      {"counter", "bank"}, {2}, kDefaultSweepSeed);
}

/// A runner that simulates nothing: a canned Ok result that differs per job,
/// so bookkeeping tests run many jobs in milliseconds.
RunResult cannedResult(const JobSpec& spec, const OrchestratorOptions&,
                       sim::SimContext&) {
  RunResult r;
  r.system = spec.system;
  r.workload = spec.workload;
  r.machine = spec.machine;
  r.threads = spec.threads;
  r.seed = jobRunSeed(spec.seed, spec.system, spec.workload, spec.threads);
  r.cycles = 1000 + r.seed % 997;
  r.wallSeconds = 0.001 * static_cast<double>(r.seed % 7);  // zeroed by the merge
  return r;
}

/// `jobs` distinct cells for the canned runner.
SweepManifest cannedManifest(const std::string& artifactDir, std::size_t jobs) {
  SweepManifest m;
  m.artifactDir = artifactDir;
  for (std::size_t i = 0; i < jobs; ++i) {
    JobRecord j;
    j.spec = JobSpec{"Fake", "w" + std::to_string(i), "typical", 2, kDefaultSweepSeed};
    m.jobs.push_back(j);
  }
  return m;
}

/// Visible (non-tmp) entries of a directory; empty when it does not exist.
std::set<std::string> listFiles(const std::string& dir) {
  std::set<std::string> names;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end; it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name[0] != '.') names.insert(name);
  }
  return names;
}

// ---------------------------------------------------------------- runSweep

TEST(Sweep, NonStdExceptionIsCapturedAsFailure) {
  // A throw that is not derived from std::exception used to escape the
  // worker thread and std::terminate the whole process.
  std::vector<SweepJob> jobs;
  jobs.push_back({.label = "boom",
                  .system = "S",
                  .workload = "w",
                  .threads = 2,
                  .run = [](sim::SimContext&) -> RunResult { throw 42; }});
  const auto results = runSweep(std::move(jobs), 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RunStatus::Failed);
  EXPECT_NE(results[0].diagnostic.find("non-standard exception"), std::string::npos);
  EXPECT_FALSE(results[0].hang());
}

TEST(Sweep, JobSeedTravelsIntoFailedResults) {
  std::vector<SweepJob> jobs;
  jobs.push_back({.label = "boom",
                  .system = "S",
                  .workload = "w",
                  .threads = 2,
                  .seed = 0x9e3779b97f4a7c15ull,
                  .run = [](sim::SimContext&) -> RunResult {
                    throw std::runtime_error("x");
                  }});
  const auto results = runSweep(std::move(jobs), 1);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].seed, 0x9e3779b97f4a7c15ull);
}

TEST(Sweep, JobRunSeedDependsOnEveryCoordinate) {
  const std::uint64_t base = jobRunSeed(11, "A", "w", 2);
  EXPECT_EQ(jobRunSeed(11, "A", "w", 2), base);  // deterministic
  EXPECT_NE(jobRunSeed(12, "A", "w", 2), base);
  EXPECT_NE(jobRunSeed(11, "B", "w", 2), base);
  EXPECT_NE(jobRunSeed(11, "A", "x", 2), base);
  EXPECT_NE(jobRunSeed(11, "A", "w", 4), base);
  // Concatenation ambiguity must not collide.
  EXPECT_NE(jobRunSeed(11, "ab", "c", 2), jobRunSeed(11, "a", "bc", 2));
}

TEST(Sweep, ResultsIndependentOfHostThreads) {
  // The determinism contract: per-job results depend only on the job spec,
  // never on hostThreads or on what a reused worker context ran before.
  std::vector<RunResult> reference;
  for (const unsigned hostThreads : {1u, 2u, 4u}) {
    SweepManifest m = testManifest("");
    OrchestratorOptions opts;
    opts.hostThreads = hostThreads;
    std::vector<RunResult> results;
    runManifest(m, "", opts, {}, &results);
    ASSERT_EQ(results.size(), 4u);
    for (const auto& r : results) {
      EXPECT_TRUE(r.ok()) << r.str();
    }
    if (reference.empty()) {
      reference = std::move(results);
      continue;
    }
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(results[i].cycles, reference[i].cycles)
          << "hostThreads=" << hostThreads << " job " << i;
      EXPECT_EQ(results[i].seed, reference[i].seed);
      EXPECT_TRUE(results[i].stats == reference[i].stats)
          << "snapshot diverged at hostThreads=" << hostThreads << " job " << i;
    }
  }
}

// ---------------------------------------------------------------- manifest

TEST(Orchestrator, ManifestRoundTripPreservesU64Seeds) {
  SweepManifest m;
  m.artifactDir = "runs";
  JobRecord j;
  // Above 2^53: a double-typed JSON layer would silently round this.
  j.spec = JobSpec{"LockillerTM", "genome", "typical", 32, 0x9e3779b97f4a7c15ull};
  j.state = JobState::Timeout;
  j.attempts = 3;
  j.diagnostic = "wall-clock budget exceeded";
  j.cycles = 0xfedcba9876543210ull;
  m.jobs.push_back(j);

  const SweepManifest back = SweepManifest::fromJson(m.toJson());
  ASSERT_EQ(back.jobs.size(), 1u);
  EXPECT_EQ(back.artifactDir, "runs");
  EXPECT_TRUE(back.jobs[0].spec == j.spec);
  EXPECT_EQ(back.jobs[0].spec.seed, 0x9e3779b97f4a7c15ull);
  EXPECT_EQ(back.jobs[0].cycles, 0xfedcba9876543210ull);
  EXPECT_EQ(back.jobs[0].state, JobState::Timeout);
  EXPECT_EQ(back.jobs[0].attempts, 3u);
  EXPECT_EQ(back.jobs[0].diagnostic, "wall-clock budget exceeded");

  // And byte-stable: re-serializing the parsed manifest reproduces itself.
  EXPECT_EQ(back.toJson(), m.toJson());
}

TEST(Orchestrator, ManifestSaveIsAtomicAndLoadable) {
  const std::string dir = tempDir("manifest_save");
  const std::string path = dir + "/sweep.json";
  SweepManifest m = testManifest(dir + "/runs");
  ASSERT_TRUE(m.save(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // tmp renamed away
  const SweepManifest back = SweepManifest::load(path);
  ASSERT_EQ(back.jobs.size(), m.jobs.size());
  EXPECT_EQ(back.artifactDir, m.artifactDir);
  EXPECT_TRUE(back.jobs[2].spec == m.jobs[2].spec);
}

TEST(Orchestrator, DuplicateJobIdsRejected) {
  SweepManifest m;
  m.jobs.resize(2);
  m.jobs[0].spec = JobSpec{"A", "w", "typical", 2, 11};
  m.jobs[1].spec = JobSpec{"A", "w", "typical", 2, 11};
  EXPECT_THROW((void)SweepManifest::fromJson(m.toJson()), std::runtime_error);
}

// ------------------------------------------------------------- orchestrator

TEST(Orchestrator, ResumeSkipsCompletedJobs) {
  const std::string dir = tempDir("resume_skip");
  const std::string path = dir + "/sweep.json";
  SweepManifest m = testManifest(dir + "/runs");

  std::atomic<unsigned> invocations{0};
  auto countingRunner = [&](const JobSpec& spec, const OrchestratorOptions& o,
                            sim::SimContext& ctx) {
    ++invocations;
    return runSpec(spec, o, ctx);
  };

  OrchestratorOptions opts;
  opts.hostThreads = 1;
  const OrchestratorReport first = runManifest(m, path, opts, countingRunner);
  EXPECT_EQ(first.ran, 4u);
  EXPECT_EQ(first.ok, 4u);
  EXPECT_EQ(invocations.load(), 4u);
  EXPECT_TRUE(m.complete());
  EXPECT_TRUE(m.allOk());

  // Reload from disk (what a fresh process would see) and run again: nothing
  // executes.
  SweepManifest resumed = SweepManifest::load(path);
  const OrchestratorReport second = runManifest(resumed, path, opts, countingRunner);
  EXPECT_EQ(second.ran, 0u);
  EXPECT_EQ(second.skipped, 4u);
  EXPECT_EQ(second.ok, 4u);
  EXPECT_EQ(invocations.load(), 4u);
}

TEST(Orchestrator, ResumedResultsIncludeSkippedJobs) {
  const std::string dir = tempDir("resume_results");
  const std::string path = dir + "/sweep.json";
  SweepManifest m = testManifest(dir + "/runs");
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  std::vector<RunResult> full;
  runManifest(m, path, opts, {}, &full);
  ASSERT_EQ(full.size(), 4u);

  SweepManifest resumed = SweepManifest::load(path);
  std::vector<RunResult> reloaded;
  runManifest(resumed, path, opts, {}, &reloaded);
  ASSERT_EQ(reloaded.size(), 4u);
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_TRUE(reloaded[i].ok()) << reloaded[i].str();
    EXPECT_EQ(reloaded[i].cycles, full[i].cycles);
    EXPECT_EQ(reloaded[i].seed, full[i].seed);
    EXPECT_TRUE(reloaded[i].stats == full[i].stats)
        << "artifact round-trip changed job " << i;
  }
}

TEST(Orchestrator, KillAndResumeMergesBitIdentical) {
  // Uninterrupted sweep on 2 host threads...
  const std::string dirA = tempDir("merge_a");
  SweepManifest a = testManifest(dirA + "/runs");
  OrchestratorOptions optsA;
  optsA.hostThreads = 2;
  runManifest(a, dirA + "/sweep.json", optsA);
  ASSERT_TRUE(a.allOk());
  ASSERT_TRUE(writeMergedArtifact(a, dirA + "/merged.json"));

  // ...vs the same sweep interrupted after 2 jobs, then resumed from disk on
  // 1 host thread.
  const std::string dirB = tempDir("merge_b");
  const std::string pathB = dirB + "/sweep.json";
  SweepManifest b = testManifest(dirB + "/runs");
  OrchestratorOptions interrupted;
  interrupted.hostThreads = 1;
  interrupted.maxJobs = 2;
  const OrchestratorReport rep = runManifest(b, pathB, interrupted);
  EXPECT_EQ(rep.ran, 2u);
  EXPECT_FALSE(b.complete());
  EXPECT_EQ(b.countIn(JobState::Pending), 2u);

  SweepManifest resumed = SweepManifest::load(pathB);
  OrchestratorOptions rest;
  rest.hostThreads = 1;
  const OrchestratorReport rep2 = runManifest(resumed, pathB, rest);
  EXPECT_EQ(rep2.ran, 2u);
  EXPECT_EQ(rep2.skipped, 2u);
  ASSERT_TRUE(resumed.allOk());
  ASSERT_TRUE(writeMergedArtifact(resumed, dirB + "/merged.json"));

  EXPECT_EQ(slurp(dirA + "/merged.json"), slurp(dirB + "/merged.json"))
      << "interrupted+resumed merge must be bit-identical to uninterrupted";
}

TEST(Orchestrator, ManifestNotRewrittenPerJob) {
  const std::string dir = tempDir("no_rewrite");
  const std::string path = dir + "/sweep.json";
  SweepManifest m = cannedManifest(dir + "/runs", 64);
  ASSERT_TRUE(m.save(path));
  const std::string doneDir = claimDirFor(path) + "/done";

  std::string firstBytes;
  std::set<std::string> finished;
  std::string previous;
  auto runner = [&](const JobSpec& spec, const OrchestratorOptions& o,
                    sim::SimContext& ctx) {
    const std::string bytes = slurp(path);
    if (firstBytes.empty()) firstBytes = bytes;
    EXPECT_EQ(bytes, firstBytes) << "manifest rewritten before " << spec.id();
    // One host thread: every earlier job has finished, each with one record.
    if (!previous.empty()) finished.insert(previous);
    EXPECT_EQ(listFiles(doneDir), finished) << "at " << spec.id();
    previous = jobFileStem(spec);
    return cannedResult(spec, o, ctx);
  };
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  const OrchestratorReport rep = runManifest(m, path, opts, runner);
  EXPECT_EQ(rep.ran, 64u);
  EXPECT_EQ(rep.writeFailures, 0u);
  EXPECT_TRUE(m.allOk());
  EXPECT_EQ(finished.size(), 63u);
  // The one save, at the end, holds every result; the records it absorbed
  // are gone.
  EXPECT_EQ(slurp(path), m.toJson());
  EXPECT_FALSE(fs::exists(claimDirFor(path)));
}

TEST(Orchestrator, CrashBeforeFinalSaveResumesFromDoneRecords) {
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  const std::size_t kJobs = 13;

  const std::string ref = tempDir("crash_ref");
  SweepManifest whole = cannedManifest(ref + "/runs", kJobs);
  runManifest(whole, ref + "/sweep.json", opts, cannedResult);
  ASSERT_TRUE(whole.allOk());
  ASSERT_TRUE(writeMergedArtifact(whole, ref + "/merged.json"));

  // Copy the whole sweep directory as job 7 starts: that is what a SIGKILL
  // at that moment leaves on disk — the planned manifest, no final save.
  const std::string dir = tempDir("crash_resume");
  const std::string snapshot = dir + ".killed";
  fs::remove_all(snapshot);
  const std::string path = dir + "/sweep.json";
  SweepManifest m = cannedManifest(dir + "/runs", kJobs);
  ASSERT_TRUE(m.save(path));
  const std::string planned = slurp(path);
  std::size_t calls = 0;
  auto snapshotting = [&](const JobSpec& spec, const OrchestratorOptions& o,
                          sim::SimContext& ctx) {
    if (calls++ == 7) fs::copy(dir, snapshot, fs::copy_options::recursive);
    return cannedResult(spec, o, ctx);
  };
  runManifest(m, path, opts, snapshotting);
  fs::remove_all(dir);
  fs::rename(snapshot, dir);
  ASSERT_EQ(slurp(path), planned);
  const std::set<std::string> done = listFiles(claimDirFor(path) + "/done");
  ASSERT_EQ(done.size(), 7u);

  SweepManifest resumed = SweepManifest::load(path);
  auto neverTwice = [&](const JobSpec& spec, const OrchestratorOptions& o,
                        sim::SimContext& ctx) {
    EXPECT_EQ(done.count(jobFileStem(spec)), 0u) << spec.id() << " ran twice";
    return cannedResult(spec, o, ctx);
  };
  const OrchestratorReport rep = runManifest(resumed, path, opts, neverTwice);
  EXPECT_EQ(rep.ran, kJobs - 7);
  EXPECT_EQ(rep.skipped, 7u);
  ASSERT_TRUE(resumed.allOk());
  ASSERT_TRUE(writeMergedArtifact(resumed, dir + "/merged.json"));
  EXPECT_EQ(slurp(dir + "/merged.json"), slurp(ref + "/merged.json"));
}

TEST(Orchestrator, ResumeReturnsKilledRunClaims) {
  // A copy of the sweep directory taken while job 3 runs is what a SIGKILL
  // at that moment leaves: done records for jobs 0-2 and `run`'s claim on
  // job 3. `run` owns its spool, so the resume hands that claim straight
  // back to todo/ — no heartbeat lease to wait out — and runs it once.
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  const std::size_t kJobs = 9;
  const std::string dir = tempDir("killed_claim");
  const std::string snapshot = dir + ".killed";
  fs::remove_all(snapshot);
  const std::string path = dir + "/sweep.json";
  SweepManifest m = cannedManifest(dir + "/runs", kJobs);
  ASSERT_TRUE(m.save(path));
  std::string held;
  std::size_t calls = 0;
  auto snapshotting = [&](const JobSpec& spec, const OrchestratorOptions& o,
                          sim::SimContext& ctx) {
    if (calls++ == 3) {
      held = jobFileStem(spec);
      fs::copy(dir, snapshot, fs::copy_options::recursive);
    }
    return cannedResult(spec, o, ctx);
  };
  runManifest(m, path, opts, snapshotting);
  fs::remove_all(dir);
  fs::rename(snapshot, dir);
  ASSERT_EQ(listFiles(claimDirFor(path) + "/claimed"), std::set<std::string>{held});
  ASSERT_EQ(listFiles(claimDirFor(path) + "/done").size(), 3u);

  std::map<std::string, unsigned> runs;
  auto counting = [&](const JobSpec& spec, const OrchestratorOptions& o,
                      sim::SimContext& ctx) {
    ++runs[jobFileStem(spec)];
    return cannedResult(spec, o, ctx);
  };
  SweepManifest resumed = SweepManifest::load(path);
  const auto t0 = std::chrono::steady_clock::now();
  const OrchestratorReport rep = runManifest(resumed, path, opts, counting);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_EQ(runs[held], 1u);
  EXPECT_EQ(rep.ran, kJobs - 3);
  EXPECT_EQ(rep.skipped, 3u);
  EXPECT_TRUE(resumed.allOk());
  EXPECT_FALSE(fs::exists(claimDirFor(path)));
  EXPECT_LT(seconds, WorkerOptions{}.leaseSeconds) << "the resume waited for a lease";
}

TEST(Orchestrator, RerunFailedRerunsOnlyFailedJobs) {
  const std::string dir = tempDir("rerun_failed");
  const std::string path = dir + "/sweep.json";
  SweepManifest m = cannedManifest(dir + "/runs", 4);
  const std::string flaky = m.jobs[1].spec.id();
  bool broken = true;
  std::map<std::string, unsigned> runs;
  auto runner = [&](const JobSpec& spec, const OrchestratorOptions& o,
                    sim::SimContext& ctx) {
    ++runs[spec.id()];
    if (broken && spec.id() == flaky) throw std::runtime_error("deterministic bug");
    return cannedResult(spec, o, ctx);
  };
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  runManifest(m, path, opts, runner);
  ASSERT_EQ(m.jobs[1].state, JobState::Failed);

  // A plain resume keeps the recorded failure.
  broken = false;
  SweepManifest kept = SweepManifest::load(path);
  EXPECT_EQ(runManifest(kept, path, opts, runner).ran, 0u);
  EXPECT_EQ(kept.jobs[1].state, JobState::Failed);

  // --rerun-failed runs the failed job again and skips the Ok ones.
  opts.rerunFailed = true;
  SweepManifest again = SweepManifest::load(path);
  std::vector<RunResult> results;
  const OrchestratorReport rep = runManifest(again, path, opts, runner, &results);
  EXPECT_EQ(rep.ran, 1u);
  EXPECT_EQ(rep.skipped, 3u);
  EXPECT_EQ(runs[flaky], 2u);
  for (const JobRecord& j : again.jobs) {
    EXPECT_EQ(runs[j.spec.id()], j.spec.id() == flaky ? 2u : 1u) << j.spec.id();
  }
  EXPECT_TRUE(again.allOk());
  EXPECT_EQ(again.jobs[1].diagnostic, "");
  ASSERT_EQ(results.size(), 4u);
  for (const RunResult& r : results) EXPECT_TRUE(r.ok()) << r.str();
}

TEST(Orchestrator, UnwritableManifestIsReported) {
  // The manifest's parent is a regular file, so neither the done records nor
  // the final save can be written — even by root.
  const std::string dir = tempDir("unwritable");
  std::ofstream(dir + "/blocker") << "not a directory";
  SweepManifest m = cannedManifest(dir + "/runs", 3);
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  const OrchestratorReport rep =
      runManifest(m, dir + "/blocker/sweep.json", opts, cannedResult);
  EXPECT_EQ(rep.ran, 3u);
  EXPECT_TRUE(m.allOk());
  EXPECT_EQ(rep.writeFailures, 4u);  // 3 done records + the final save
}

TEST(Orchestrator, StaleRunningJobsRestartOnResume) {
  const std::string dir = tempDir("stale_running");
  SweepManifest m = testManifest(dir + "/runs");
  m.jobs[1].state = JobState::Running;  // marker left by a killed process
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  const OrchestratorReport rep = runManifest(m, dir + "/sweep.json", opts);
  EXPECT_EQ(rep.ran, 4u);
  EXPECT_TRUE(m.allOk());
}

TEST(Orchestrator, OkJobWithMissingArtifactReruns) {
  const std::string dir = tempDir("lost_artifact");
  const std::string path = dir + "/sweep.json";
  SweepManifest m = testManifest(dir + "/runs");
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  runManifest(m, path, opts);
  ASSERT_TRUE(m.allOk());
  fs::remove(m.jobs[0].artifact);  // lose one artifact

  SweepManifest resumed = SweepManifest::load(path);
  const OrchestratorReport rep = runManifest(resumed, path, opts);
  EXPECT_EQ(rep.ran, 1u);
  EXPECT_EQ(rep.skipped, 3u);
  EXPECT_TRUE(resumed.allOk());
  EXPECT_TRUE(fs::exists(resumed.jobs[0].artifact));
}

// ----------------------------------------------------- failure classification

TEST(Orchestrator, TransientFailureRetriesUpToMaxAttempts) {
  SweepManifest m;
  m.jobs.resize(1);
  m.jobs[0].spec = JobSpec{"A", "w", "typical", 2, 11};
  std::atomic<unsigned> calls{0};
  auto alwaysTransient = [&](const JobSpec&, const OrchestratorOptions&,
                             sim::SimContext&) -> RunResult {
    ++calls;
    throw TransientJobError("injected flake");
  };
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  opts.maxAttempts = 3;
  const OrchestratorReport rep = runManifest(m, "", opts, alwaysTransient);
  EXPECT_EQ(calls.load(), 3u);
  EXPECT_EQ(m.jobs[0].attempts, 3u);
  EXPECT_EQ(m.jobs[0].state, JobState::Failed);
  EXPECT_EQ(rep.retried, 2u);
  EXPECT_EQ(rep.failed, 1u);
}

TEST(Orchestrator, TransientFailureSucceedsOnRetry) {
  SweepManifest m;
  m.jobs.resize(1);
  m.jobs[0].spec = JobSpec{"Baseline", "counter", "typical", 2, 11};
  std::atomic<unsigned> calls{0};
  auto flaky = [&](const JobSpec& spec, const OrchestratorOptions& o,
                   sim::SimContext& ctx) -> RunResult {
    if (++calls == 1) throw TransientJobError("first attempt flakes");
    return runSpec(spec, o, ctx);
  };
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  opts.maxAttempts = 2;
  std::vector<RunResult> results;
  const OrchestratorReport rep = runManifest(m, "", opts, flaky, &results);
  EXPECT_EQ(calls.load(), 2u);
  EXPECT_EQ(m.jobs[0].state, JobState::Ok);
  EXPECT_EQ(m.jobs[0].attempts, 2u);
  EXPECT_EQ(rep.retried, 1u);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_TRUE(results[0].ok()) << results[0].str();
}

TEST(Orchestrator, PermanentFailureIsNotRetried) {
  SweepManifest m;
  m.jobs.resize(1);
  m.jobs[0].spec = JobSpec{"A", "w", "typical", 2, 11};
  std::atomic<unsigned> calls{0};
  auto crash = [&](const JobSpec&, const OrchestratorOptions&,
                   sim::SimContext&) -> RunResult {
    ++calls;
    throw std::runtime_error("deterministic bug");
  };
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  opts.maxAttempts = 5;
  runManifest(m, "", opts, crash);
  EXPECT_EQ(calls.load(), 1u);
  EXPECT_EQ(m.jobs[0].state, JobState::Failed);
  EXPECT_NE(m.jobs[0].diagnostic.find("deterministic bug"), std::string::npos);
}

TEST(Orchestrator, WallClockTimeoutClassifiesTransient) {
  RunResult r;
  r.status = RunStatus::Timeout;
  r.diagnostic = "wall-clock budget exceeded (simulated cycle 1234)";
  EXPECT_TRUE(isTransientFailure(r));
  // A simulated-cycle budget timeout reproduces deterministically.
  r.diagnostic = "cycle budget exceeded";
  EXPECT_FALSE(isTransientFailure(r));
  r.status = RunStatus::Hang;
  r.diagnostic = "no forward progress";
  EXPECT_FALSE(isTransientFailure(r));
  r.status = RunStatus::Failed;
  r.diagnostic = "transient: injected";
  EXPECT_TRUE(isTransientFailure(r));
  r.diagnostic = "exception: boom";
  EXPECT_FALSE(isTransientFailure(r));
}

TEST(Orchestrator, WallBudgetEndsRunAsTimeout) {
  // An unmeetable host wall-clock budget must surface as RunStatus::Timeout
  // (transient), not as a hang, and must not retry past maxAttempts.
  SweepManifest m;
  m.jobs.resize(1);
  m.jobs[0].spec = JobSpec{"LockillerTM", "genome", "typical", 8, 11};
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  opts.maxAttempts = 1;
  opts.jobWallBudgetSeconds = 1e-9;
  std::vector<RunResult> results;
  runManifest(m, "", opts, {}, &results);
  EXPECT_EQ(m.jobs[0].state, JobState::Timeout);
  EXPECT_EQ(m.jobs[0].attempts, 1u);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RunStatus::Timeout);
  EXPECT_NE(results[0].diagnostic.find("wall-clock"), std::string::npos);
  EXPECT_TRUE(isTransientFailure(results[0]));
}

TEST(Orchestrator, CycleBudgetEndsRunAsDeterministicTimeout) {
  SweepManifest m;
  m.jobs.resize(1);
  m.jobs[0].spec = JobSpec{"LockillerTM", "genome", "typical", 8, 11};
  std::atomic<unsigned> calls{0};
  auto counting = [&](const JobSpec& spec, const OrchestratorOptions& o,
                      sim::SimContext& ctx) {
    ++calls;
    return runSpec(spec, o, ctx);
  };
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  opts.maxAttempts = 3;
  opts.jobCycleBudget = 50;  // far too small for any real run
  std::vector<RunResult> results;
  runManifest(m, "", opts, counting, &results);
  EXPECT_EQ(m.jobs[0].state, JobState::Timeout);
  // Deterministic timeout: retrying cannot help, so exactly one attempt.
  EXPECT_EQ(calls.load(), 1u);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].status, RunStatus::Timeout);
  EXPECT_FALSE(isTransientFailure(results[0]));
}

// ----------------------------------------------------------------- artifacts

TEST(Orchestrator, ArtifactRoundTripReconstructsRunResult) {
  const std::string dir = tempDir("artifact_rt");
  SweepManifest m;
  m.artifactDir = dir + "/runs";
  m.jobs.resize(1);
  m.jobs[0].spec = JobSpec{"Baseline", "counter", "typical", 2, 11};
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  std::vector<RunResult> results;
  runManifest(m, "", opts, {}, &results);
  ASSERT_EQ(m.jobs[0].state, JobState::Ok);

  const RunResult back = loadStatsArtifact(m.jobs[0].artifact);
  EXPECT_EQ(back.system, results[0].system);
  EXPECT_EQ(back.workload, results[0].workload);
  EXPECT_EQ(back.machine, results[0].machine);
  EXPECT_EQ(back.threads, results[0].threads);
  EXPECT_EQ(back.seed, results[0].seed);
  EXPECT_EQ(back.cycles, results[0].cycles);
  EXPECT_EQ(back.status, RunStatus::Ok);
  EXPECT_TRUE(back.stats == results[0].stats);
  // Derived accessors work off the reconstructed snapshot.
  EXPECT_EQ(back.totalCommits(), results[0].totalCommits());
  EXPECT_DOUBLE_EQ(back.commitRate().value_or(-1.0),
                   results[0].commitRate().value_or(-1.0));
}

TEST(Orchestrator, MergedArtifactIsValidStatsV1) {
  const std::string dir = tempDir("merged_valid");
  SweepManifest m = testManifest(dir + "/runs");
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  runManifest(m, dir + "/sweep.json", opts);
  ASSERT_TRUE(m.allOk());
  ASSERT_TRUE(writeMergedArtifact(m, dir + "/merged.json"));

  const auto doc = stats::json::parse(slurp(dir + "/merged.json"));
  const auto* schema = doc.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->text, kStatsSchema);
  const auto* runs = doc.find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_TRUE(runs->isArray());
  ASSERT_EQ(runs->array->size(), 4u);
  for (const auto& run : *runs->array) {
    const auto* wall = run.find("wall_seconds");
    ASSERT_NE(wall, nullptr);
    EXPECT_EQ(wall->number, 0.0);  // host timing zeroed for determinism
    const auto* status = run.find("status");
    ASSERT_NE(status, nullptr);
    EXPECT_EQ(status->text, "ok");
    EXPECT_NE(run.find("seed"), nullptr);
  }
}

TEST(Orchestrator, MergeIsIndependentOfHostThreads) {
  // 13 jobs: not a multiple of the merge window at any thread count used.
  const std::string dir = tempDir("merge_threads");
  SweepManifest m = cannedManifest(dir + "/runs", 13);
  OrchestratorOptions opts;
  opts.hostThreads = 2;
  runManifest(m, dir + "/sweep.json", opts, cannedResult);
  ASSERT_TRUE(m.allOk());
  ASSERT_TRUE(writeMergedArtifact(m, dir + "/merged1.json", 1));
  ASSERT_TRUE(writeMergedArtifact(m, dir + "/merged4.json", 4));
  EXPECT_EQ(slurp(dir + "/merged1.json"), slurp(dir + "/merged4.json"));

  // Reference: the whole document through one Writer, runs in manifest order.
  std::ostringstream ref;
  stats::json::Writer w(ref, /*pretty=*/true);
  w.beginObject();
  w.field("schema", kStatsSchema);
  w.key("runs");
  w.beginArray();
  for (const JobRecord& j : m.jobs) {
    const stats::json::Value doc = stats::json::parse(slurp(j.artifact));
    stats::json::Value run = doc.find("runs")->array->front();
    (*run.object)["wall_seconds"] = stats::json::parse("0");
    stats::json::writeValue(w, run);
  }
  w.endArray();
  w.endObject();
  EXPECT_EQ(slurp(dir + "/merged4.json"), ref.str());
}

TEST(Orchestrator, FailedMergeLeavesNoPartialOrStaleOutput) {
  const std::string dir = tempDir("merge_fail");
  const std::string out = dir + "/merged.json";
  SweepManifest m = cannedManifest(dir + "/runs", 9);
  OrchestratorOptions opts;
  opts.hostThreads = 1;
  runManifest(m, "", opts, cannedResult);
  ASSERT_TRUE(m.allOk());

  const std::string intact = slurp(m.jobs[5].artifact);
  std::ofstream(m.jobs[5].artifact, std::ios::trunc) << "{ corrupt";
  EXPECT_FALSE(writeMergedArtifact(m, out, 2));
  EXPECT_FALSE(fs::exists(out));
  EXPECT_FALSE(fs::exists(out + ".tmp"));

  std::ofstream(m.jobs[5].artifact, std::ios::trunc) << intact;
  std::ofstream(out) << "previous merge";
  fs::remove(m.jobs[7].artifact);
  EXPECT_FALSE(writeMergedArtifact(m, out, 4));
  EXPECT_EQ(slurp(out), "previous merge");
  EXPECT_FALSE(fs::exists(out + ".tmp"));
}

}  // namespace
}  // namespace lktm::test
