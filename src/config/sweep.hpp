// Parallel sweep executor: figure-reproduction benches run hundreds of
// independent simulations (workload x system x threads x machine); each
// simulation is single-threaded and deterministic, so sweeps parallelize
// perfectly across host cores. Each worker thread owns one SimContext and
// reuses it for every job it picks up, so a sweep allocates kernel memory
// (event slabs, message pools) once per host thread, not once per run.
//
// Determinism contract: a job's result depends only on its spec (including
// its seed) — never on hostThreads, on which worker ran it, or on what the
// worker's reused context executed before (regression-tested in
// tests/test_sweep.cpp). The manifest-driven orchestrator on top of this
// layer lives in config/orchestrator.hpp.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "config/runner.hpp"
#include "sim/context.hpp"

namespace lktm::cfg {

/// Default workload-generation seed of the figure sweeps (matches the
/// lktm_sim --seed default).
inline constexpr std::uint64_t kDefaultSweepSeed = 11;

/// Per-job RNG-stream seed, derived from the job's manifest identity (never
/// from worker/context state): splitmix64 over the base seed mixed with the
/// job's coordinates.
std::uint64_t jobRunSeed(std::uint64_t baseSeed, const std::string& system,
                         const std::string& workload, unsigned threads);

struct SweepJob {
  std::string label;
  /// Identity of the simulated cell. Carried on the job (not just inside the
  /// result) so a job that dies with an exception still produces a result
  /// that findResult() can locate by (system, workload, threads).
  std::string system;
  std::string workload;
  unsigned threads = 0;
  /// Seed this job runs with; travels into the result even when the job
  /// throws, so failure artifacts stay reproducible.
  std::uint64_t seed = kDefaultSweepSeed;
  std::function<RunResult(sim::SimContext&)> run;
};

/// Execute all jobs on `hostThreads` std::threads (0 = hardware concurrency,
/// and never more threads than jobs), preserving job order in the result
/// vector. Exceptions inside a job — std::exception or not — are captured as
/// a RunStatus::Failed result keyed by the job's (system, workload, threads)
/// rather than tearing the sweep down.
std::vector<RunResult> runSweep(std::vector<SweepJob> jobs, unsigned hostThreads = 0);

/// Convenience: build the jobs for a cross product and run them.
std::vector<RunResult> sweepSystems(
    const MachineParams& machine, const std::vector<SystemSpec>& systems,
    const std::vector<std::string>& workloads, const std::vector<unsigned>& threads,
    unsigned hostThreads = 0);

/// Find the result for a (system, workload, threads) cell.
const RunResult* findResult(const std::vector<RunResult>& results,
                            const std::string& system, const std::string& workload,
                            unsigned threads);

namespace detail {

/// Host threads a pool asked for `requested` threads uses: `requested`, or
/// the hardware concurrency (at least 1) when it is 0.
unsigned hostThreadCount(unsigned requested);

/// Worker-pool core shared by runSweep and the orchestrator: spin up
/// `hostThreads` workers (0 = hardware concurrency), each owning one reused
/// SimContext; every worker repeatedly calls `claim` for the next job index
/// (negative = no more work for this worker) and hands it to `runOne`.
/// `claim` and `runOne` must be thread-safe.
void runWorkerPool(unsigned hostThreads, std::size_t jobCount,
                   const std::function<std::ptrdiff_t()>& claim,
                   const std::function<void(std::size_t, sim::SimContext&)>& runOne);

}  // namespace detail

}  // namespace lktm::cfg
