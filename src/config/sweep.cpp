#include "config/sweep.hpp"

#include <atomic>
#include <thread>

#include "config/orchestrator.hpp"
#include "workloads/workload.hpp"

namespace lktm::cfg {

namespace detail {

unsigned hostThreadCount(unsigned requested) {
  return requested != 0 ? requested : std::max(1u, std::thread::hardware_concurrency());
}

void runWorkerPool(unsigned hostThreads, std::size_t jobCount,
                   const std::function<std::ptrdiff_t()>& claim,
                   const std::function<void(std::size_t, sim::SimContext&)>& runOne) {
  if (jobCount == 0) return;
  hostThreads = std::min<unsigned>(hostThreadCount(hostThreads),
                                   static_cast<unsigned>(jobCount));

  auto worker = [&] {
    sim::SimContext ctx;  // reused across every job this thread executes
    for (;;) {
      const std::ptrdiff_t i = claim();
      if (i < 0) return;
      runOne(static_cast<std::size_t>(i), ctx);
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(hostThreads);
  for (unsigned t = 0; t < hostThreads; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
}

}  // namespace detail

std::uint64_t jobRunSeed(std::uint64_t baseSeed, const std::string& system,
                         const std::string& workload, unsigned threads) {
  // FNV-1a over the coordinates, finished with a splitmix64 mix so adjacent
  // cells land in unrelated parts of the stream space.
  std::uint64_t h = 0xcbf29ce484222325ull ^ baseSeed;
  auto mixStr = [&h](const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    h ^= 0xff;  // separator so ("ab","c") != ("a","bc")
    h *= 0x100000001b3ull;
  };
  mixStr(system);
  mixStr(workload);
  h ^= threads;
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  return h ^ (h >> 31);
}

std::vector<RunResult> runSweep(std::vector<SweepJob> jobs, unsigned hostThreads) {
  std::vector<RunResult> results(jobs.size());
  std::atomic<std::size_t> next{0};
  auto claim = [&]() -> std::ptrdiff_t {
    const std::size_t i = next.fetch_add(1);
    return i < jobs.size() ? static_cast<std::ptrdiff_t>(i) : -1;
  };
  auto failedResult = [&](std::size_t i, std::string diagnostic) {
    RunResult r;
    r.system = jobs[i].system.empty() ? jobs[i].label : jobs[i].system;
    r.workload = jobs[i].workload;
    r.threads = jobs[i].threads;
    r.seed = jobs[i].seed;
    r.status = RunStatus::Failed;
    r.diagnostic = std::move(diagnostic);
    return r;
  };
  auto runOne = [&](std::size_t i, sim::SimContext& ctx) {
    try {
      results[i] = jobs[i].run(ctx);
    } catch (const std::exception& e) {
      results[i] = failedResult(i, std::string("exception: ") + e.what());
    } catch (...) {
      // A non-std::exception throw used to escape the worker thread and
      // std::terminate the whole sweep; capture it like any other crash.
      results[i] = failedResult(
          i, "non-standard exception (not derived from std::exception)");
    }
  };
  detail::runWorkerPool(hostThreads, jobs.size(), claim, runOne);
  return results;
}

std::vector<RunResult> sweepSystems(const MachineParams& machine,
                                    const std::vector<SystemSpec>& systems,
                                    const std::vector<std::string>& workloads,
                                    const std::vector<unsigned>& threads,
                                    unsigned hostThreads) {
  std::vector<SweepJob> jobs;
  for (const auto& w : workloads) {
    for (const auto& s : systems) {
      for (unsigned t : threads) {
        const std::uint64_t seed = kDefaultSweepSeed;
        jobs.push_back(SweepJob{
            .label = s.name + "/" + w + "@" + std::to_string(t),
            .system = s.name,
            .workload = w,
            .threads = t,
            .seed = seed,
            .run = [machine, s, w, t, seed](sim::SimContext& ctx) {
              RunConfig cfg;
              cfg.machine = machine;
              cfg.system = s;
              cfg.threads = t;
              cfg.rngSeed = jobRunSeed(seed, s.name, w, t);
              // Same name registry as the manifest orchestrator, so a bench
              // grid and a sweep job agree on every workload family (STAMP,
              // micro, database traffic).
              return runSimulation(cfg, [&] { return makeJobWorkload(w, seed); }, &ctx);
            }});
      }
    }
  }
  return runSweep(std::move(jobs), hostThreads);
}

const RunResult* findResult(const std::vector<RunResult>& results,
                            const std::string& system, const std::string& workload,
                            unsigned threads) {
  for (const auto& r : results) {
    if (r.system == system && r.workload == workload && r.threads == threads) {
      return &r;
    }
  }
  return nullptr;
}

}  // namespace lktm::cfg
