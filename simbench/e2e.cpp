// lktm_e2e: the simulator's end-to-end benchmark.
//
// One invocation runs one workload (a closed batch of simulations; the next
// simulation starts when a host worker frees up) for a given time and prints
// its metrics, then a final one-line JSON result. The benchmark measures
// each layer from outside: it times calls into the simulator's public
// functions (cfg::runSimulation, cfg::runSweep, cfg::runManifest,
// cfg::writeMergedArtifact, Workload::buildProgram, the RunResult accessors)
// and reads deterministic counts from each run's StatSnapshot and from
// SimContext::queue().executed(). Nothing here changes how a simulation runs:
// the coherence checker and workload verification stay on in every timed run.
//
//   lktm_e2e --workload NAME --seed N --seconds S --trace 0|1
//            [--work-dir DIR] [--trace-out FILE] [--commit ID]
//
// --trace 0 repeats the workload until S seconds are used and reports the
// end-to-end metrics (medians over the repetitions). --trace 1 runs the
// workload once untraced and once traced, then runs the per-layer probes
// (program emission, the same jobs with checks off, artifact writes), and
// reports the per-layer metrics plus the tracing overhead.
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "config/artifact.hpp"
#include "config/machine.hpp"
#include "config/orchestrator.hpp"
#include "config/runner.hpp"
#include "config/sweep.hpp"
#include "config/systems.hpp"
#include "mem/main_memory.hpp"
#include "runtime/backends/backend.hpp"
#include "sim/kernel_stats.hpp"
#include "spans.hpp"
#include "stats/tx_stats.hpp"
#include "workloads/address_space.hpp"
#include "workloads/db_traffic.hpp"
#include "workloads/workload.hpp"

namespace simbench {
namespace {

namespace cfg = lktm::cfg;
namespace fs = std::filesystem;
using cfg::JobSpec;
using cfg::RunResult;

/// EXPERIMENTS.md: the paper's Fig 12 average of LockillerTM over
/// best-effort HTM, the only paper reference a workload here reproduces.
constexpr double kPaperFig12Speedup = 1.86;

double secondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double threadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

// ---------------------------------------------------------------- workloads

enum class Runner {
  Sweep,     ///< cfg::runSweep, in memory
  Manifest,  ///< cfg::runManifest with per-job artifacts, then a merge
};

struct WorkloadDef {
  const char* name;
  Runner runner;
  bool parallel;  ///< min(4, nproc) host threads, else 1
  std::vector<JobSpec> (*jobs)(std::uint64_t baseSeed);
};

const std::vector<unsigned> kPaperThreads{2, 4, 8, 16, 32};

// Exactly bench/fig07_speedup_typical's grid, in sweepSystems' job order.
std::vector<JobSpec> fig07Jobs(std::uint64_t seed) {
  std::vector<JobSpec> out;
  for (const auto& w : lktm::wl::stampNames()) {
    for (const auto& s : cfg::evaluatedSystems()) {
      for (const unsigned t : kPaperThreads) out.push_back({s.name, w, "typical", t, seed});
    }
  }
  return out;
}

std::vector<JobSpec> dbJobs(std::uint64_t seed) {
  std::vector<JobSpec> out;
  for (std::uint64_t k = 0; k < 5; ++k) {
    for (const auto& w : lktm::wl::dbWorkloadNames()) {
      for (const char* s : {"CGL", "Baseline", "LockillerTM", "TL2-STM", "Hybrid-TM"}) {
        for (const unsigned t : {8u, 32u}) out.push_back({s, w, "typical", t, seed + k});
      }
    }
  }
  return out;
}

std::vector<JobSpec> scaleJobs(std::uint64_t seed) {
  std::vector<JobSpec> out;
  for (std::uint64_t k = 0; k < 10; ++k) {
    for (const char* w : {"genome", "ssca2", "kmeans+", "vacation+"}) {
      for (const char* s : {"Baseline", "LosaTM-SAFU", "LockillerTM"}) {
        out.push_back({s, w, "typical-c64-b8", 64, seed + k});
      }
    }
  }
  return out;
}

const std::vector<WorkloadDef> kWorkloads{
    {"fig07-grid", Runner::Sweep, true, fig07Jobs},
    {"dbtraffic-artifacts", Runner::Manifest, true, dbJobs},
    {"scale-c64", Runner::Sweep, false, scaleJobs},
};

// ------------------------------------------------------------- one run

struct JobTiming {
  double callWall = 0.0;  ///< host wall of the runSimulation call
  double cpu = 0.0;       ///< thread CPU of the call
  double loopWall = 0.0;  ///< RunResult::wallSeconds (the event loop)
  std::uint64_t events = 0;
  double setup() const { return callWall - loopWall; }
};

cfg::RunConfig runConfig(const JobSpec& spec, bool checks) {
  cfg::RunConfig rc;
  rc.machine = cfg::machineByName(spec.machine);
  rc.system = cfg::systemByName(spec.system);
  rc.threads = spec.threads;
  rc.rngSeed = cfg::jobRunSeed(spec.seed, spec.system, spec.workload, spec.threads);
  rc.runCoherenceChecker = checks;
  rc.verifyWorkload = checks;
  return rc;
}

RunResult timedRun(const JobSpec& spec, bool checks, lktm::sim::SimContext& ctx,
                   JobTiming& t) {
  const cfg::RunConfig rc = runConfig(spec, checks);
  const std::uint64_t events0 = ctx.queue().executed();
  const double cpu0 = threadCpuSeconds();
  const auto wall0 = Clock::now();
  RunResult r = cfg::runSimulation(
      rc, [&] { return cfg::makeJobWorkload(spec.workload, spec.seed); }, &ctx);
  t.callWall = secondsSince(wall0);
  t.cpu = threadCpuSeconds() - cpu0;
  t.loopWall = r.wallSeconds;
  t.events = ctx.queue().executed() - events0;
  r.workload = spec.workload;
  return r;
}

/// The program emission runSimulation performs, replayed on its own:
/// generate the workload, resolve the backend the way the runner does, and
/// build every thread's program.
void emitPrograms(const JobSpec& spec) {
  const cfg::MachineParams machine = cfg::machineByName(spec.machine);
  const cfg::SystemSpec system = cfg::systemByName(spec.system);
  lktm::mem::MainMemory memory;
  auto workload = cfg::makeJobWorkload(spec.workload, spec.seed);
  workload->init(memory, spec.threads);
  const std::string backendName =
      !machine.backend.empty()
          ? machine.backend
          : (!system.backend.empty() ? system.backend
                                     : lktm::tm::defaultBackendFor(system.policy));
  auto backend = lktm::tm::makeBackend(
      backendName,
      lktm::tm::BackendConfig{system.policy, system.retry, lktm::wl::kFallbackLockAddr});
  for (unsigned tid = 0; tid < spec.threads; ++tid) {
    (void)workload->buildProgram(tid, spec.threads, *backend);
  }
}

// ------------------------------------------------------ per-run counts

constexpr std::array<lktm::AbortCause, 7> kCauses{
    lktm::AbortCause::MemConflict, lktm::AbortCause::LockConflict,
    lktm::AbortCause::Mutex,       lktm::AbortCause::NonTran,
    lktm::AbortCause::Overflow,    lktm::AbortCause::Fault,
    lktm::AbortCause::Explicit};

enum Count : std::size_t {
  kHtm, kLock, kStl, kStm, kAborts,
  kL1Hits, kL1Misses, kLlcHits, kLlcMisses, kWritebacks, kDirReqs, kInterbank,
  kSigRejects, kMessages, kPacketHops, kFlitHops, kMemReads, kMemWrites,
  kRejectsSent, kWakeupsSent, kSwitchAttempts, kSwitchGrants,
  kTimeTotal, kTimeWaitLock, kTimeAborted, kStatEntries,
  kNumCounts
};

/// What the benchmark keeps of one simulation: identity, outcome and the
/// deterministic counts, read once through the RunResult accessors.
struct RunRecord {
  std::string system;
  std::string cell;  ///< identity without the system: workload@threads#seed
  unsigned threads = 0;
  bool ok = false;
  std::string problem;
  std::uint64_t cycles = 0;
  std::array<std::uint64_t, kNumCounts> c{};
  std::array<std::uint64_t, kCauses.size()> causes{};
  lktm::stats::SnapshotEntry latency;  ///< commit latency, LockillerTM only

  std::uint64_t commits() const { return c[kHtm] + c[kLock] + c[kStl] + c[kStm]; }
};

RunRecord query(const JobSpec& spec, const RunResult& r) {
  RunRecord rec;
  rec.system = spec.system;
  rec.cell = spec.workload + "@" + std::to_string(spec.threads) + "#" +
             std::to_string(spec.seed);
  rec.threads = spec.threads;
  rec.ok = r.ok();
  if (!rec.ok) {
    rec.problem = std::string(cfg::toString(r.status)) + ": " + r.diagnostic;
    for (const auto& v : r.violations) rec.problem += " | " + v;
  }
  rec.cycles = r.cycles;
  auto& c = rec.c;
  c[kHtm] = r.htmCommits();
  c[kLock] = r.lockCommits();
  c[kStl] = r.stlCommits();
  c[kStm] = r.stmCommits();
  c[kAborts] = r.aborts();
  c[kL1Hits] = r.l1Hits();
  c[kL1Misses] = r.l1Misses();
  c[kLlcHits] = r.llcHits();
  c[kLlcMisses] = r.llcMisses();
  c[kWritebacks] = r.writebacks();
  c[kDirReqs] = r.stats.sumMatching("dir.bank.*.reqs");
  c[kInterbank] = r.stats.value("dir.interbank.msgs");
  c[kSigRejects] = r.sigRejects();
  c[kMessages] = r.messages();
  if (const auto* hops = r.stats.find("noc.hops"); hops != nullptr) c[kPacketHops] = hops->sum;
  c[kFlitHops] = r.flitHops();
  c[kMemReads] = r.stats.value("mem.line_reads");
  c[kMemWrites] = r.stats.value("mem.line_writes");
  c[kRejectsSent] = r.rejectsSent();
  c[kWakeupsSent] = r.wakeupsSent();
  c[kSwitchAttempts] = r.switchAttempts();
  c[kSwitchGrants] = r.switchGrants();
  const cfg::TimeBreakdown bd = r.breakdown();
  c[kTimeTotal] = bd.total();
  c[kTimeWaitLock] = bd.get(lktm::TimeCat::WaitLock);
  c[kTimeAborted] = bd.get(lktm::TimeCat::Aborted);
  c[kStatEntries] = r.stats.size();
  for (std::size_t i = 0; i < kCauses.size(); ++i) rec.causes[i] = r.abortCount(kCauses[i]);
  if (spec.system == "LockillerTM") rec.latency = r.commitLatency();
  return rec;
}

/// FNV-1a over every job's identity, simulated cycles, commits and aborts:
/// equal digests mean bit-identical simulated results.
struct Digest {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void mix(const std::string& s) {
    for (const char ch : s) {
      h ^= static_cast<unsigned char>(ch);
      h *= 0x100000001b3ull;
    }
    mix(std::uint64_t{0xff});
  }
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  void mixRun(const std::string& id, std::uint64_t cycles, std::uint64_t commits,
              std::uint64_t aborts) {
    mix(id);
    mix(cycles);
    mix(commits);
    mix(aborts);
  }
};

// ------------------------------------------------------------- one pass

/// One execution of the whole workload.
struct Pass {
  double wall = 0.0;
  std::vector<JobTiming> timing;  ///< job order
  std::vector<RunRecord> runs;    ///< job order
  lktm::sim::kstats::Snapshot kernelAllocs;  ///< kstats growth over the pass
  double mergeSeconds = 0.0;
  double querySeconds = 0.0;
  double artifactMb = 0.0;
  bool mergeOk = true;
  std::uint64_t digest = 0;

  double sum(double JobTiming::*field) const {
    double s = 0.0;
    for (const auto& t : timing) s += t.*field;
    return s;
  }
  double cpu() const { return sum(&JobTiming::cpu); }
  double setup() const {
    double s = 0.0;
    for (const auto& t : timing) s += t.setup();
    return s;
  }
  double coreCycles() const {
    double s = 0.0;
    for (const auto& r : runs) s += static_cast<double>(r.cycles) * r.threads;
    return s;
  }
};

std::uint64_t dirBytes(const fs::path& dir) {
  std::uint64_t n = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) n += e.file_size();
  }
  return n;
}

Pass runPass(const WorkloadDef& def, const std::vector<JobSpec>& specs,
             unsigned hostThreads, const fs::path& workDir, SpanRecorder* rec) {
  Pass p;
  p.timing.resize(specs.size());
  const fs::path dir = workDir / def.name;
  std::vector<RunResult> results;
  const auto k0 = lktm::sim::kstats::snapshot();
  const auto t0 = Clock::now();
  {
    ScopedSpan grid(rec, "grid");
    const int gridId = grid.id();
    switch (def.runner) {
      case Runner::Sweep: {
        std::vector<cfg::SweepJob> jobs;
        jobs.reserve(specs.size());
        for (std::size_t i = 0; i < specs.size(); ++i) {
          const JobSpec& s = specs[i];
          jobs.push_back(cfg::SweepJob{
              s.id(), s.system, s.workload, s.threads, s.seed,
              [&, i, gridId](lktm::sim::SimContext& ctx) {
                ScopedSpan job(rec, "job", gridId);
                return timedRun(specs[i], true, ctx, p.timing[i]);
              }});
        }
        results = cfg::runSweep(std::move(jobs), hostThreads);
        break;
      }
      case Runner::Manifest: {
        fs::remove_all(dir);
        fs::create_directories(dir);
        cfg::SweepManifest m;
        m.artifactDir = (dir / "jobs").string();
        std::unordered_map<std::string, std::size_t> index;
        for (std::size_t i = 0; i < specs.size(); ++i) {
          cfg::JobRecord job;
          job.spec = specs[i];
          m.jobs.push_back(job);
          index.emplace(specs[i].id(), i);
        }
        cfg::OrchestratorOptions opts;
        opts.hostThreads = hostThreads;
        auto runner = [&](const JobSpec& spec, const cfg::OrchestratorOptions&,
                          lktm::sim::SimContext& ctx) {
          ScopedSpan job(rec, "job", gridId);
          return timedRun(spec, true, ctx, p.timing[index.at(spec.id())]);
        };
        cfg::runManifest(m, (dir / "manifest.json").string(), opts, runner, &results);
        ScopedSpan merge(rec, "merge", gridId);
        const auto m0 = Clock::now();
        p.mergeOk = cfg::writeMergedArtifact(m, (dir / "merged.json").string());
        p.mergeSeconds = secondsSince(m0);
        break;
      }
    }
    ScopedSpan q(rec, "query", gridId);
    const auto q0 = Clock::now();
    p.runs.reserve(results.size());
    for (std::size_t i = 0; i < results.size(); ++i) p.runs.push_back(query(specs[i], results[i]));
    p.querySeconds = secondsSince(q0);
  }
  p.wall = secondsSince(t0);
  const auto k1 = lktm::sim::kstats::snapshot();
  p.kernelAllocs = {k1.heapCallables - k0.heapCallables, k1.poolSlabs - k0.poolSlabs,
                    k1.queueSlabs - k0.queueSlabs};
  if (def.runner == Runner::Manifest) {
    p.artifactMb = static_cast<double>(dirBytes(dir)) / 1e6;
    fs::remove_all(dir);
  }
  Digest d;
  for (std::size_t i = 0; i < p.runs.size(); ++i) {
    d.mixRun(specs[i].id(), p.runs[i].cycles, p.runs[i].commits(), p.runs[i].c[kAborts]);
  }
  p.digest = d.h;
  return p;
}

// ----------------------------------------------------- per-layer probes

/// The traced run's extra measurements, made after the traced pass so they
/// do not distort it.
struct Probes {
  double emitSeconds = 0.0;      ///< Σ program emission (runtime.emit_s)
  double checkSeconds = 0.0;     ///< Σ setup with checks − without (coh.check_s)
  double artifactSeconds = 0.0;  ///< Σ per-job artifact writes (config.artifact_s)
  std::size_t mismatches = 0;    ///< jobs whose unchecked rerun changed cycles
};

Probes runProbes(const WorkloadDef& def, const std::vector<JobSpec>& specs,
                 unsigned hostThreads, const Pass& traced, const fs::path& workDir,
                 SpanRecorder* rec) {
  Probes pr;
  std::vector<JobTiming> unchecked(specs.size());
  std::vector<double> emit(specs.size(), 0.0);
  ScopedSpan probe(rec, "probe");
  const int probeId = probe.id();
  std::vector<cfg::SweepJob> jobs;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const JobSpec& s = specs[i];
    jobs.push_back(cfg::SweepJob{
        s.id(), s.system, s.workload, s.threads, s.seed,
        [&, i, probeId](lktm::sim::SimContext& ctx) {
          ScopedSpan job(rec, "job", probeId);
          {
            ScopedSpan e(rec, "emit", job.id());
            const auto e0 = Clock::now();
            emitPrograms(specs[i]);
            emit[i] = secondsSince(e0);
          }
          ScopedSpan n(rec, "nocheck", job.id());
          return timedRun(specs[i], false, ctx, unchecked[i]);
        }});
  }
  const std::vector<RunResult> results = cfg::runSweep(std::move(jobs), hostThreads);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    pr.emitSeconds += emit[i];
    pr.checkSeconds += traced.timing[i].setup() - unchecked[i].setup();
    if (i >= traced.runs.size() || results[i].cycles != traced.runs[i].cycles) ++pr.mismatches;
  }
  if (def.runner == Runner::Manifest) {
    const fs::path dir = workDir / (std::string(def.name) + "-probe");
    fs::remove_all(dir);
    fs::create_directories(dir);
    ScopedSpan a(rec, "artifact", probeId);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto a0 = Clock::now();
      cfg::writeStatsJsonFile((dir / (std::to_string(i) + ".json")).string(), results[i]);
      pr.artifactSeconds += secondsSince(a0);
    }
    fs::remove_all(dir);
  }
  return pr;
}

// ------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (q in (0,1]).
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The modelled LockillerTM metrics of one pass (simulated time).
struct ModelMetrics {
  double speedupGeo = 0.0;  ///< geo-mean over cells of Baseline / LockillerTM cycles
  std::size_t cells = 0;
  double commitRate = 0.0;
  double commitP99 = 0.0;
};

ModelMetrics modelMetrics(const Pass& p) {
  ModelMetrics m;
  std::map<std::string, std::pair<double, double>> cells;  // cell -> (base, lk)
  std::uint64_t spec = 0, aborts = 0;
  lktm::stats::SnapshotEntry pooled;
  pooled.kind = lktm::stats::StatKind::Histogram;
  std::map<unsigned, std::uint64_t> buckets;
  for (const RunRecord& r : p.runs) {
    if (r.system == "Baseline") cells[r.cell].first = static_cast<double>(r.cycles);
    if (r.system != "LockillerTM") continue;
    cells[r.cell].second = static_cast<double>(r.cycles);
    spec += r.c[kHtm] + r.c[kStl] + r.c[kStm];
    aborts += r.c[kAborts];
    pooled.count += r.latency.count;
    pooled.sum += r.latency.sum;
    for (const auto& [b, n] : r.latency.buckets) buckets[b] += n;
  }
  double logSum = 0.0;
  for (const auto& [cell, bl] : cells) {
    if (bl.first > 0.0 && bl.second > 0.0) {
      logSum += std::log(bl.first / bl.second);
      ++m.cells;
    }
  }
  m.speedupGeo = m.cells > 0 ? std::exp(logSum / static_cast<double>(m.cells)) : 0.0;
  m.commitRate = ratio(static_cast<double>(spec), static_cast<double>(spec + aborts));
  pooled.buckets.assign(buckets.begin(), buckets.end());
  m.commitP99 = static_cast<double>(lktm::stats::histogramPercentile(pooled, 990));
  return m;
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<Metric> endToEnd(const std::vector<Pass>& passes, double peakRss,
                             std::size_t* samples) {
  std::vector<double> wall, cpu, setup, speed, simMs;
  for (const Pass& p : passes) {
    wall.push_back(p.wall);
    cpu.push_back(p.cpu());
    setup.push_back(p.setup());
    speed.push_back(ratio(p.coreCycles(), p.cpu()) / 1e6);
    for (const auto& t : p.timing) simMs.push_back(t.callWall * 1e3);
  }
  *samples = simMs.size();
  const ModelMetrics m = modelMetrics(passes.front());
  return {
      {"wall_s", median(wall), "s"},
      {"cpu_s", median(cpu), "s"},
      {"sim_ms_p50", percentile(simMs, 0.50), "ms"},
      {"sim_ms_p90", percentile(simMs, 0.90), "ms"},
      {"core_mcycles_per_cpu_s", median(speed), "Mcycles/s"},
      {"setup_s", median(setup), "s"},
      {"peak_rss_mb", peakRss, "MB"},
      {"lktm_speedup_geo", m.speedupGeo, "x"},
      {"lktm_commit_rate", m.commitRate, "ratio"},
      {"lktm_commit_p99_cyc", m.commitP99, "cycles"},
  };
}

std::vector<Metric> perLayer(const Pass& untraced, const Pass& p, const Probes& pr,
                             unsigned hostThreads) {
  std::array<double, kNumCounts> c{};
  std::array<double, kCauses.size()> causes{};
  double events = 0.0, cycles = 0.0;
  for (std::size_t i = 0; i < p.runs.size(); ++i) {
    for (std::size_t k = 0; k < kNumCounts; ++k) c[k] += static_cast<double>(p.runs[i].c[k]);
    for (std::size_t k = 0; k < kCauses.size(); ++k) {
      causes[k] += static_cast<double>(p.runs[i].causes[k]);
    }
    events += static_cast<double>(p.timing[i].events);
    cycles += static_cast<double>(p.runs[i].cycles);
  }
  const double loop = p.sum(&JobTiming::loopWall);
  const double jobWall = p.sum(&JobTiming::callWall);
  const double specCommits = c[kHtm] + c[kStl] + c[kStm];
  const double runs = static_cast<double>(std::max<std::size_t>(1, p.runs.size()));
  std::vector<Metric> out{
      {"sim.events", events, "count"},
      {"sim.loop_s", loop, "s"},
      {"sim.ns_per_event", ratio(loop, events) * 1e9, "ns"},
      {"sim.events_per_cycle", ratio(events, cycles), "events/cycle"},
      {"sim.pool_slabs", static_cast<double>(p.kernelAllocs.poolSlabs), "count"},
      {"sim.queue_slabs", static_cast<double>(p.kernelAllocs.queueSlabs), "count"},
      {"sim.heap_callables", static_cast<double>(p.kernelAllocs.heapCallables), "count"},
      {"cpu.mem_ops", c[kL1Hits] + c[kL1Misses], "count"},
      {"cpu.wait_lock_frac", ratio(c[kTimeWaitLock], c[kTimeTotal]), "ratio"},
      {"cpu.aborted_frac", ratio(c[kTimeAborted], c[kTimeTotal]), "ratio"},
      {"noc.messages", c[kMessages], "count"},
      {"noc.packet_hops", c[kPacketHops], "count"},
      {"noc.hops_per_msg", ratio(c[kPacketHops], c[kMessages]), "hops/msg"},
      {"noc.flit_hops", c[kFlitHops], "count"},
      {"mem.line_reads", c[kMemReads], "count"},
      {"mem.line_writes", c[kMemWrites], "count"},
      {"coh.l1_hit_rate", ratio(c[kL1Hits], c[kL1Hits] + c[kL1Misses]), "ratio"},
      {"coh.dir_reqs", c[kDirReqs], "count"},
      {"coh.llc_miss_rate", ratio(c[kLlcMisses], c[kLlcHits] + c[kLlcMisses]), "ratio"},
      {"coh.writebacks", c[kWritebacks], "count"},
      {"coh.interbank_msgs", c[kInterbank], "count"},
      {"coh.sig_rejects", c[kSigRejects], "count"},
      {"coh.check_s", pr.checkSeconds, "s"},
      {"core.rejects_sent", c[kRejectsSent], "count"},
      {"core.wakeups_sent", c[kWakeupsSent], "count"},
      {"core.switch_grant_rate", ratio(c[kSwitchGrants], c[kSwitchAttempts]), "ratio"},
      {"tx.commits", c[kHtm] + c[kLock] + c[kStl] + c[kStm], "count"},
      {"tx.commits.htm", c[kHtm], "count"},
      {"tx.commits.lock", c[kLock], "count"},
      {"tx.commits.stl", c[kStl], "count"},
      {"tx.commits.stm", c[kStm], "count"},
      {"tx.aborts", c[kAborts], "count"},
      {"tx.commit_rate", ratio(specCommits, specCommits + c[kAborts]), "ratio"},
  };
  for (std::size_t k = 0; k < kCauses.size(); ++k) {
    out.push_back({std::string("tx.aborts.") + lktm::stats::abortCauseSlug(kCauses[k]),
                   causes[k], "count"});
  }
  const double capacity = p.wall * hostThreads;
  out.insert(out.end(), {
      {"runtime.emit_s", pr.emitSeconds, "s"},
      {"config.worker_busy_frac", ratio(jobWall, capacity), "ratio"},
      {"config.idle_s", capacity - jobWall, "s"},
      {"config.artifact_s", pr.artifactSeconds, "s"},
      {"config.merge_s", p.mergeSeconds, "s"},
      {"config.artifact_mb", p.artifactMb, "MB"},
      {"stats.entries_per_run", c[kStatEntries] / runs, "count"},
      {"stats.query_s", p.querySeconds, "s"},
      {"trace.overhead_frac", ratio(p.cpu(), untraced.cpu()) - 1.0, "ratio"},
  });
  return out;
}

// -------------------------------------------------------------- output

std::string hex64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

void printMetrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-26s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Host facts, one JSON line just before the result, so a stored result
/// always carries the host and build it came from.
void printHostJson(unsigned nproc, unsigned hostThreads, const std::string& commit) {
  std::printf("{\"host\": {\"nproc\": %u, \"host_threads\": %u, \"build\": \"%s\", "
              "\"LKTM_MAX_CORES\": %d, \"commit\": \"%s\"}}\n",
              nproc, hostThreads, LKTM_BENCH_BUILD_TYPE, LKTM_MAX_CORES, commit.c_str());
}

void printResultJson(bool correct, std::size_t attempted, std::size_t failed,
                     const std::vector<Metric>& ms) {
  std::string s = "{\"correct\": ";
  s += correct ? "true" : "false";
  s += ", \"attempted\": " + std::to_string(attempted);
  s += ", \"failed\": " + std::to_string(failed);
  s += ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) s += ", ";
    s += "\"" + ms[i].name + "\": {\"value\": " + jsonNumber(ms[i].value) +
         ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  s += "}}";
  std::printf("%s\n", s.c_str());
}

/// Counts failures and prints the first few; returns the number failed.
std::size_t reportFailures(const std::vector<JobSpec>& specs, const Pass& p) {
  std::size_t failed = 0;
  for (std::size_t i = 0; i < p.runs.size(); ++i) {
    if (p.runs[i].ok) continue;
    if (++failed <= 5) {
      std::printf("!! FAILED %s: %s\n", specs[i].id().c_str(), p.runs[i].problem.c_str());
    }
  }
  return failed;
}

// ------------------------------------------------------------ self-test

/// The digest of a small grid must not depend on the host thread count.
bool selfTest(unsigned hostThreads) {
  std::size_t sims = 0;
  auto digestAt = [&](unsigned threads, bool& allOk) {
    const auto results = cfg::sweepSystems(
        cfg::MachineParams::typical(),
        {cfg::systemByName("Baseline"), cfg::systemByName("LockillerTM"),
         cfg::systemByName("TL2-STM")},
        {"genome", "intruder", "kmeans+"}, {2, 8}, threads);
    Digest d;
    for (const RunResult& r : results) {
      allOk = allOk && r.ok();
      d.mixRun(r.system + "/" + r.workload + "@" + std::to_string(r.threads) + "#" +
                   std::to_string(r.seed),
               r.cycles, r.totalCommits(), r.aborts());
    }
    sims = results.size();
    return d.h;
  };
  bool allOk = true;
  const std::uint64_t one = digestAt(1, allOk);
  const std::uint64_t many = digestAt(hostThreads, allOk);
  std::printf("self-test: %zu sims, digest %s at 1 host thread, %s at %u: %s\n",
              sims, hex64(one).c_str(), hex64(many).c_str(), hostThreads,
              one == many && allOk ? "ok" : "FAILED");
  return one == many && allOk;
}

// ---------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = cfg::kDefaultSweepSeed;
  double seconds = 30.0;
  bool trace = false;
  std::string workDir = ".";
  std::string traceOut;
  std::string commit = "unknown";
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "lktm_e2e: %s\nusage: lktm_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 [--work-dir DIR] [--trace-out FILE] [--commit ID]\n"
               "workloads:",
               msg);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") a.workload = v;
      else if (flag == "--seed") a.seed = std::stoull(v);
      else if (flag == "--seconds") a.seconds = std::stod(v);
      else if (flag == "--trace") a.trace = std::stoi(v) != 0;
      else if (flag == "--work-dir") a.workDir = v;
      else if (flag == "--trace-out") a.traceOut = v;
      else if (flag == "--commit") a.commit = v;
      else usage(("unknown flag " + flag).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  return a;
}

int run(const Args& args) {
  const WorkloadDef* def = nullptr;
  for (const auto& w : kWorkloads) {
    if (args.workload == w.name) def = &w;
  }
  if (def == nullptr) usage(("unknown workload '" + args.workload + "'").c_str());

  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned hostThreads = def->parallel ? std::min(4u, nproc) : 1u;
  const std::vector<JobSpec> specs = def->jobs(args.seed);
  std::printf("workload %s: %zu sims per pass, base seed %llu\n", def->name, specs.size(),
              static_cast<unsigned long long>(args.seed));
  std::printf("host: nproc %u, host threads %u, build %s, LKTM_MAX_CORES %d, commit %s\n",
              nproc, hostThreads, LKTM_BENCH_BUILD_TYPE, LKTM_MAX_CORES,
              args.commit.c_str());
  std::fflush(stdout);

  std::vector<Pass> passes;
  Probes probes;
  SpanRecorder recorder;
  if (!args.trace) {
    const auto t0 = Clock::now();
    // Start another pass while it would end before --seconds plus half a pass.
    do {
      passes.push_back(runPass(*def, specs, hostThreads, args.workDir, nullptr));
    } while (secondsSince(t0) * (1.0 + 0.5 / static_cast<double>(passes.size())) <=
             args.seconds);
  } else {
    passes.push_back(runPass(*def, specs, hostThreads, args.workDir, nullptr));
    passes.push_back(runPass(*def, specs, hostThreads, args.workDir, &recorder));
    probes = runProbes(*def, specs, hostThreads, passes.back(), args.workDir, &recorder);
  }
  // Read before the self-test, whose worker pool must not count here.
  const double peakRss = peakRssMb();
  bool correct = selfTest(std::min(4u, nproc));

  std::size_t attempted = 0, failed = 0;
  for (const Pass& p : passes) {
    attempted += specs.size();
    failed += reportFailures(specs, p);
    if (!p.mergeOk) {
      std::printf("!! writeMergedArtifact failed\n");
      correct = false;
    }
    if (p.digest != passes.front().digest) {
      std::printf("!! result_digest differs between passes: %s vs %s\n",
                  hex64(p.digest).c_str(), hex64(passes.front().digest).c_str());
      correct = false;
    }
  }
  if (probes.mismatches > 0) {
    std::printf("!! %zu jobs changed simulated cycles with checks off\n", probes.mismatches);
    correct = false;
  }
  correct = correct && failed == 0;

  const ModelMetrics model = modelMetrics(passes.front());
  std::printf("passes: %zu, sims attempted %zu, failed %zu, fail_frac %.6f\n",
              passes.size(), attempted, failed,
              static_cast<double>(failed) / static_cast<double>(attempted));
  for (std::size_t i = 0; i < passes.size(); ++i) {
    std::printf("pass %zu: wall %.3f s, cpu %.3f s, setup %.3f s%s\n", i, passes[i].wall,
                passes[i].cpu(), passes[i].setup(), args.trace && i > 0 ? " (traced)" : "");
  }
  std::printf("result_digest: %s\n", hex64(passes.front().digest).c_str());
  if (std::string(def->name) == "fig07-grid") {
    std::printf("lktm_speedup_geo %.4fx over %zu cells; paper Fig 12 reference %.2fx "
                "(EXPERIMENTS.md), error %+.1f%%\n",
                model.speedupGeo, model.cells, kPaperFig12Speedup,
                100.0 * (model.speedupGeo / kPaperFig12Speedup - 1.0));
  } else {
    std::printf("lktm_speedup_geo %.4fx over %zu cells; unvalidated (no paper reference)\n",
                model.speedupGeo, model.cells);
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    std::size_t samples = 0;
    metrics = endToEnd(passes, peakRss, &samples);
    std::printf("end-to-end (host times are medians over %zu passes; sim_ms_* over %zu "
                "simulation calls; lktm_* are simulated):\n",
                passes.size(), samples);
  } else {
    metrics = perLayer(passes.front(), passes.back(), probes, hostThreads);
    std::printf("tracing overhead: cpu %+.2f%%, wall %+.2f%% (traced vs untraced pass)\n",
                100.0 * (ratio(passes.back().cpu(), passes.front().cpu()) - 1.0),
                100.0 * (ratio(passes.back().wall, passes.front().wall) - 1.0));
    std::printf("span self time (s):\n");
    for (const auto& [name, t] : recorder.selfTimes()) {
      std::printf("  %-10s %10.4f  (%zu spans)\n", name.c_str(), t.seconds, t.count);
    }
    if (!args.traceOut.empty()) {
      if (recorder.writeChromeTrace(args.traceOut)) {
        std::printf("trace written to %s\n", args.traceOut.c_str());
      } else {
        std::printf("!! cannot write trace %s\n", args.traceOut.c_str());
        correct = false;
      }
    }
    std::printf("per-layer (traced pass):\n");
  }
  printMetrics(metrics);
  printHostJson(nproc, hostThreads, args.commit);
  printResultJson(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace simbench

int main(int argc, char** argv) {
  try {
    return simbench::run(simbench::parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "lktm_e2e: %s\n", e.what());
    return 1;
  }
}
