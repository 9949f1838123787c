#include "config/orchestrator.hpp"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>

#include "config/artifact.hpp"
#include "config/distrib.hpp"
#include "config/systems.hpp"
#include "stats/json.hpp"
#include "workloads/db_traffic.hpp"
#include "workloads/micro.hpp"
#include "workloads/workload.hpp"

namespace lktm::cfg {

namespace {

namespace fs = std::filesystem;
using stats::json::Value;

/// Diagnostic prefix marking a TransientJobError capture; isTransientFailure
/// keys on it so scripted runners returning (not throwing) a transient
/// failure classify identically.
constexpr const char* kTransientPrefix = "transient: ";

[[noreturn]] void badManifest(const std::string& what) {
  throw std::runtime_error("malformed manifest: " + what);
}

const Value& needField(const Value& obj, const char* key) {
  const Value* v = obj.find(key);
  if (v == nullptr) badManifest(std::string("missing \"") + key + "\"");
  return *v;
}

}  // namespace

std::string jobFileStem(const JobSpec& spec) {
  const std::string id = spec.id();
  std::string out;
  out.reserve(id.size());
  for (const char c : id) {
    const bool keep = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-';
    out += keep ? c : '_';
  }
  return out;
}

const char* toString(JobState s) {
  switch (s) {
    case JobState::Pending: return "pending";
    case JobState::Running: return "running";
    case JobState::Ok: return "ok";
    case JobState::Failed: return "failed";
    case JobState::Hang: return "hang";
    case JobState::Timeout: return "timeout";
  }
  return "?";
}

bool jobStateFromString(const std::string& name, JobState& out) {
  for (const JobState s : {JobState::Pending, JobState::Running, JobState::Ok,
                           JobState::Failed, JobState::Hang, JobState::Timeout}) {
    if (name == toString(s)) {
      out = s;
      return true;
    }
  }
  return false;
}

JobState jobStateOf(const RunResult& r) {
  switch (r.status) {
    case RunStatus::Hang: return JobState::Hang;
    case RunStatus::Timeout: return JobState::Timeout;
    case RunStatus::Failed: return JobState::Failed;
    case RunStatus::Ok: break;
  }
  // Invariant/coherence violations fail the job even though the simulation
  // itself ran to completion.
  return r.violations.empty() ? JobState::Ok : JobState::Failed;
}

std::string JobSpec::id() const {
  return system + "/" + workload + "/" + machine + "@" + std::to_string(threads) +
         "#" + std::to_string(seed);
}

JobRecord* SweepManifest::find(const std::string& id) {
  for (JobRecord& j : jobs) {
    if (j.spec.id() == id) return &j;
  }
  return nullptr;
}

std::size_t SweepManifest::countIn(JobState s) const {
  std::size_t n = 0;
  for (const JobRecord& j : jobs) n += (j.state == s) ? 1 : 0;
  return n;
}

bool SweepManifest::complete() const {
  for (const JobRecord& j : jobs) {
    if (j.state == JobState::Pending || j.state == JobState::Running) return false;
  }
  return true;
}

bool SweepManifest::allOk() const {
  for (const JobRecord& j : jobs) {
    if (j.state != JobState::Ok) return false;
  }
  return true;
}

SweepManifest SweepManifest::fromJson(const std::string& text) {
  const Value doc = stats::json::parse(text);
  const Value* schema = doc.find("schema");
  if (schema == nullptr ||
      (schema->text != kManifestSchema && schema->text != kManifestSchemaV1)) {
    badManifest(std::string("schema is not ") + kManifestSchema + " (or " +
                kManifestSchemaV1 + ")");
  }
  SweepManifest m;
  m.artifactDir = needField(doc, "artifact_dir").text;
  // v1 documents predate sharding; they load as a single shard and save back
  // as v2.
  if (const Value* shards = doc.find("shards"); shards != nullptr) {
    m.shards = stats::json::asU64(*shards);
    if (m.shards == 0) badManifest("shards must be >= 1");
  }
  const Value& jobs = needField(doc, "jobs");
  if (!jobs.isArray()) badManifest("jobs is not an array");
  std::vector<std::string> seen;
  for (const Value& e : *jobs.array) {
    if (!e.isObject()) badManifest("job entry is not an object");
    JobRecord j;
    j.spec.system = needField(e, "system").text;
    j.spec.workload = needField(e, "workload").text;
    j.spec.machine = needField(e, "machine").text;
    j.spec.threads = static_cast<unsigned>(stats::json::asU64(needField(e, "threads")));
    j.spec.seed = stats::json::asU64(needField(e, "seed"));
    if (!jobStateFromString(needField(e, "state").text, j.state)) {
      badManifest("unknown job state \"" + needField(e, "state").text + "\"");
    }
    j.attempts = static_cast<unsigned>(stats::json::asU64(needField(e, "attempts")));
    j.diagnostic = needField(e, "diagnostic").text;
    j.artifact = needField(e, "artifact").text;
    j.wallSeconds = needField(e, "wall_seconds").number;
    j.cycles = stats::json::asU64(needField(e, "cycles"));
    const std::string id = j.spec.id();
    for (const std::string& s : seen) {
      if (s == id) badManifest("duplicate job id " + id);
    }
    seen.push_back(id);
    m.jobs.push_back(std::move(j));
  }
  return m;
}

SweepManifest SweepManifest::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open manifest: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return fromJson(ss.str());
}

std::string SweepManifest::toJson() const {
  std::ostringstream os;
  stats::json::Writer w(os, /*pretty=*/true);
  w.beginObject();
  w.field("schema", kManifestSchema);
  w.field("artifact_dir", artifactDir);
  w.field("shards", shards);
  w.key("jobs");
  w.beginArray();
  for (const JobRecord& j : jobs) {
    w.beginObject();
    w.field("id", j.spec.id());
    w.field("system", j.spec.system);
    w.field("workload", j.spec.workload);
    w.field("machine", j.spec.machine);
    w.field("threads", j.spec.threads);
    w.field("seed", j.spec.seed);
    w.field("state", toString(j.state));
    w.field("attempts", j.attempts);
    w.field("diagnostic", j.diagnostic);
    w.field("artifact", j.artifact);
    w.field("wall_seconds", j.wallSeconds);
    w.field("cycles", j.cycles);
    w.endObject();
  }
  w.endArray();
  w.endObject();
  return os.str();
}

bool SweepManifest::save(const std::string& path) const {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "error: cannot open " << tmp << " for writing\n";
      return false;
    }
    out << toJson();
    if (!out) {
      std::cerr << "error: short write to " << tmp << "\n";
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::cerr << "error: cannot rename " << tmp << " -> " << path << ": "
              << ec.message() << "\n";
    return false;
  }
  return true;
}

std::unique_ptr<wl::Workload> makeJobWorkload(const std::string& name,
                                              std::uint64_t seed) {
  if (name == "counter") return wl::makeCounter(4, 2, 256, seed);
  if (name == "bank") return wl::makeBank(64, 480, seed);
  if (name == "linkedlist") return wl::makeLinkedList(128, 6, 240, seed);
  if (wl::isDbWorkloadName(name)) return wl::makeDbWorkload(name, seed);
  return wl::makeStamp(name, seed);
}

RunResult runSpec(const JobSpec& spec, const OrchestratorOptions& opts,
                  sim::SimContext& ctx) {
  RunConfig cfg;
  cfg.machine = machineByName(spec.machine);
  if (opts.jobCycleBudget > 0) cfg.machine.maxCycles = opts.jobCycleBudget;
  cfg.system = systemByName(spec.system);
  cfg.threads = spec.threads;
  cfg.rngSeed = jobRunSeed(spec.seed, spec.system, spec.workload, spec.threads);
  cfg.wallBudgetSeconds = opts.jobWallBudgetSeconds;
  RunResult r = runSimulation(
      cfg, [&] { return makeJobWorkload(spec.workload, spec.seed); }, &ctx);
  r.workload = spec.workload;
  return r;
}

bool isTransientFailure(const RunResult& r) {
  if (r.status == RunStatus::Timeout) {
    // Wall-clock expiry depends on host load; a cycle-budget timeout is a
    // property of the simulation and would reproduce exactly.
    return r.diagnostic.find("wall-clock") != std::string::npos;
  }
  if (r.status == RunStatus::Failed) {
    return r.diagnostic.compare(0, std::char_traits<char>::length(kTransientPrefix),
                                kTransientPrefix) == 0;
  }
  return false;
}

namespace {

RunResult attemptJobOnce(const JobSpec& spec, const OrchestratorOptions& opts,
                         const JobRunner& run, sim::SimContext& ctx) {
  auto crashed = [&](std::string diagnostic) {
    RunResult r;
    r.system = spec.system;
    r.workload = spec.workload;
    r.machine = spec.machine;
    r.threads = spec.threads;
    r.seed = jobRunSeed(spec.seed, spec.system, spec.workload, spec.threads);
    r.status = RunStatus::Failed;
    r.diagnostic = std::move(diagnostic);
    return r;
  };
  try {
    return run(spec, opts, ctx);
  } catch (const TransientJobError& e) {
    return crashed(std::string(kTransientPrefix) + e.what());
  } catch (const std::exception& e) {
    return crashed(std::string("exception: ") + e.what());
  } catch (...) {
    return crashed("non-standard exception (not derived from std::exception)");
  }
}

}  // namespace

namespace detail {

RunResult runJobWithRetries(
    const JobSpec& spec, const OrchestratorOptions& opts, const JobRunner& run,
    sim::SimContext& ctx, const std::function<unsigned()>& beginAttempt,
    const std::function<void(unsigned, const RunResult&)>& onRetry) {
  const unsigned maxAttempts = std::max(1u, opts.maxAttempts);
  for (;;) {
    const unsigned attempt = beginAttempt();
    RunResult r = attemptJobOnce(spec, opts, run, ctx);
    if (jobStateOf(r) == JobState::Ok || !isTransientFailure(r) ||
        attempt >= maxAttempts) {
      return r;
    }
    if (onRetry) onRetry(attempt, r);
    if (opts.retryBackoffSeconds > 0.0) {
      // A claim-inherited attempt count can be large; clamp the doubling so
      // the shift stays defined and the sleep finite.
      const unsigned exp = std::min(attempt - 1, 20u);
      const double backoff =
          opts.retryBackoffSeconds * static_cast<double>(1u << exp);
      std::this_thread::sleep_for(std::chrono::duration<double>(backoff));
    }
  }
}

}  // namespace detail

OrchestratorReport runManifest(SweepManifest& manifest, const std::string& manifestPath,
                               const OrchestratorOptions& opts, const JobRunner& runner,
                               std::vector<RunResult>* results) {
  // `run` owns its spool: the manifest's own, or a private temporary one when
  // there is no manifest file or its spool cannot be created.
  WorkerOptions owner;
  owner.workerId = "run";
  bool durable = !manifestPath.empty();
  if (durable) {
    owner.claimDir = claimDirFor(manifestPath);
    try {
      ClaimStore(owner.claimDir, owner.workerId).init();
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      durable = false;
    }
  }
  if (!durable) {
    static std::atomic<std::uint64_t> privateSpools{0};
    owner.claimDir = (fs::temp_directory_path() /
                      ("lktm-run-" + std::to_string(::getpid()) + "-" +
                       std::to_string(privateSpools.fetch_add(1))))
                         .string();
    std::error_code ec;
    fs::remove_all(owner.claimDir, ec);  // left by a killed process of the same pid
  }

  OrchestratorReport report = detail::drainClaimSpool(
      manifest, detail::SpoolOwner::Exclusive, owner, opts, runner, results);

  // The manifest now says everything the spool did. Save it once; the spool
  // stays only when it is the sole copy of the results (the save failed).
  const bool saved = manifestPath.empty() || manifest.save(manifestPath);
  if (!manifestPath.empty() && !durable) {
    report.writeFailures += report.ran;  // no done record reached the manifest's spool
  }
  if (!saved) ++report.writeFailures;
  if (saved || !durable) {
    std::error_code ec;
    fs::remove_all(owner.claimDir, ec);
  }
  return report;
}

namespace {

/// Jobs each merge thread may render ahead of the writer.
constexpr std::size_t kMergeWindowPerThread = 2;

/// Open the merged document up to its "runs" array. The merged output and
/// every per-job rendering start with this, so a run rendered on its own sits
/// at the nesting depth, hence the indentation, it has in the merge.
void openMergedRuns(stats::json::Writer& w) {
  w.beginObject();
  w.field("schema", kStatsSchema);
  w.key("runs");
  w.beginArray();
}

/// The bytes that close the merged document after its last run.
std::string mergedTail() {
  std::ostringstream os;
  stats::json::Writer w(os, /*pretty=*/true);
  openMergedRuns(w);
  w.null();  // a stand-in run, so the closers indent as they do after real runs
  const auto mark = static_cast<std::size_t>(os.tellp());
  w.endArray();
  w.endObject();
  return os.str().substr(mark);
}

/// One Ok job's run entry exactly as the merged document carries it: leading
/// newline and indent, no separating comma, "wall_seconds" zeroed. Throws
/// std::runtime_error when the artifact is missing or not a one-run
/// lktm.stats.v1 document.
std::string renderMergedRun(const JobRecord& j) {
  std::ifstream in(j.artifact, std::ios::binary);
  if (!in) {
    throw std::runtime_error("cannot open artifact " + j.artifact + " for " + j.spec.id());
  }
  std::ostringstream text;
  text << in.rdbuf();
  Value doc;
  try {
    doc = stats::json::parse(text.str());
  } catch (const std::exception& e) {
    throw std::runtime_error(j.artifact + ": " + e.what());
  }
  const Value* runs = doc.find("runs");
  if (runs == nullptr || !runs->isArray() || runs->array->size() != 1) {
    throw std::runtime_error(j.artifact + " is not a one-run artifact");
  }
  Value& run = runs->array->front();
  if (run.isObject()) {
    // Host timing is the one field a resume cannot reproduce; zero it so
    // merged bytes depend only on the job specs.
    Value zero;
    zero.kind = Value::Kind::Number;
    zero.number = 0.0;
    zero.text = "0";
    (*run.object)["wall_seconds"] = zero;
  }
  std::ostringstream os;
  stats::json::Writer w(os, /*pretty=*/true);
  openMergedRuns(w);
  const auto start = static_cast<std::size_t>(os.tellp());
  stats::json::writeValue(w, run);
  std::string out = std::move(os).str();
  out.erase(0, start);
  return out;
}

/// Stream the merged document of `jobs` to `out` in job order while up to
/// `threads` threads render runs at most kMergeWindowPerThread * threads jobs
/// ahead of it. Returns false with `error` set when a job cannot be rendered;
/// `out` then holds a partial document.
bool streamMergedRuns(const std::vector<const JobRecord*>& jobs, std::size_t threads,
                      std::ostream& out, std::string& error) {
  stats::json::Writer w(out, /*pretty=*/true);
  openMergedRuns(w);
  if (jobs.empty()) {
    w.endArray();
    w.endObject();
    return true;
  }
  threads = std::min(threads, jobs.size());
  const std::size_t window = kMergeWindowPerThread * threads;
  std::vector<std::string> slots(window);
  std::vector<char> ready(window, 0);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t next = 0;     // next job to render
  std::size_t written = 0;  // jobs already streamed out
  bool failed = false;

  auto render = [&] {
    for (;;) {
      std::size_t i = 0;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] {
          return failed || next >= jobs.size() || next < written + window;
        });
        if (failed || next >= jobs.size()) return;
        i = next++;
      }
      std::string piece;
      std::string why;
      bool ok = false;
      try {
        piece = renderMergedRun(*jobs[i]);
        ok = true;
      } catch (const std::exception& e) {
        why = e.what();
      }
      {
        std::lock_guard<std::mutex> lock(mu);
        if (ok) {
          slots[i % window] = std::move(piece);
          ready[i % window] = 1;
        } else if (!failed) {
          failed = true;
          error = std::move(why);
        }
      }
      cv.notify_all();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(render);

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    std::string piece;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return failed || ready[i % window] != 0; });
      if (failed) break;
      piece = std::move(slots[i % window]);
      ready[i % window] = 0;
      ++written;
    }
    cv.notify_all();
    if (i > 0) out << ',';
    out << piece;
  }
  for (std::thread& t : pool) t.join();
  if (failed) return false;
  out << mergedTail();
  return true;
}

}  // namespace

bool writeMergedArtifact(const SweepManifest& manifest, const std::string& outPath,
                         unsigned hostThreads) {
  std::vector<const JobRecord*> okJobs;
  for (const JobRecord& j : manifest.jobs) {
    if (j.state == JobState::Ok) okJobs.push_back(&j);
  }
  const std::string tmp = outPath + ".tmp";
  std::string error;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::cerr << "error: cannot open " << tmp << " for writing\n";
      return false;
    }
    if (streamMergedRuns(okJobs, detail::hostThreadCount(hostThreads), out, error)) {
      out.close();
      if (!out) error = "short write to " + tmp;
    }
  }
  std::error_code ec;
  if (error.empty()) {
    fs::rename(tmp, outPath, ec);
    if (!ec) return true;
    error = "cannot rename " + tmp + " -> " + outPath + ": " + ec.message();
  }
  std::cerr << "error: " << error << "\n";
  fs::remove(tmp, ec);
  return false;
}

SweepManifest makeManifest(const std::string& artifactDir, const std::string& machine,
                           const std::vector<std::string>& systems,
                           const std::vector<std::string>& workloads,
                           const std::vector<unsigned>& threads, std::uint64_t seed) {
  SweepManifest m;
  m.artifactDir = artifactDir;
  for (const std::string& w : workloads) {
    for (const std::string& s : systems) {
      for (const unsigned t : threads) {
        JobRecord j;
        j.spec = JobSpec{s, w, machine, t, seed};
        m.jobs.push_back(std::move(j));
      }
    }
  }
  return m;
}

}  // namespace lktm::cfg
