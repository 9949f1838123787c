#include "config/distrib.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>

#include "stats/json.hpp"

namespace lktm::cfg {

namespace {

namespace fs = std::filesystem;
using stats::json::Value;

std::string readFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

double unixNow() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

/// Unique-per-call tmp name inside `dir`: worker id + pid + counter, so
/// concurrent writers (threads, processes, hosts on a shared mount) never
/// collide before their rename.
std::string tmpName(const std::string& dir, const std::string& worker) {
  static std::atomic<std::uint64_t> seq{0};
  return dir + "/.tmp." + worker + "." + std::to_string(::getpid()) + "." +
         std::to_string(seq.fetch_add(1));
}

/// Atomic publish: write a unique tmp file, rename over the target. Readers
/// never observe a torn file; concurrent writers resolve to the last rename.
bool atomicWrite(const std::string& path, const std::string& content,
                 const std::string& worker) {
  const std::string tmp = tmpName(fs::path(path).parent_path().string(), worker);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << content;
    if (!out) {
      std::error_code ec;
      fs::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  if (ec) {
    std::error_code ec2;
    fs::remove(tmp, ec2);
    return false;
  }
  return true;
}

/// Exclusive create (seeding only): O_CREAT|O_EXCL so exactly one of any
/// number of racing seeders materializes the entry; the rest see EEXIST and
/// move on. All steady-state transitions use rename, not this.
bool exclusiveCreate(const std::string& path, const std::string& content) {
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return false;
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
  return true;
}

std::string claimJson(const std::string& id, const std::string& worker,
                      unsigned attempts) {
  std::ostringstream os;
  stats::json::Writer w(os, /*pretty=*/false);
  w.beginObject();
  w.field("id", id);
  w.field("worker", worker);
  w.field("attempts", attempts);
  w.endObject();
  return os.str();
}

std::string doneJson(const DoneRecord& d) {
  std::ostringstream os;
  stats::json::Writer w(os, /*pretty=*/false);
  w.beginObject();
  w.field("id", d.id);
  w.field("state", toString(d.state));
  w.field("attempts", d.attempts);
  w.field("diagnostic", d.diagnostic);
  w.field("artifact", d.artifact);
  w.field("wall_seconds", d.wallSeconds);
  w.field("cycles", d.cycles);
  w.field("worker", d.worker);
  w.endObject();
  return os.str();
}

/// Tolerant parse: spool files can legitimately be mid-transition tokens
/// ({"id","attempts"} without an owner) or, worst case, unreadable — every
/// field falls back to a safe default rather than throwing inside a scan.
Value parseOrNull(const std::string& text) {
  if (text.empty()) return {};
  try {
    return stats::json::parse(text);
  } catch (const std::exception&) {
    return {};
  }
}

std::vector<std::string> listDirSorted(const std::string& dir) {
  std::vector<std::string> names;
  std::error_code ec;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (!name.empty() && name[0] != '.') names.push_back(name);
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

std::size_t jobShard(const JobSpec& spec, std::uint64_t numShards) {
  if (numShards <= 1) return 0;
  std::uint64_t h =
      jobRunSeed(spec.seed, spec.system, spec.workload, spec.threads);
  for (const char c : spec.machine) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  h ^= h >> 31;
  return static_cast<std::size_t>(h % numShards);
}

DoneRecord doneRecordOf(const JobRecord& j, const std::string& worker) {
  DoneRecord d;
  d.file = jobFileStem(j.spec);
  d.id = j.spec.id();
  d.state = j.state;
  d.attempts = j.attempts;
  d.diagnostic = j.diagnostic;
  d.artifact = j.artifact;
  d.wallSeconds = j.wallSeconds;
  d.cycles = j.cycles;
  d.worker = worker;
  return d;
}

std::string claimDirFor(const std::string& manifestPath) {
  return manifestPath + ".claims";
}

ClaimStore::ClaimStore(std::string root, std::string workerId)
    : root_(std::move(root)), workerId_(std::move(workerId)) {}

void ClaimStore::init() const {
  std::error_code ec;
  for (const char* sub : {"todo", "claimed", "done", "hb"}) {
    fs::create_directories(fs::path(root_) / sub, ec);
    if (ec) {
      throw std::runtime_error("cannot create claim directory " +
                               (fs::path(root_) / sub).string() + ": " +
                               ec.message());
    }
  }
}

std::size_t ClaimStore::seed(const SweepManifest& manifest) const {
  std::size_t created = 0;
  for (const JobRecord& j : manifest.jobs) {
    const std::string f = jobFileStem(j.spec);
    if (doneExists(f) || todoExists(f) ||
        fs::exists(fs::path(root_) / "claimed" / f)) {
      continue;
    }
    const bool okWithArtifact = j.state == JobState::Ok && !j.artifact.empty() &&
                                fs::exists(fs::path(j.artifact));
    const bool terminalFailure = j.state == JobState::Failed ||
                                 j.state == JobState::Hang ||
                                 j.state == JobState::Timeout;
    if (okWithArtifact || terminalFailure) {
      DoneRecord d = doneRecordOf(j, workerId_);
      if (!okWithArtifact) d.artifact.clear();
      created += exclusiveCreate((fs::path(root_) / "done" / f).string(),
                                 doneJson(d))
                     ? 1
                     : 0;
    } else {
      // Pending / stale Running / Ok-with-lost-artifact: (re)run it. The
      // token carries the cumulative attempt count forward.
      created += exclusiveCreate((fs::path(root_) / "todo" / f).string(),
                                 claimJson(j.spec.id(), "", j.attempts))
                     ? 1
                     : 0;
    }
  }
  return created;
}

bool ClaimStore::take(const std::string& file, ClaimRecord& out) const {
  const std::string from = (fs::path(root_) / "todo" / file).string();
  const std::string to = (fs::path(root_) / "claimed" / file).string();
  std::error_code ec;
  fs::rename(from, to, ec);
  if (ec) return false;  // lost the race (or the token was already gone)
  const Value v = parseOrNull(readFileOrEmpty(to));
  out.file = file;
  const Value* id = v.find("id");
  out.id = id != nullptr && id->isString() ? id->text : "";
  const Value* attempts = v.find("attempts");
  out.attempts = attempts != nullptr
                     ? static_cast<unsigned>(stats::json::asU64(*attempts))
                     : 0;
  out.worker = workerId_;
  publishClaim(out);
  return true;
}

void ClaimStore::publishClaim(const ClaimRecord& c) const {
  atomicWrite((fs::path(root_) / "claimed" / c.file).string(),
              claimJson(c.id, c.worker, c.attempts), workerId_);
}

bool ClaimStore::markDone(const DoneRecord& d) const {
  if (!atomicWrite((fs::path(root_) / "done" / d.file).string(), doneJson(d),
                   workerId_)) {
    return false;
  }
  std::error_code ec;
  fs::remove(fs::path(root_) / "claimed" / d.file, ec);
  return true;
}

bool ClaimStore::reclaim(const std::string& file) const {
  std::error_code ec;
  if (doneExists(file)) {
    // The owner finished but died before unclaiming: done/ wins, the claim
    // is garbage.
    fs::remove(fs::path(root_) / "claimed" / file, ec);
    return false;
  }
  fs::rename(fs::path(root_) / "claimed" / file, fs::path(root_) / "todo" / file,
             ec);
  return !ec;
}

void ClaimStore::writeHeartbeat(std::uint64_t seq) const {
  std::ostringstream os;
  stats::json::Writer w(os, /*pretty=*/false);
  w.beginObject();
  w.field("worker", workerId_);
  w.field("seq", seq);
  w.field("unix_seconds", unixNow());
  w.endObject();
  atomicWrite((fs::path(root_) / "hb" / workerId_).string(), os.str(),
              workerId_);
}

std::vector<std::string> ClaimStore::listTodo() const {
  return listDirSorted((fs::path(root_) / "todo").string());
}

std::vector<ClaimRecord> ClaimStore::listClaimed() const {
  std::vector<ClaimRecord> out;
  for (const std::string& f :
       listDirSorted((fs::path(root_) / "claimed").string())) {
    const Value v =
        parseOrNull(readFileOrEmpty((fs::path(root_) / "claimed" / f).string()));
    ClaimRecord c;
    c.file = f;
    const Value* id = v.find("id");
    c.id = id != nullptr && id->isString() ? id->text : "";
    const Value* worker = v.find("worker");
    c.worker = worker != nullptr && worker->isString() ? worker->text : "";
    const Value* attempts = v.find("attempts");
    c.attempts = attempts != nullptr
                     ? static_cast<unsigned>(stats::json::asU64(*attempts))
                     : 0;
    out.push_back(std::move(c));
  }
  return out;
}

bool ClaimStore::readDone(const std::string& file, DoneRecord& out) const {
  const std::string text =
      readFileOrEmpty((fs::path(root_) / "done" / file).string());
  const Value v = parseOrNull(text);
  if (!v.isObject()) return false;
  out.file = file;
  const Value* id = v.find("id");
  out.id = id != nullptr && id->isString() ? id->text : "";
  const Value* state = v.find("state");
  if (state == nullptr || !state->isString() ||
      !jobStateFromString(state->text, out.state)) {
    return false;
  }
  const Value* attempts = v.find("attempts");
  out.attempts = attempts != nullptr
                     ? static_cast<unsigned>(stats::json::asU64(*attempts))
                     : 0;
  const Value* diag = v.find("diagnostic");
  out.diagnostic = diag != nullptr && diag->isString() ? diag->text : "";
  const Value* artifact = v.find("artifact");
  out.artifact = artifact != nullptr && artifact->isString() ? artifact->text : "";
  const Value* wall = v.find("wall_seconds");
  out.wallSeconds = wall != nullptr && wall->isNumber() ? wall->number : 0.0;
  const Value* cycles = v.find("cycles");
  out.cycles = cycles != nullptr ? stats::json::asU64(*cycles) : 0;
  const Value* worker = v.find("worker");
  out.worker = worker != nullptr && worker->isString() ? worker->text : "";
  return true;
}

std::vector<DoneRecord> ClaimStore::listDone() const {
  std::vector<DoneRecord> out;
  for (const std::string& f : listDirSorted((fs::path(root_) / "done").string())) {
    DoneRecord d;
    if (readDone(f, d)) out.push_back(std::move(d));
  }
  return out;
}

std::vector<HeartbeatRecord> ClaimStore::listHeartbeats() const {
  std::vector<HeartbeatRecord> out;
  for (const std::string& f : listDirSorted((fs::path(root_) / "hb").string())) {
    const Value v =
        parseOrNull(readFileOrEmpty((fs::path(root_) / "hb" / f).string()));
    HeartbeatRecord h;
    h.worker = f;
    const Value* seq = v.find("seq");
    h.seq = seq != nullptr ? stats::json::asU64(*seq) : 0;
    const Value* unix = v.find("unix_seconds");
    h.unixSeconds = unix != nullptr && unix->isNumber() ? unix->number : 0.0;
    out.push_back(std::move(h));
  }
  return out;
}

bool ClaimStore::todoExists(const std::string& file) const {
  return fs::exists(fs::path(root_) / "todo" / file);
}

bool ClaimStore::doneExists(const std::string& file) const {
  return fs::exists(fs::path(root_) / "done" / file);
}

std::size_t ClaimStore::doneCount() const {
  return listDirSorted((fs::path(root_) / "done").string()).size();
}

void ClaimStore::discardTodo(const std::string& file) const {
  std::error_code ec;
  fs::remove(fs::path(root_) / "todo" / file, ec);
}

std::size_t foldClaimState(SweepManifest& manifest, const std::string& claimDir) {
  if (claimDir.empty() || !fs::exists(claimDir)) return 0;
  const ClaimStore store(claimDir, "fold");
  std::size_t folded = 0;
  for (JobRecord& j : manifest.jobs) {
    const std::string f = jobFileStem(j.spec);
    DoneRecord d;
    if (store.readDone(f, d)) {
      j.state = d.state;
      j.attempts = d.attempts;
      j.diagnostic = d.diagnostic;
      j.artifact = d.artifact;
      j.wallSeconds = d.wallSeconds;
      j.cycles = d.cycles;
      ++folded;
      continue;
    }
    if (fs::exists(fs::path(claimDir) / "claimed" / f)) {
      j.state = JobState::Running;
      continue;
    }
    if (store.todoExists(f)) j.state = JobState::Pending;
  }
  return folded;
}

OrchestratorReport runWorker(SweepManifest& manifest, const WorkerOptions& wopts,
                             const OrchestratorOptions& opts,
                             const JobRunner& runner) {
  if (wopts.workerId.empty()) {
    throw std::invalid_argument("runWorker: worker id must not be empty");
  }
  if (wopts.claimDir.empty()) {
    throw std::invalid_argument("runWorker: claim directory must not be empty");
  }
  const JobRunner run = runner ? runner : JobRunner(&runSpec);
  OrchestratorReport report;

  if (!manifest.artifactDir.empty()) {
    std::error_code ec;
    fs::create_directories(manifest.artifactDir, ec);
  }

  const ClaimStore store(wopts.claimDir, wopts.workerId);
  store.init();
  store.seed(manifest);

  // Claim preference: own shard in manifest order, then everyone else's
  // (work stealing keeps a dead worker's slice from stranding the sweep).
  const std::uint64_t shards = std::max<std::uint64_t>(1, manifest.shards);
  std::size_t myShard = wopts.shard;
  if (myShard == WorkerOptions::kAutoShard) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : wopts.workerId) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    myShard = static_cast<std::size_t>(h % shards);
  } else {
    myShard %= shards;
  }
  std::vector<std::string> stems(manifest.jobs.size());
  std::vector<std::size_t> order;
  order.reserve(manifest.jobs.size());
  for (std::size_t i = 0; i < manifest.jobs.size(); ++i) {
    stems[i] = jobFileStem(manifest.jobs[i].spec);
    if (jobShard(manifest.jobs[i].spec, shards) == myShard) order.push_back(i);
  }
  for (std::size_t i = 0; i < manifest.jobs.size(); ++i) {
    if (jobShard(manifest.jobs[i].spec, shards) != myShard) order.push_back(i);
  }

  // Heartbeat thread: the claim this process holds must look alive for as
  // long as the process is, even while a job runs for minutes.
  std::mutex hbMu;
  std::condition_variable hbCv;
  bool hbStop = false;
  store.writeHeartbeat(0);
  std::thread hbThread([&] {
    std::uint64_t seq = 1;
    std::unique_lock<std::mutex> lk(hbMu);
    const auto period = std::chrono::duration<double>(
        std::max(0.05, wopts.heartbeatSeconds));
    while (!hbCv.wait_for(lk, period, [&] { return hbStop; })) {
      store.writeHeartbeat(seq++);
    }
  });

  // Foreign-claim staleness bookkeeping: fingerprint = owner + its heartbeat
  // seq (or the raw claim content while ownerless). Reclaim only when the
  // fingerprint has been frozen for leaseSeconds of OUR steady clock — no
  // cross-host clock comparison anywhere.
  struct Watch {
    std::string fingerprint;
    std::chrono::steady_clock::time_point since;
  };
  std::map<std::string, Watch> watched;

  std::mutex mu;  // guards manifest records, report, watched, progress
  std::size_t started = 0;
  std::size_t doneThisRun = 0;
  std::vector<unsigned> inheritedAttempts(manifest.jobs.size(), 0);
  const auto t0 = std::chrono::steady_clock::now();

  auto heartbeatFingerprint = [&](const ClaimRecord& c) -> std::string {
    if (c.worker.empty()) {
      return "unowned#" + c.id + "#" + std::to_string(c.attempts);
    }
    for (const HeartbeatRecord& h : store.listHeartbeats()) {
      if (h.worker == c.worker) {
        return c.worker + "#" + std::to_string(h.seq);
      }
    }
    return c.worker + "#missing";
  };

  auto claimNext = [&]() -> std::ptrdiff_t {
    for (;;) {
      {
        std::lock_guard<std::mutex> lock(mu);
        if (opts.maxJobs != 0 && started >= opts.maxJobs) return -1;
        const std::vector<std::string> todoList = store.listTodo();
        for (const std::size_t i : order) {
          if (std::find(todoList.begin(), todoList.end(), stems[i]) ==
              todoList.end()) {
            continue;
          }
          if (store.doneExists(stems[i])) {
            // Leftover token from a spurious reclaim that raced a finish;
            // the result exists, never run it again.
            store.discardTodo(stems[i]);
            continue;
          }
          ClaimRecord c;
          if (store.take(stems[i], c)) {
            watched.erase(stems[i]);
            inheritedAttempts[i] = c.attempts;
            ++started;
            return static_cast<std::ptrdiff_t>(i);
          }
        }
        // Nothing takeable: look for claims whose owner stopped heartbeating.
        const auto now = std::chrono::steady_clock::now();
        bool reclaimed = false;
        for (const ClaimRecord& c : store.listClaimed()) {
          if (c.worker == wopts.workerId) continue;  // our own pool threads
          if (store.doneExists(c.file)) {
            store.reclaim(c.file);  // drops the stale claim, done/ wins
            continue;
          }
          const std::string fp = heartbeatFingerprint(c);
          const auto it = watched.find(c.file);
          if (it == watched.end() || it->second.fingerprint != fp) {
            watched[c.file] = Watch{fp, now};
            continue;
          }
          const double frozen =
              std::chrono::duration<double>(now - it->second.since).count();
          if (frozen >= wopts.leaseSeconds) {
            if (store.reclaim(c.file)) {
              reclaimed = true;
              if (opts.progress != nullptr) {
                *opts.progress << "reclaimed " << c.id << " from dead worker \""
                               << c.worker << "\" (heartbeat frozen "
                               << static_cast<long>(frozen) << "s)\n";
              }
            }
            watched.erase(c.file);
          }
        }
        if (reclaimed) continue;
        if (store.doneCount() >= manifest.jobs.size()) return -1;
      }
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::max(0.01, wopts.pollSeconds)));
    }
  };

  auto runOne = [&](std::size_t i, sim::SimContext& ctx) {
    const JobSpec spec = manifest.jobs[i].spec;
    unsigned attempts = inheritedAttempts[i];
    auto beginAttempt = [&]() -> unsigned {
      std::lock_guard<std::mutex> lock(mu);
      ++attempts;
      // Keep the published claim's attempt count current so a reclaim after
      // OUR death hands the next owner the true remaining budget.
      store.publishClaim(ClaimRecord{stems[i], spec.id(), wopts.workerId, attempts});
      return attempts;
    };
    auto onRetry = [&](unsigned attempt, const RunResult& failed) {
      std::lock_guard<std::mutex> lock(mu);
      ++report.retried;
      if (opts.progress != nullptr) {
        *opts.progress << "retry " << spec.id() << " (attempt " << (attempt + 1)
                       << "/" << std::max(1u, opts.maxAttempts)
                       << "): " << failed.diagnostic << "\n";
      }
    };
    RunResult r =
        detail::runJobWithRetries(spec, opts, run, ctx, beginAttempt, onRetry);

    JobRecord done;
    done.spec = spec;
    done.attempts = attempts;
    detail::recordFinishedRun(done, r, manifest.artifactDir, ".tmp-" + wopts.workerId);

    std::lock_guard<std::mutex> lock(mu);
    manifest.jobs[i] = done;
    store.markDone(doneRecordOf(done, wopts.workerId));
    ++report.ran;
    ++doneThisRun;
    if (opts.progress != nullptr) {
      const std::size_t doneGlobal = store.doneCount();
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      const std::size_t left =
          manifest.jobs.size() > doneGlobal ? manifest.jobs.size() - doneGlobal : 0;
      char etaStr[32];
      if (doneThisRun > 0 && elapsed > 0.0) {
        std::snprintf(etaStr, sizeof(etaStr), "%.0fs",
                      elapsed / static_cast<double>(doneThisRun) *
                          static_cast<double>(left));
      } else {
        std::snprintf(etaStr, sizeof(etaStr), "--");
      }
      char line[256];
      std::snprintf(line, sizeof(line), "[%zu/%zu] %s: %s (%.1fs) eta %s\n",
                    doneGlobal, manifest.jobs.size(), spec.id().c_str(),
                    toString(done.state), done.wallSeconds, etaStr);
      *opts.progress << line;
    }
  };

  detail::runWorkerPool(opts.hostThreads, manifest.jobs.size(), claimNext, runOne);

  {
    std::lock_guard<std::mutex> lock(hbMu);
    hbStop = true;
  }
  hbCv.notify_all();
  hbThread.join();

  // Fold the whole spool back so the caller's manifest reflects every
  // worker's results, not just ours.
  foldClaimState(manifest, wopts.claimDir);
  for (const JobRecord& j : manifest.jobs) {
    if (j.state == JobState::Ok) ++report.ok;
    if (j.state == JobState::Failed || j.state == JobState::Hang ||
        j.state == JobState::Timeout) {
      ++report.failed;
    }
  }
  report.skipped = manifest.jobs.size() - report.ran;
  return report;
}

}  // namespace lktm::cfg
