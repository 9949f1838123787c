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
#include <stop_token>
#include <thread>

#include "config/artifact.hpp"
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

/// Write all of `content` to `fd` and close it; false on a short write.
bool writeAndClose(int fd, const std::string& content) {
  std::size_t off = 0;
  while (off < content.size()) {
    const ssize_t n = ::write(fd, content.data() + off, content.size() - off);
    if (n <= 0) break;
    off += static_cast<std::size_t>(n);
  }
  return ::close(fd) == 0 && off == content.size();
}

/// Exclusive create (seeding only): O_CREAT|O_EXCL so exactly one of any
/// number of racing seeders materializes the entry; the rest see EEXIST and
/// move on. All steady-state transitions use rename, not this.
bool exclusiveCreate(const std::string& path, const std::string& content) {
  const int fd = ::open(path.c_str(), O_CREAT | O_EXCL | O_WRONLY, 0644);
  if (fd < 0) return false;
  writeAndClose(fd, content);
  return true;
}

/// Rewrite an existing file in place; false when it does not exist. Creating
/// a file is the spool operation that costs real time on a busy disk, so a
/// job's spool file is created once, as its todo/ token, and after that only
/// rewritten and renamed. Readers of claimed/ parse tolerantly, so a torn
/// read there is harmless; done/ only ever receives complete files by rename.
bool overwrite(const std::string& path, const std::string& content) {
  // Set the new length first, never zero: truncating to zero makes ext4
  // force block allocation at close (auto_da_alloc), as costly as a create.
  const int fd = ::open(path.c_str(), O_WRONLY);
  if (fd < 0) return false;
  if (::ftruncate(fd, static_cast<off_t>(content.size())) != 0) {
    ::close(fd);
    return false;
  }
  return writeAndClose(fd, content);
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

std::size_t ClaimStore::seed(const SweepManifest& manifest, bool rerunFailed) const {
  // Which recorded outcomes are re-run: an Ok whose artifact (the result
  // itself) is gone, and, on request, the terminal failures.
  auto rerun = [&](JobState state, const std::string& artifact) {
    if (state == JobState::Ok) return artifact.empty() || !fs::exists(fs::path(artifact));
    return rerunFailed && (state == JobState::Failed || state == JobState::Hang ||
                           state == JobState::Timeout);
  };
  std::size_t created = 0;
  for (const JobRecord& j : manifest.jobs) {
    const std::string f = jobFileStem(j.spec);
    DoneRecord d;
    if (readDone(f, d)) {
      // A done record carries "id" and "attempts", so it is a valid token.
      if (rerun(d.state, d.artifact)) {
        std::error_code ec;
        fs::rename(fs::path(root_) / "done" / f, fs::path(root_) / "todo" / f, ec);
        created += ec ? 0 : 1;
      }
      continue;
    }
    if (doneExists(f) || todoExists(f) || fs::exists(fs::path(root_) / "claimed" / f)) {
      continue;
    }
    if (j.state == JobState::Pending || j.state == JobState::Running ||
        rerun(j.state, j.artifact)) {
      created += exclusiveCreate((fs::path(root_) / "todo" / f).string(),
                                 claimJson(j.spec.id(), "", j.attempts))
                     ? 1
                     : 0;
    } else {
      DoneRecord rec = doneRecordOf(j, workerId_);
      if (j.state != JobState::Ok) rec.artifact.clear();
      created += exclusiveCreate((fs::path(root_) / "done" / f).string(), doneJson(rec))
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
  const std::string path = (fs::path(root_) / "claimed" / c.file).string();
  const std::string content = claimJson(c.id, c.worker, c.attempts);
  if (!overwrite(path, content)) atomicWrite(path, content, workerId_);
}

bool ClaimStore::markDone(const DoneRecord& d) const {
  const std::string claim = (fs::path(root_) / "claimed" / d.file).string();
  const std::string done = (fs::path(root_) / "done" / d.file).string();
  const std::string content = doneJson(d);
  std::error_code ec;
  // The claim file itself becomes the done record: rewritten, then renamed.
  if (overwrite(claim, content)) {
    fs::rename(claim, done, ec);
    if (!ec) return true;
  }
  if (!atomicWrite(done, content, workerId_)) return false;
  fs::remove(claim, ec);
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

void ClaimStore::removeHeartbeat() const {
  std::error_code ec;
  fs::remove(fs::path(root_) / "hb" / workerId_, ec);
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
    if (store.todoExists(f)) {
      j.state = JobState::Pending;  // to be (re)run: no result to point at
      j.artifact.clear();
      j.diagnostic.clear();
    }
  }
  return folded;
}

namespace {

/// Fill the terminal fields of `j` (state, artifact, diagnostic, wall time,
/// cycles) from its finished run `r`. An Ok run's artifact is written to
/// "<artifactDir>/<stem>.json" atomically (via `path + tmpSuffix`, then a
/// rename) when `artifactDir` is set; a failed write turns the job Failed.
void recordFinishedRun(JobRecord& j, RunResult& r, const std::string& artifactDir,
                       const std::string& tmpSuffix) {
  j.state = jobStateOf(r);
  j.artifact.clear();
  if (j.state == JobState::Ok && !artifactDir.empty()) {
    const std::string path =
        (fs::path(artifactDir) / (jobFileStem(j.spec) + ".json")).string();
    if (writeStatsJsonFileAtomic(path, r, tmpSuffix)) {
      j.artifact = path;
    } else {
      j.state = JobState::Failed;
      r.status = RunStatus::Failed;
      r.diagnostic = "cannot write artifact " + path;
    }
  }
  j.wallSeconds = r.wallSeconds;
  j.cycles = r.cycles;
  j.diagnostic = j.state == JobState::Ok ? "" : r.diagnostic;
  if (j.state == JobState::Failed && j.diagnostic.empty() && !r.violations.empty()) {
    j.diagnostic = r.violations.front();
  }
}

/// A stand-in result for job `j`, which this invocation did not run:
/// reloaded from its artifact when Ok, otherwise a Failed/Hang/Timeout
/// result that can never pass for a real run.
RunResult recordedResult(const JobRecord& j) {
  RunResult r;
  if (j.state == JobState::Ok) {
    try {
      return loadStatsArtifact(j.artifact);
    } catch (const std::exception& e) {
      r.diagnostic = std::string("exception: ") + e.what();
    }
  }
  r.system = j.spec.system;
  r.workload = j.spec.workload;
  r.machine = j.spec.machine;
  r.threads = j.spec.threads;
  r.seed = j.spec.seed;
  r.status = j.state == JobState::Hang      ? RunStatus::Hang
             : j.state == JobState::Timeout ? RunStatus::Timeout
                                            : RunStatus::Failed;
  if (j.state == JobState::Pending || j.state == JobState::Running) {
    r.diagnostic = "job not run (interrupted invocation)";
  }
  if (r.diagnostic.empty()) r.diagnostic = j.diagnostic;
  return r;
}

bool isTerminal(JobState s) { return s != JobState::Pending && s != JobState::Running; }

}  // namespace

namespace detail {

OrchestratorReport drainClaimSpool(SweepManifest& manifest, SpoolOwner owner,
                                   const WorkerOptions& wopts,
                                   const OrchestratorOptions& opts,
                                   const JobRunner& runner,
                                   std::vector<RunResult>* results) {
  const bool shared = owner == SpoolOwner::Shared;
  const JobRunner run = runner ? runner : JobRunner(&runSpec);
  OrchestratorReport report;

  if (!manifest.artifactDir.empty()) {
    std::error_code ec;
    fs::create_directories(manifest.artifactDir, ec);
  }

  const ClaimStore store(wopts.claimDir, wopts.workerId);
  store.init();
  // A claim this owner finds at start was held by a process that is gone:
  // any claim when the spool is exclusively ours, our own id's otherwise.
  for (const ClaimRecord& c : store.listClaimed()) {
    if (!shared || c.worker == wopts.workerId) store.reclaim(c.file);
  }
  store.seed(manifest, !shared && opts.rerunFailed);
  foldClaimState(manifest, store.root());

  const std::size_t total = manifest.jobs.size();
  for (const JobRecord& j : manifest.jobs) report.skipped += isTerminal(j.state) ? 1 : 0;
  if (results != nullptr) {
    results->clear();
    results->reserve(total);
    for (const JobRecord& j : manifest.jobs) results->push_back(recordedResult(j));
  }

  // Claim preference: manifest order; a shared worker takes its own shard
  // first and then steals (so a dead worker's slice is never stranded).
  const std::uint64_t shards = shared ? std::max<std::uint64_t>(1, manifest.shards) : 1;
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
  std::vector<std::string> stems(total);
  std::vector<std::size_t> order(total);
  for (std::size_t i = 0; i < total; ++i) {
    stems[i] = jobFileStem(manifest.jobs[i].spec);
    order[i] = i;
  }
  std::stable_partition(order.begin(), order.end(), [&](std::size_t i) {
    return jobShard(manifest.jobs[i].spec, shards) == myShard;
  });

  // Heartbeat thread (shared spools only): the claims this process holds
  // must look alive for as long as it is, even while a job runs for minutes.
  // Leaving this scope, by return or by exception, stops and joins it.
  std::jthread heartbeat;
  if (shared) {
    store.writeHeartbeat(0);
    heartbeat = std::jthread([&](const std::stop_token& stop) {
      std::mutex mu;
      std::condition_variable_any cv;
      std::unique_lock<std::mutex> lock(mu);
      const auto period =
          std::chrono::duration<double>(std::max(0.05, wopts.heartbeatSeconds));
      for (std::uint64_t seq = 1;; ++seq) {
        cv.wait_for(lock, stop, period, [] { return false; });
        if (stop.stop_requested()) return;
        store.writeHeartbeat(seq);
      }
    });
  }

  // Foreign-claim staleness bookkeeping: fingerprint = owner + its heartbeat
  // seq (or the raw claim content while ownerless). Reclaim only when the
  // fingerprint has been frozen for leaseSeconds of OUR steady clock — no
  // cross-host clock comparison anywhere.
  struct Watch {
    std::string fingerprint;
    std::chrono::steady_clock::time_point since;
  };
  std::map<std::string, Watch> watched;

  std::mutex mu;  // guards manifest records, report, results, cursor, watched, progress
  std::size_t cursor = 0;
  std::size_t started = 0;
  const std::size_t runnable = opts.maxJobs != 0
                                   ? std::min(total - report.skipped, opts.maxJobs)
                                   : total - report.skipped;
  const unsigned maxAttempts = std::max(1u, opts.maxAttempts);
  const auto t0 = std::chrono::steady_clock::now();

  // One pass over the foreign claims (caller holds `mu`). Returns whether a
  // claim went back to todo/; `waiting` says whether another live worker
  // still holds one.
  auto reclaimScan = [&](bool& waiting) {
    std::map<std::string, std::uint64_t> beats;  // worker -> heartbeat seq
    for (const HeartbeatRecord& h : store.listHeartbeats()) beats[h.worker] = h.seq;
    const auto now = std::chrono::steady_clock::now();
    bool reclaimed = false;
    waiting = false;
    for (const ClaimRecord& c : store.listClaimed()) {
      if (c.worker == wopts.workerId) continue;  // our own pool threads
      if (store.doneExists(c.file)) {
        store.reclaim(c.file);  // drops the stale claim, done/ wins
        continue;
      }
      waiting = true;
      const auto beat = beats.find(c.worker);
      const std::string fp =
          c.worker.empty() ? "unowned#" + c.id + "#" + std::to_string(c.attempts)
          : beat == beats.end() ? c.worker + "#missing"
                                : c.worker + "#" + std::to_string(beat->second);
      const auto it = watched.find(c.file);
      if (it == watched.end() || it->second.fingerprint != fp) {
        watched[c.file] = Watch{fp, now};
        continue;
      }
      const double frozen = std::chrono::duration<double>(now - it->second.since).count();
      if (frozen < wopts.leaseSeconds) continue;
      if (store.reclaim(c.file)) {
        reclaimed = true;
        if (opts.progress != nullptr) {
          *opts.progress << "reclaimed " << c.id << " from dead worker \"" << c.worker
                         << "\" (heartbeat frozen " << static_cast<long>(frozen) << "s)\n";
        }
      }
      watched.erase(c.file);
    }
    return reclaimed;
  };

  auto claimNext = [&]() -> std::ptrdiff_t {
    std::unique_lock<std::mutex> lock(mu);
    for (;;) {
      if (opts.maxJobs != 0 && started >= opts.maxJobs) return -1;
      while (cursor < order.size()) {
        const std::size_t i = order[cursor++];
        ClaimRecord c;
        if (!store.take(stems[i], c)) continue;  // not in todo/: done, or someone's
        if (store.doneExists(stems[i])) {
          // A token a spurious reclaim returned while its job finished: the
          // result exists, never run it again.
          store.reclaim(stems[i]);
          continue;
        }
        watched.erase(stems[i]);
        manifest.jobs[i].attempts = c.attempts;  // inherited budget
        ++started;
        return static_cast<std::ptrdiff_t>(i);
      }
      if (!shared) return -1;  // nothing else can put a job back into todo/
      // Restart the cursor when a claim came back, or when another worker
      // returned or seeded a token behind it.
      bool waiting = false;
      if (reclaimScan(waiting) || !store.listTodo().empty()) {
        cursor = 0;
        continue;
      }
      if (!waiting) return -1;  // every job is done or held by our threads
      lock.unlock();
      std::this_thread::sleep_for(
          std::chrono::duration<double>(std::max(0.01, wopts.pollSeconds)));
      lock.lock();
    }
  };

  auto runOne = [&](std::size_t i, sim::SimContext& ctx) {
    JobRecord done;
    {
      std::lock_guard<std::mutex> lock(mu);
      done = manifest.jobs[i];
    }
    const JobSpec& spec = done.spec;
    auto beginAttempt = [&]() -> unsigned {
      // Keep the published claim's attempt count current so a reclaim after
      // our death hands the next owner the true remaining budget.
      ++done.attempts;
      store.publishClaim(ClaimRecord{stems[i], spec.id(), wopts.workerId, done.attempts});
      return done.attempts;
    };
    auto onRetry = [&](unsigned attempt, const RunResult& failed) {
      std::lock_guard<std::mutex> lock(mu);
      ++report.retried;
      if (opts.progress != nullptr) {
        *opts.progress << "retry " << spec.id() << " (attempt " << (attempt + 1) << "/"
                       << maxAttempts << "): " << failed.diagnostic << "\n";
      }
    };
    RunResult r = detail::runJobWithRetries(spec, opts, run, ctx, beginAttempt, onRetry);

    // Both writes happen outside the lock: the artifact is renamed into place
    // first, so a done record never names a missing or torn file.
    recordFinishedRun(done, r, manifest.artifactDir, ".tmp-" + wopts.workerId);
    const bool recorded = store.markDone(doneRecordOf(done, wopts.workerId));

    std::lock_guard<std::mutex> lock(mu);
    if (!recorded) {
      ++report.writeFailures;
      std::cerr << "error: cannot write the done record of " << spec.id() << " under "
                << store.root() << "\n";
    }
    manifest.jobs[i] = done;
    if (results != nullptr) (*results)[i] = std::move(r);
    ++report.ran;
    if (opts.progress != nullptr) {
      // Counted in memory: jobs other workers finish meanwhile are not seen.
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      const std::size_t left = runnable > report.ran ? runnable - report.ran : 0;
      // Zero measured wall time means there is no rate to extrapolate from —
      // print "--" rather than a bogus "eta 0s".
      char etaStr[32];
      if (elapsed > 0.0) {
        std::snprintf(etaStr, sizeof(etaStr), "%.0fs",
                      elapsed / static_cast<double>(report.ran) * static_cast<double>(left));
      } else {
        std::snprintf(etaStr, sizeof(etaStr), "--");
      }
      char line[256];
      std::snprintf(line, sizeof(line), "[%zu/%zu] %s: %s (%.1fs) eta %s\n",
                    report.skipped + report.ran, total, spec.id().c_str(),
                    toString(done.state), done.wallSeconds, etaStr);
      *opts.progress << line;
    }
  };

  detail::runWorkerPool(opts.hostThreads, total - report.skipped, claimNext, runOne);
  // A clean exit takes its heartbeat along, so a spool that finished 'work'
  // processes leave behind is no longer refused by 'run'. An exception skips
  // this: the file stays, and the lease reclaims the claims it vouched for.
  if (heartbeat.joinable()) {
    heartbeat.request_stop();
    heartbeat.join();
    store.removeHeartbeat();
  }

  // Fold the whole spool back so the manifest reflects every worker's
  // results, not just ours.
  foldClaimState(manifest, store.root());
  for (const JobRecord& j : manifest.jobs) {
    if (j.state == JobState::Ok) ++report.ok;
    if (isTerminal(j.state) && j.state != JobState::Ok) ++report.failed;
  }
  return report;
}

}  // namespace detail

OrchestratorReport runWorker(SweepManifest& manifest, const WorkerOptions& wopts,
                             const OrchestratorOptions& opts, const JobRunner& runner) {
  if (wopts.workerId.empty()) {
    throw std::invalid_argument("runWorker: worker id must not be empty");
  }
  if (wopts.claimDir.empty()) {
    throw std::invalid_argument("runWorker: claim directory must not be empty");
  }
  return detail::drainClaimSpool(manifest, detail::SpoolOwner::Shared, wopts, opts, runner);
}

}  // namespace lktm::cfg
