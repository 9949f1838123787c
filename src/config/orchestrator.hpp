// Manifest-driven experiment orchestrator: the layer between the raw
// worker-pool sweep (config/sweep.hpp) and the figure suite. A sweep is
// described by a persistent manifest ("lktm.manifest.v2", written through the
// same JSON layer as the stats artifacts) recording every job's spec, seed,
// state, attempt count and artifact path. runManifest() executes the pending
// jobs and writes one lktm.stats.v1 artifact per job. While it runs, job
// state lives only in the manifest's claim spool ("<manifest>.claims"): it
// is the exclusive-owner policy of the loop `lktm_sweep work` shares
// (config/distrib.hpp), so each finished job costs one done record, and the
// manifest file itself is written once, at the end. Bookkeeping therefore
// costs O(1) per job, and a killed sweep still resumes exactly where it
// stopped, skipping completed jobs.
//
// Determinism contract (regression-tested): an interrupted-and-resumed sweep
// produces a merged artifact bit-identical to an uninterrupted one, at any
// hostThreads. Per-job results depend only on the job spec; host-timing
// fields (wall_seconds) are zeroed in the merged document because they are
// the one thing a host cannot reproduce.
//
// Failure taxonomy: a job ends Ok/Failed/Hang/Timeout (RunStatus). Wall-clock
// timeouts and TransientJobError throws are *transient* — the orchestrator
// retries them in place with exponential backoff up to maxAttempts. Cycle-
// budget timeouts, hangs, violations and crashes are deterministic: retrying
// would reproduce them, so they fail fast and stay recorded.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/sweep.hpp"

namespace lktm::cfg {

/// Current manifest schema. v2 adds the top-level "shards" count backing the
/// distributed worker-pull protocol (config/distrib.hpp); v1 documents load
/// transparently with shards = 1.
inline constexpr const char* kManifestSchema = "lktm.manifest.v2";
inline constexpr const char* kManifestSchemaV1 = "lktm.manifest.v1";

/// Throw this from a job runner to mark the failure as transient (worth a
/// bounded retry): host resource hiccups, injected flakiness in tests, …
class TransientJobError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Manifest-side job lifecycle. Pending/Running are orchestration states; the
/// terminal states mirror RunStatus (with Failed also covering invariant
/// violations). A Running entry found on load is a stale marker from a killed
/// sweep; seeding the claim spool turns it back into a todo/ token.
enum class JobState : std::uint8_t { Pending, Running, Ok, Failed, Hang, Timeout };

const char* toString(JobState s);
/// Inverse of toString; returns false on an unknown name.
bool jobStateFromString(const std::string& name, JobState& out);
/// Terminal state for a finished run.
JobState jobStateOf(const RunResult& r);

/// Identity of one simulation cell. `machine` is stored by preset name
/// (machineByName) so the manifest stays a plain-text document.
struct JobSpec {
  std::string system;
  std::string workload;
  std::string machine = "typical";
  unsigned threads = 0;
  /// Workload-generation seed; the run's RNG-stream seed is derived from it
  /// and the other coordinates via jobRunSeed().
  std::uint64_t seed = kDefaultSweepSeed;

  /// Stable human-readable identity, unique within a manifest:
  /// "system/workload/machine@threads#seed".
  std::string id() const;
  bool operator==(const JobSpec&) const = default;
};

/// Filesystem-safe name for everything keyed by one job: its per-job artifact
/// is "<stem>.json" and its claim/done spool entries are the bare stem. The
/// sanitized id is shared so the artifact a worker wrote and the claim it
/// held always agree on the job they describe.
std::string jobFileStem(const JobSpec& spec);

struct JobRecord {
  JobSpec spec;
  JobState state = JobState::Pending;
  unsigned attempts = 0;        ///< runs consumed (across resumes)
  std::string diagnostic;       ///< failure detail, "" while pending/ok
  std::string artifact;         ///< per-job lktm.stats.v1 path ("" until Ok)
  double wallSeconds = 0.0;     ///< host seconds of the last attempt
  std::uint64_t cycles = 0;     ///< simulated cycles of the last attempt
};

struct SweepManifest {
  /// Directory per-job artifacts are written into (created on demand).
  std::string artifactDir;
  /// Shard count for distributed fan-out (>= 1). Purely advisory for the
  /// single-process runner; `lktm_sweep work` uses it with jobShard() so
  /// every worker computes the same job -> shard map with no coordination.
  std::uint64_t shards = 1;
  std::vector<JobRecord> jobs;

  JobRecord* find(const std::string& id);
  std::size_t countIn(JobState s) const;
  /// True when every job reached a terminal state.
  bool complete() const;
  /// True when every job is Ok.
  bool allOk() const;

  /// Parse a manifest document. Throws std::runtime_error on malformed input
  /// or duplicate job ids.
  static SweepManifest fromJson(const std::string& text);
  static SweepManifest load(const std::string& path);
  std::string toJson() const;
  /// Atomic save: write to `path + ".tmp"` then rename, so a kill mid-write
  /// can never truncate the manifest a resume depends on.
  bool save(const std::string& path) const;
};

struct OrchestratorOptions {
  unsigned hostThreads = 0;   ///< 0 = hardware concurrency
  /// Total attempts a transient job may consume (>=1). Deterministic
  /// failures never retry regardless.
  unsigned maxAttempts = 2;
  /// Host-sleep before retry k is backoff * 2^(k-1) seconds (0 = none).
  double retryBackoffSeconds = 0.0;
  /// Per-job host wall-clock budget (0 = none). Expiry => transient Timeout.
  double jobWallBudgetSeconds = 0.0;
  /// Per-job simulated-cycle ceiling override (0 = the machine's maxCycles).
  /// Expiry => deterministic Timeout.
  Cycle jobCycleBudget = 0;
  /// Stop claiming new jobs after this many have been started in this
  /// invocation (0 = unlimited). The rest stay Pending in the manifest —
  /// this is how the kill-and-resume tests interrupt a sweep exactly.
  std::size_t maxJobs = 0;
  /// Also re-run jobs already recorded as Failed/Hang/Timeout (runManifest
  /// only; see runWorker).
  bool rerunFailed = false;
  /// Live progress lines ("[done/total] id: state ... eta Ns"), one per
  /// completed job. Null = silent.
  std::ostream* progress = nullptr;
};

/// How a job executes: default is runSpec() below; tests substitute scripted
/// runners (crashing, hanging, flaky) to exercise the orchestrator itself.
using JobRunner =
    std::function<RunResult(const JobSpec&, const OrchestratorOptions&, sim::SimContext&)>;

/// The default runner: machineByName/systemByName/makeJobWorkload, RNG seed
/// from jobRunSeed(), budgets from opts.
RunResult runSpec(const JobSpec& spec, const OrchestratorOptions& opts,
                  sim::SimContext& ctx);

/// Workload factory shared with lktm_sim: STAMP analogs by name, plus the
/// micro workloads "counter" / "bank" / "linkedlist".
std::unique_ptr<wl::Workload> makeJobWorkload(const std::string& name,
                                              std::uint64_t seed);

/// Transient <=> worth retrying: wall-clock Timeout or TransientJobError.
bool isTransientFailure(const RunResult& r);

struct OrchestratorReport {
  std::size_t ran = 0;      ///< jobs executed in this invocation
  std::size_t skipped = 0;  ///< jobs already terminal (resume fast-path)
  std::size_t retried = 0;  ///< extra attempts consumed by transient jobs
  std::size_t ok = 0;       ///< jobs Ok after this invocation (whole manifest)
  std::size_t failed = 0;   ///< jobs Failed/Hang/Timeout (whole manifest)
  /// Done records and final manifest saves that could not be written. Not 0
  /// means a resume may redo work, or that this invocation's results are
  /// not on disk at all.
  std::size_t writeFailures = 0;
};

/// Execute a manifest as the exclusive owner of its claim spool
/// (claimDirFor(manifestPath)): return every claim a killed invocation held
/// to todo/, seed the spool (a stale Running job or an Ok job with a missing
/// artifact gets a todo/ token; so does a failed/hang/timeout job under
/// opts.rerunFailed), then run the shared claim -> run -> finish loop
/// (detail::drainClaimSpool), retrying transient failures with backoff. The
/// manifest is saved once, at the end, after which the spool is removed; a
/// failed save keeps it, as the only copy of the results. When
/// `manifestPath` is empty, or its spool cannot be created, the loop runs on
/// a private temporary spool that is removed afterwards (the latter also
/// counts each job run as a write failure). When `results` is non-null it
/// receives one RunResult per job in manifest order — loaded from the
/// artifact for skipped-Ok jobs, so a resumed sweep still hands the figure
/// code the complete result set.
OrchestratorReport runManifest(SweepManifest& manifest, const std::string& manifestPath,
                               const OrchestratorOptions& opts = {},
                               const JobRunner& runner = {},
                               std::vector<RunResult>* results = nullptr);

/// Merge the per-job artifacts of every Ok job (manifest order) into one
/// multi-run lktm.stats.v1 document. Each run entry is re-emitted through the
/// deterministic JSON re-writer with "wall_seconds" zeroed, so the merged
/// bytes depend only on the job specs — not on interruptions, resumes or
/// hostThreads. Runs are read, parsed and re-emitted on `hostThreads` threads
/// (0 = as many as runWorkerPool uses) a bounded window of jobs ahead of the
/// writer, which streams them to `outPath + ".tmp"` and renames that into
/// place. Returns false (with a message on stderr) when an artifact is missing
/// or unreadable; no ".tmp" file is left and an existing `outPath` is not
/// touched.
bool writeMergedArtifact(const SweepManifest& manifest, const std::string& outPath,
                         unsigned hostThreads = 0);

/// Cross-product helper: one Pending record per (workload x system x threads)
/// cell on `machine`, in the same order sweepSystems() runs them.
SweepManifest makeManifest(const std::string& artifactDir,
                           const std::string& machine,
                           const std::vector<std::string>& systems,
                           const std::vector<std::string>& workloads,
                           const std::vector<unsigned>& threads,
                           std::uint64_t seed = kDefaultSweepSeed);

namespace detail {

/// The retry contract of the claim loop (detail::drainClaimSpool): run until
/// Ok, a deterministic failure, or the attempt count reaches
/// opts.maxAttempts; transient failures back off exponentially between
/// attempts. Every attempt has every escape hatch closed: TransientJobError,
/// std::exception and non-standard throws come back as a Failed result keyed
/// by the spec (transient throws keep their retryable classification via the
/// diagnostic prefix isTransientFailure() keys on). `beginAttempt` hands out
/// the (cumulative, possibly claim-inherited) 1-based attempt number;
/// `onRetry(attempt, r)` fires before each extra attempt (may be null).
RunResult runJobWithRetries(
    const JobSpec& spec, const OrchestratorOptions& opts, const JobRunner& run,
    sim::SimContext& ctx, const std::function<unsigned()>& beginAttempt,
    const std::function<void(unsigned, const RunResult&)>& onRetry);

}  // namespace detail

}  // namespace lktm::cfg
