// Private L1 cache controller with best-effort HTM support and the three
// LockillerTM mechanisms:
//  * read/write-set tracking via per-line tx bits; requester-wins or
//    recovery-mechanism conflict resolution on external Inv/Fwd requests
//    (Fig 4's enhanced request-handling flow);
//  * held/rejected requests parked in the MSHR with self-abort, fixed-pause
//    retry, or wait-for-wakeup resumption (Fig 2 step 7/8);
//  * HTMLock (TL/STL) lock-transaction mode: tx bits still recorded, local
//    overflow filters mirror the LLC signatures, evictions of transactional
//    lines spill into the LLC signatures instead of aborting;
//  * switchingMode: on capacity overflow an HTM transaction blocks external
//    requests (applyingHLA, Fig 6), asks the LLC for STL admission and either
//    continues irrevocably or aborts as plain best-effort HTM would.
#pragma once

#include <deque>
#include <functional>

#include "core/conflict_manager.hpp"
#include "core/wakeup_table.hpp"
#include "coherence/messages.hpp"
#include "coherence/params.hpp"
#include "mem/cache_array.hpp"
#include "mem/mshr.hpp"
#include "noc/network.hpp"
#include "sim/context.hpp"
#include "sim/engine.hpp"
#include "sim/flat_table.hpp"
#include "sim/small_fn.hpp"
#include "stats/tx_stats.hpp"

namespace lktm::coh {

class L1Controller final : public MsgSink {
 public:
  /// CPU-port completion callables. Value completions get a wider inline
  /// buffer because store() adapts a whole void() action into one, and that
  /// wrapper must still avoid the heap on the hot path.
  using DoneFn = sim::Action;
  using DoneValFn = sim::SmallFn<void(std::uint64_t), 64>;
  using DoneBoolFn = sim::SmallFn<void(bool)>;

  /// Hooks into the owning CPU model.
  struct Callbacks {
    /// Current priority value per the configured PriorityKind.
    std::function<std::uint64_t()> priorityValue = [] { return std::uint64_t{0}; };
    /// The local transaction was killed (conflict loss, overflow, fault...).
    std::function<void(AbortCause)> onAbort = [](AbortCause) {};
    /// switchingMode succeeded; the CPU is now in STL mode.
    std::function<void()> onSwitchedToStl = [] {};
  };

  L1Controller(sim::SimContext& ctx, noc::Network& net, CoreId id,
               mem::CacheGeometry geometry, ProtocolParams params,
               core::TmPolicy policy, unsigned numCores);

  void connectDirectory(MsgSink* dir) { dir_ = dir; }
  /// Peer L1s, indexed by core id, for direct wakeup messages.
  void connectPeers(std::vector<MsgSink*> peers) { peers_ = std::move(peers); }
  void setCallbacks(Callbacks cb) { cb_ = std::move(cb); }
  /// Address of the fallback-lock word, for the `mutex` abort classification.
  void setLockLine(LineAddr line) { lockLine_ = line; }

  // ---- CPU port: one outstanding operation at a time ----
  void load(Addr addr, DoneValFn done);
  void store(Addr addr, std::uint64_t value, DoneFn done);
  /// Atomic compare-and-swap; completes with the *old* word value.
  void cas(Addr addr, std::uint64_t expect, std::uint64_t desired,
           DoneValFn done);

  // ---- HTM port ----
  void txBegin();
  void txCommit(DoneFn done);
  /// Abort the running HTM transaction (explicit xabort / fault / internal).
  void txAbort(AbortCause cause);
  /// Enter TL mode (caller holds the software fallback lock). Completion
  /// waits for the LLC's HTMLock authorization.
  void hlBegin(DoneFn done);
  void hlEnd(DoneFn done);
  /// switchingMode entry that is not driven by an overflowing memory request
  /// (e.g. the switch-on-fault extension): apply for STL; `done(granted)`.
  /// On denial the caller decides (typically txAbort(Fault)).
  void trySwitchToLockMode(DoneBoolFn done);

  TxMode mode() const { return mode_; }
  bool busy() const { return op_.active; }

  // ---- network port ----
  void onMessage(const Msg& msg) override;

  // ---- introspection ----
  const mem::CacheArray& cache() const { return cache_; }
  mem::CacheArray& cacheMut() { return cache_; }
  stats::TxStats& txCounters() { return txc_; }
  std::uint64_t hits() const { return hits_.value(); }
  std::uint64_t misses() const { return misses_.value(); }
  std::size_t writebackBufferSize() const { return wb_.size(); }
  std::string diagnostic() const;

  // ---- model-checker exports ----
  const mem::MshrFile& mshrFile() const { return mshr_; }
  mem::MshrFile& mshrFileMut() { return mshr_; }
  core::WakeupTable& wakeupTableMut() { return wakeups_; }
  const core::WakeupTable& wakeupTable() const { return wakeups_; }
  /// applyingHLA (Fig 6): external requests are parked while the STL switch
  /// is pending at the LLC.
  bool applyingHla() const { return switchPending_; }
  /// Fold every behaviour-relevant field of this controller — cache array,
  /// CPU op latch, MSHR entries (minus retry counters), writeback buffer,
  /// wakeup table, overflow shadow sets, mode/switch flags, and the parked
  /// external requests — into a model-checker fingerprint.
  void hashState(sim::StateHasher& h) const;

 private:
  enum class OpKind : std::uint8_t { Load, Store, Cas };

  struct CpuOp {
    bool active = false;
    OpKind kind = OpKind::Load;
    Addr addr = 0;
    std::uint64_t value = 0;   // store value / CAS desired
    std::uint64_t expect = 0;  // CAS expected
    DoneValFn done;
  };

  sim::SimContext& ctx_;
  sim::Engine& engine_;
  noc::Network& net_;
  CoreId id_;
  mem::CacheArray cache_;
  ProtocolParams params_;
  core::TmPolicy policy_;
  core::ConflictManager cm_;
  unsigned numCores_;
  MsgSink* dir_ = nullptr;
  std::vector<MsgSink*> peers_;
  Callbacks cb_;
  LineAddr lockLine_ = static_cast<LineAddr>(-1);

  CpuOp op_;
  mem::MshrFile mshr_;
  sim::FlatLineTable<mem::LineData> wb_;  ///< dirty evictions awaiting PutAck
  core::WakeupTable wakeups_;
  sim::FlatLineSet ofRd_, ofWr_;  ///< exact local view of the LLC signatures
  /// Ways whose tx bits the running transaction set, appended when a way's
  /// first tx bit is set. A way may repeat or have since been evicted or
  /// reused; forEachTxWay filters. Commit and abort walk only these ways.
  std::vector<std::uint32_t> footprint_;

  TxMode mode_ = TxMode::None;
  bool triedSwitch_ = false;
  bool switchPending_ = false;            ///< applyingHLA: external reqs blocked
  std::deque<Msg> blockedExternal_;
  DoneFn hlBeginDone_;
  DoneBoolFn switchDone_;  ///< non-overflow switch requests

  stats::TxStats txc_;
  stats::Counter& hits_;
  stats::Counter& misses_;

  bool inAnyTx() const { return mode_ != TxMode::None; }

  // messaging
  void sendToDir(Msg msg);
  void sendWakeup(CoreId core, LineAddr line);
  core::ReqSide myReqSide(bool wantsExclusive) const;
  core::LocalSide myLocalSide(LineAddr line) const;

  // CPU op pipeline
  void startOp(CpuOp op);
  void lookupAndHandle();
  void completeOnLine(mem::CacheEntry& e);
  bool reserveVictim(LineAddr line);
  void evictClean(mem::CacheEntry& v);
  void evictForSpace(mem::CacheEntry& v);
  void evictTxLine(mem::CacheEntry& v);
  void issueRequest(LineAddr line, bool wantsExclusive);
  void reissue(mem::MshrEntry& m);

  // responses
  void onData(const Msg& msg, bool exclusive);
  void onUpgradeAck(const Msg& msg);
  void onRejectResp(const Msg& msg);
  void scheduleHeldRetry(LineAddr line, Cycle delay);
  void onWakeup(const Msg& msg);
  void onHlaGrant();
  void onHlaDeny();

  // external requests
  void handleInv(const Msg& msg);
  void handleFwd(const Msg& msg, bool isGetX);
  void complyFwd(mem::CacheEntry& e, bool isGetX);
  void recordRejectedWaiter(LineAddr line, CoreId requester);
  void drainBlockedExternal();

  // transactions
  /// Visit every valid transactional way once, in cache-index order (the
  /// order of a whole-cache walk), then forget the footprint.
  template <typename Fn>
  void forEachTxWay(Fn&& fn);
  void txAbortInternal(AbortCause cause, const LineAddr* exceptLine);
  void clearTxBitsAndWake();
};

}  // namespace lktm::coh
