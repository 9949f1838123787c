// The lock-elision backend: critical-section entry/exit code emitted as
// bytecode, matching the paper's Listings 1 and 2. Covers two registry rows:
//
//  * "lockiller" — the policy-driven flavour (rt::runtimeFor picks CGL /
//    BestEffort / HtmLock), i.e. what every Table II row emits. Golden-trace
//    tests pin the instruction stream byte for byte.
//  * "cgl"       — RuntimeKind::CGL forced, so `-be=cgl` turns any system's
//    sections into plain coarse-grained locking regardless of its HTM policy.
//
// The three flavours:
//
//  * CGL          — plain test-and-test-and-set spinlock (or MCS queue lock)
//                   around the section.
//  * BestEffort   — Listing 1 as recommended for commercial HTM: xbegin,
//                   subscribe the fallback-lock word, xabort if held, retry
//                   loop, spin-acquire fallback.
//  * HtmLock      — Listing 1 with the grey modifications (no lock-word
//                   subscription; hlbegin after acquiring the lock) plus the
//                   Listing 2 release that dispatches on the extended ttest,
//                   so it transparently supports switchingMode (STL).
//
// Register convention: r25-r31 are reserved for the backend; workload code
// must not keep live values there across a transaction.
#pragma once

#include "runtime/backends/backend.hpp"

namespace lktm::rt {

enum class RuntimeKind : std::uint8_t { CGL, BestEffort, HtmLock };

const char* toString(RuntimeKind k);

/// Pick the lock-elision flavour implied by a TM policy (Table II row).
RuntimeKind runtimeFor(const core::TmPolicy& policy);

/// Backend-reserved registers.
inline constexpr unsigned kRegLockAddr = 28;
inline constexpr unsigned kRegStatus = 29;
inline constexpr unsigned kRegRetries = 30;
inline constexpr unsigned kRegScratch = 31;
inline constexpr unsigned kRegScratch2 = 27;
inline constexpr unsigned kRegMcsNode = 26;  ///< this thread's MCS queue node
inline constexpr unsigned kRegMcsTmp = 25;

}  // namespace lktm::rt

namespace lktm::tm {

class LockillerBackend final : public Backend {
 public:
  LockillerBackend(const BackendConfig& cfg, rt::RuntimeKind kind,
                   const char* name)
      : Backend(cfg.retry), kind_(kind), lockAddr_(cfg.lockAddr), name_(name) {}

  const char* name() const override { return name_; }
  rt::RuntimeKind kind() const { return kind_; }
  Addr lockAddr() const { return lockAddr_; }

  /// Per-thread MCS queue node (a line in the reserved lock region).
  Addr mcsNodeAddr(unsigned tid) const { return lockAddr_ + kLineBytes * (tid + 1); }

  /// Materialize the lock address (and, for the MCS coarse-grained lock,
  /// this thread's queue-node address).
  void emitProgramStart(cpu::ProgramBuilder& b, unsigned tid,
                        unsigned nthreads) override;

  /// lock_acquire_elided(); body; lock_release_elided(). Between the two the
  /// thread is inside the critical section, either speculatively (HTM) or on
  /// the fallback path (TL).
  void emitTransaction(cpu::ProgramBuilder& b, const BodyFn& body) override {
    emitEnter(b);
    body(b);
    emitExit(b);
  }

  void emitRead(cpu::ProgramBuilder& b, Addr addr, unsigned addrReg,
                unsigned valReg) override {
    b.li(addrReg, static_cast<std::int64_t>(addr));
    b.load(valReg, addrReg);
  }

  void emitWrite(cpu::ProgramBuilder& b, Addr addr, unsigned addrReg,
                 unsigned valReg) override {
    b.li(addrReg, static_cast<std::int64_t>(addr));
    b.store(addrReg, valReg);
  }

  void emitUpdate(cpu::ProgramBuilder& b, Addr addr, unsigned addrReg,
                  unsigned valReg, std::int64_t delta) override {
    b.li(addrReg, static_cast<std::int64_t>(addr));
    b.load(valReg, addrReg);
    b.addi(valReg, valReg, delta);
    b.store(addrReg, valReg);
  }

  void emitReadDyn(cpu::ProgramBuilder& b, unsigned rd, unsigned addrReg,
                   std::int64_t off) override {
    b.load(rd, addrReg, off);
  }

  void emitWriteDyn(cpu::ProgramBuilder& b, unsigned addrReg, unsigned valReg,
                    std::int64_t off) override {
    b.store(addrReg, valReg, off);
  }

 private:
  rt::RuntimeKind kind_;
  Addr lockAddr_;
  const char* name_;

  void emitEnter(cpu::ProgramBuilder& b) const;
  void emitExit(cpu::ProgramBuilder& b) const;
  void emitSpinAcquire(cpu::ProgramBuilder& b) const;
  void emitMcsAcquire(cpu::ProgramBuilder& b) const;
  void emitMcsRelease(cpu::ProgramBuilder& b) const;
  void emitEnterCgl(cpu::ProgramBuilder& b) const;
  void emitEnterBestEffort(cpu::ProgramBuilder& b) const;
  void emitEnterHtmLock(cpu::ProgramBuilder& b) const;
  void emitExitCgl(cpu::ProgramBuilder& b) const;
  void emitExitBestEffort(cpu::ProgramBuilder& b) const;
  void emitExitHtmLock(cpu::ProgramBuilder& b) const;
};

}  // namespace lktm::tm
