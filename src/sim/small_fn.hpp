// Small-buffer-optimized move-only callable for the event hot path.
//
// Every event and every coherence-message delivery used to be a
// std::function whose captures routinely exceeded libstdc++'s 16-byte SBO
// and heap-allocated per event. SmallFn gives the kernel a callable with a
// 48-byte inline buffer sized so that every steady-state closure in the
// simulator (pooled-message delivery, mesh packet steps, CPU continuations)
// stays inline. Oversized callables still work via a heap fallback, but the
// fallback is counted in kstats::heapCallables so the pool-reuse regression
// test can prove the hot path never takes it.
//
// Relocation rule: a move (construction or assignment) relocates the stored
// state and leaves the source empty. When the stored object is trivially
// copyable — every hot-path closure is, since they capture only `this`,
// pointers and integers (`[this, ep]`, `[this, p]`, `[this, line]`) — it has
// no lifetime-ops table: the move is one fixed-size memcpy of the buffer
// instead of an indirect call, and destruction is a no-op (trivially
// copyable types have trivial destructors). The heap fallback's buffer holds
// only the owning pointer, so its table has a null `relocate` and it moves by
// memcpy too. Other closures (e.g. one capturing a std::function) are
// move-constructed into the destination and the source destroyed, once per
// relocation. The invoke function is stored directly in the SmallFn, so a
// call is one indirect jump with no table load.
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

#include "sim/kernel_stats.hpp"

namespace lktm::sim {

inline constexpr std::size_t kSmallFnInlineBytes = 48;

template <class Sig, std::size_t Inline = kSmallFnInlineBytes>
class SmallFn;

template <class R, class... Args, std::size_t Inline>
class SmallFn<R(Args...), Inline> {
 public:
  SmallFn() noexcept = default;
  SmallFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFn(F&& f) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(f));
  }

  SmallFn(SmallFn&& o) noexcept { take(o); }

  SmallFn& operator=(SmallFn&& o) noexcept {
    if (this != &o) {
      reset();
      take(o);
    }
    return *this;
  }

  SmallFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallFn> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  SmallFn& operator=(F&& f) {
    reset();
    construct(std::forward<F>(f));
    return *this;
  }

  SmallFn(const SmallFn&) = delete;
  SmallFn& operator=(const SmallFn&) = delete;

  ~SmallFn() { reset(); }

  explicit operator bool() const noexcept { return invoke_ != nullptr; }
  friend bool operator==(const SmallFn& f, std::nullptr_t) noexcept { return f.invoke_ == nullptr; }
  friend bool operator!=(const SmallFn& f, std::nullptr_t) noexcept { return f.invoke_ != nullptr; }

  R operator()(Args... args) { return invoke_(buf_, std::forward<Args>(args)...); }

 private:
  using Invoke = R (*)(void*, Args&&...);
  /// Lifetime hooks of a non-trivial callable. Trivially copyable callables
  /// have no table (ops_ == nullptr): they relocate by memcpy and need no
  /// destructor call.
  struct Ops {
    /// Move-construct into `to` and destroy the source; nullptr = memcpy.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void*) noexcept;
  };

  alignas(std::max_align_t) unsigned char buf_[Inline];
  Invoke invoke_ = nullptr;  ///< nullptr == empty
  const Ops* ops_ = nullptr;

  void reset() noexcept {
    if (ops_ != nullptr) ops_->destroy(buf_);
    invoke_ = nullptr;
    ops_ = nullptr;
  }

  /// Relocate `o`'s callable into this (empty) SmallFn and empty `o`.
  void take(SmallFn& o) noexcept {
    invoke_ = o.invoke_;
    ops_ = o.ops_;
    if (ops_ != nullptr && ops_->relocate != nullptr) {
      ops_->relocate(o.buf_, buf_);
    } else if (invoke_ != nullptr) {
      std::memcpy(buf_, o.buf_, Inline);
    }
    o.invoke_ = nullptr;
    o.ops_ = nullptr;
  }

  template <class F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    constexpr bool fits = sizeof(Fn) <= Inline && alignof(Fn) <= alignof(std::max_align_t);
    if constexpr (fits && (std::is_trivially_copyable_v<Fn> ||
                           std::is_nothrow_move_constructible_v<Fn>)) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      invoke_ = [](void* b, Args&&... a) -> R {
        return (*std::launder(reinterpret_cast<Fn*>(b)))(std::forward<Args>(a)...);
      };
      if constexpr (!std::is_trivially_copyable_v<Fn>) {
        static constexpr Ops ops{
            [](void* from, void* to) noexcept {
              Fn* src = std::launder(reinterpret_cast<Fn*>(from));
              ::new (to) Fn(std::move(*src));
              src->~Fn();
            },
            [](void* b) noexcept { std::launder(reinterpret_cast<Fn*>(b))->~Fn(); },
        };
        ops_ = &ops;
      }
    } else {
      kstats::heapCallables.fetch_add(1, std::memory_order_relaxed);
      ::new (static_cast<void*>(buf_)) Fn*(new Fn(std::forward<F>(f)));
      static constexpr Ops ops{
          nullptr,  // the buffer holds only the owning pointer: memcpy it
          [](void* b) noexcept { delete *std::launder(reinterpret_cast<Fn**>(b)); },
      };
      invoke_ = [](void* b, Args&&... a) -> R {
        return (**std::launder(reinterpret_cast<Fn**>(b)))(std::forward<Args>(a)...);
      };
      ops_ = &ops;
    }
  }
};

/// The kernel's event payload: what EventQueue stores and Network delivers.
using Action = SmallFn<void()>;

}  // namespace lktm::sim
