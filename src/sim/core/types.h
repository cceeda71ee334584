// Shared primitive types of the simulation core.
//
// `sim/core` is the allocation and ordering machinery under the public
// `sim::Engine` facade: the event arena (pooled storage, generation-
// tagged handles), the hierarchical timer wheel (tick-bucketed
// ordering) and the event callable they carry.  It depends only on
// `common` -- the layer DAG forbids it from seeing the engine, the
// network, or anything above -- so the aliases the whole `sim` module
// shares live here and `sim/engine.h` re-exports them under `p2plb::sim`.
//
// EventFn is a move-only `void()` callable with inline storage for small
// captures.  Every scheduled event carries one, and the handlers the
// protocols schedule capture a pointer plus an index or two (the lb
// round's `[this, leaf]`, a K-nary sweep's `[shared_ptr, child]`), so
// with 24 inline bytes the common event costs no allocation to
// schedule, move or fire.  Larger captures -- the tracer and profiler
// wrappers around a send, a wrapped std::function -- fall back to one
// heap block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <type_traits>
#include <utility>

namespace p2plb::sim::core {

/// Simulated time, in abstract latency units (one intradomain hop = 1).
using Time = double;

/// Exclusive upper bound on a firing time: the wheel's tick is a 64-bit
/// integer, so times from 2^64 on (and infinity) have no bucket.  The
/// engine rejects them at schedule time.
inline constexpr Time kTimeLimit = 18446744073709551616.0;  // 2^64

/// Handle for cancelling a scheduled event.  For arena-backed events the
/// low 32 bits are the arena slot and the high bits a 31-bit generation
/// tag (never zero), so a handle outlives the slot it names: reusing the
/// slot bumps the generation and stale handles stop matching.  Bit 63 is
/// reserved for periodic-chain ids, which are not arena handles.
using EventId = std::uint64_t;

/// Callback invoked when an event fires: a move-only `void()` callable.
///
/// Implicitly constructible from any callable (lambdas, function
/// pointers, std::function); an empty std::function or a null function
/// pointer yields an empty EventFn, which compares equal to nullptr.
/// Callables of up to kInlineBytes (alignment <= 8, nothrow-movable) are
/// stored in place; larger ones in one heap block.  Call, move and
/// destroy dispatch through one static table per stored type.
class EventFn {
 public:
  static constexpr std::size_t kInlineBytes = 24;

  /// True when a callable of type F is stored without allocating.
  template <class F>
  static constexpr bool stores_inline =
      sizeof(F) <= kInlineBytes && alignof(F) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<F>;

  EventFn() noexcept = default;
  EventFn(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <class F, class D = std::decay_t<F>,
            class = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                     std::is_invocable_v<D&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    if constexpr (std::is_pointer_v<D> || IsStdFunction<D>::value) {
      if (!f) return;  // empty std::function / null pointer: stay empty
    }
    if constexpr (stores_inline<D>) {
      ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
      ops_ = &kInlineOps<D>;
    } else {
      ::new (static_cast<void*>(buf_)) D*(new D(std::forward<F>(f)));
      ops_ = &kHeapOps<D>;
    }
  }

  EventFn(EventFn&& other) noexcept { take(other); }
  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      take(other);
    }
    return *this;
  }
  EventFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }
  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;
  ~EventFn() { reset(); }

  /// Invoke the callable (which must be non-empty).
  void operator()() { ops_->call(buf_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }
  friend bool operator==(const EventFn& fn, std::nullptr_t) noexcept {
    return fn.ops_ == nullptr;
  }

 private:
  template <class F>
  struct IsStdFunction : std::false_type {};
  template <class Sig>
  struct IsStdFunction<std::function<Sig>> : std::true_type {};

  struct Ops {
    void (*call)(void* buf);
    /// Move-construct into `to` and destroy the source in `from`.
    void (*relocate)(void* from, void* to) noexcept;
    void (*destroy)(void* buf) noexcept;
  };

  template <class D>
  static D& inline_ref(void* buf) noexcept {
    return *std::launder(static_cast<D*>(buf));
  }
  template <class D>
  static D*& heap_ref(void* buf) noexcept {
    return *std::launder(static_cast<D**>(buf));
  }

  template <class D>
  static constexpr Ops kInlineOps = {
      [](void* buf) { static_cast<void>(std::invoke(inline_ref<D>(buf))); },
      [](void* from, void* to) noexcept {
        D& src = inline_ref<D>(from);
        ::new (to) D(std::move(src));
        src.~D();
      },
      [](void* buf) noexcept { inline_ref<D>(buf).~D(); }};

  template <class D>
  static constexpr Ops kHeapOps = {
      [](void* buf) { static_cast<void>(std::invoke(*heap_ref<D>(buf))); },
      [](void* from, void* to) noexcept {
        ::new (to) D*(heap_ref<D>(from));
      },
      [](void* buf) noexcept { delete heap_ref<D>(buf); }};

  void take(EventFn& other) noexcept {
    if (other.ops_ == nullptr) return;
    other.ops_->relocate(other.buf_, buf_);
    ops_ = std::exchange(other.ops_, nullptr);
  }
  void reset() noexcept {
    if (ops_ != nullptr) std::exchange(ops_, nullptr)->destroy(buf_);
  }

  alignas(void*) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

/// Timer-wheel bucket of a firing time (0 <= t < kTimeLimit).  The wheel
/// orders events by integer tick (granularity 1.0, one intradomain hop);
/// fractional firing times within one tick are ordered by the engine's
/// same-tick batch sort, not by the wheel.
[[nodiscard]] inline std::uint64_t to_tick(Time t) noexcept {
  return static_cast<std::uint64_t>(t);
}

}  // namespace p2plb::sim::core
