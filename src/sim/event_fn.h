// A move-only callable with small-buffer optimisation, replacing
// std::function<void()> on the event-loop hot path.
//
// The simulator schedules tens of millions of closures per run; std::function
// heap-allocates any capture larger than its (implementation-defined, often
// 16-byte) inline buffer and drags in copy machinery the loop never uses.
// EventFn stores captures up to kInlineSize bytes inline — large enough for
// every closure the simulator schedules today — and only falls back to the
// heap for oversized, over-aligned or potentially-throwing moves.
//
// Relocation (into and out of the event queue's slab, and on slab growth)
// is a plain memcpy whenever the capture is trivially copyable or lives on
// the heap (pointer copy); only non-trivial inline captures pay an indirect
// call.
#ifndef SRC_SIM_EVENT_FN_H_
#define SRC_SIM_EVENT_FN_H_

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace diablo {

class EventFn {
 public:
  // Capture budget before the heap fallback kicks in. 32 bytes covers every
  // closure the simulator schedules today (the largest is four word-sized
  // captures) and keeps an EventFn — one event-queue slab slot — at 40
  // bytes. The queue's heap sifts 24-byte keys and never moves an EventFn.
  static constexpr size_t kInlineSize = 32;

  // Inline storage alignment; captures with stricter alignment go to the
  // heap. 8 covers pointers, doubles and int64 — everything scheduled today.
  static constexpr size_t kInlineAlign = 8;

  EventFn() noexcept = default;

  template <typename F,
            typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, EventFn> &&
                                        std::is_invocable_r_v<void, D&>>>
  EventFn(F&& fn) {  // NOLINT(google-explicit-constructor): mirrors std::function
    if constexpr (sizeof(D) <= kInlineSize && alignof(D) <= kInlineAlign &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(fn));
      ops_ = &InlineOps<D>::kOps;
    } else {
      *reinterpret_cast<D**>(storage_) = new D(std::forward<F>(fn));
      ops_ = &HeapOps<D>::kOps;
    }
  }

  EventFn(EventFn&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      Relocate(&other);
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      Reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        Relocate(&other);
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { Reset(); }

  void operator()() { ops_->invoke(storage_); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

 private:
  struct Ops {
    void (*invoke)(unsigned char* storage);
    // Move-constructs into `dst` from `src` and destroys the `src` object;
    // nullptr means relocation is a plain memcpy of the storage.
    void (*relocate)(unsigned char* src, unsigned char* dst) noexcept;
    // nullptr means destruction is a no-op (trivial or already-moved state
    // handled by the owner clearing ops_).
    void (*destroy)(unsigned char* storage) noexcept;
  };

  template <typename D>
  struct InlineOps {
    static void Invoke(unsigned char* storage) {
      (*std::launder(reinterpret_cast<D*>(storage)))();
    }
    static void Relocate(unsigned char* src, unsigned char* dst) noexcept {
      D* from = std::launder(reinterpret_cast<D*>(src));
      ::new (static_cast<void*>(dst)) D(std::move(*from));
      from->~D();
    }
    static void Destroy(unsigned char* storage) noexcept {
      std::launder(reinterpret_cast<D*>(storage))->~D();
    }
    static constexpr Ops kOps = {
        &Invoke,
        std::is_trivially_copyable_v<D> ? nullptr : &Relocate,
        std::is_trivially_destructible_v<D> ? nullptr : &Destroy,
    };
  };

  template <typename D>
  struct HeapOps {
    static D*& Slot(unsigned char* storage) {
      return *reinterpret_cast<D**>(storage);
    }
    static void Invoke(unsigned char* storage) { (*Slot(storage))(); }
    static void Destroy(unsigned char* storage) noexcept { delete Slot(storage); }
    // Relocation is the owning-pointer copy: always a memcpy.
    static constexpr Ops kOps = {&Invoke, nullptr, &Destroy};
  };

  // Takes the payload out of `other`; ops_ must already equal other.ops_.
  void Relocate(EventFn* other) noexcept {
    if (ops_->relocate == nullptr) {
      std::memcpy(storage_, other->storage_, kInlineSize);
    } else {
      ops_->relocate(other->storage_, storage_);
    }
    other->ops_ = nullptr;
  }

  void Reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) {
        ops_->destroy(storage_);
      }
      ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char storage_[kInlineSize];
  const Ops* ops_ = nullptr;
};

}  // namespace diablo

#endif  // SRC_SIM_EVENT_FN_H_
