// Futex-based thread parking for the ingest pipeline (DESIGN.md §13).
//
// The pipeline's original waits were all `std::this_thread::yield()` spins.
// On a machine with more runnable threads than cores that is actively
// harmful: an idle shard worker spinning on its empty ring burns exactly the
// core a busy shard needs, which is how pipeline-8 came to run at 0.28x
// scalar on the committed numbers. ParkingSpot gives every waiter a real
// blocking state with a three-phase backoff — spin (cheap, covers the
// common sub-microsecond handoff), yield (covers "the other thread is
// runnable but descheduled"), park (futex wait: the kernel frees the core).
//
// Lost-wakeup protocol (two-sided Dekker with seq_cst fences):
//
//       waiter                              waker
//   ───────────────────────────────    ──────────────────────────────
//   state := kParked   (relaxed)       publish work  (release store)
//   seq_cst fence                      seq_cst fence
//   re-check work predicate            if state == kParked:
//   if work: state := kAwake; return     state := kAwake
//   futex_wait(state, kParked)           futex_wake(state)
//
// Both sides store before fencing and load after, so at least one side
// observes the other: either the waiter sees the new work and never sleeps,
// or the waker sees kParked and wakes. The work payload itself is still
// published by the channel's own release/acquire pair (SPSC ring indices,
// control-slot pointers) — the fence protocol only covers the sleep/wake
// decision, which keeps the scheme TSan-clean.
//
// Linux-only (SYS_futex), like the rest of the serving stack.

#ifndef QUANTILEFILTER_PARALLEL_PARK_H_
#define QUANTILEFILTER_PARALLEL_PARK_H_

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <thread>

#include "common/time.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

namespace qf {

/// One CPU relax hint: `pause` on x86 (de-pipelines the spin loop and
/// yields the core's SMT sibling), `yield` on arm, no-op elsewhere.
inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

/// A single-waiter parking spot. One thread parks on it (the pipeline's
/// worker, or the dispatcher waiting out backpressure); any number of
/// threads may wake it. The waiter must re-check its work predicate between
/// PreparePark and Park (see the protocol above); Wake() is cheap when
/// nobody is parked (one fence + one relaxed load, no syscall).
class ParkingSpot {
 public:
  /// Waiter side, step 1: announce intent to sleep. After this returns the
  /// caller MUST re-check its work predicate and either CancelPark() (work
  /// arrived) or Park() (commit to sleeping).
  void PreparePark() {
    state_.store(kParked, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
  }

  /// Waiter side: found work after PreparePark — do not sleep.
  void CancelPark() { state_.store(kAwake, std::memory_order_relaxed); }

  /// Waiter side, step 2: sleep until a waker flips the state. Spurious
  /// returns are fine — callers loop on their work predicate anyway.
  void Park() {
    if (state_.load(std::memory_order_acquire) != kParked) return;
    FutexWait(&state_, kParked);
    state_.store(kAwake, std::memory_order_relaxed);
  }

  /// Waker side: call after publishing work (with release semantics on the
  /// work channel). Fences, then wakes the waiter iff it is parked (or
  /// about to park — the fence pairing guarantees one side sees the other).
  /// Returns true when a parked waiter was actually woken.
  bool Wake() {
    std::atomic_thread_fence(std::memory_order_seq_cst);
    if (state_.load(std::memory_order_relaxed) == kParked) {
      uint32_t expected = kParked;
      if (state_.compare_exchange_strong(expected, kAwake,
                                         std::memory_order_release,
                                         std::memory_order_relaxed)) {
        FutexWake(&state_);
        return true;
      }
    }
    return false;
  }

  /// True if the waiter is (about to be) asleep; used by tests and by the
  /// publish path to skip Wake()'s fence when the observer does not need
  /// the full protocol (it may race, so callers must tolerate both answers).
  bool IsParkedApprox() const {
    return state_.load(std::memory_order_relaxed) == kParked;
  }

  /// Direct futex wait/wake on a caller-owned word, for one-shot events
  /// that live outside a ParkingSpot (ShardRequest::done). The caller
  /// provides the full protocol: WaitWhile sleeps only while *word ==
  /// `while_value`, and the waker stores then WakeAll()s.
  static void WaitWhile(std::atomic<uint32_t>* word, uint32_t while_value) {
    FutexWait(word, while_value);
  }
  static void WakeAll(std::atomic<uint32_t>* word) { FutexWake(word, INT32_MAX); }

 private:
  static constexpr uint32_t kAwake = 0;
  static constexpr uint32_t kParked = 1;

  static void FutexWait(std::atomic<uint32_t>* word, uint32_t expected) {
    syscall(SYS_futex, reinterpret_cast<uint32_t*>(word),
            FUTEX_WAIT_PRIVATE, expected, nullptr, nullptr, 0);
  }
  static void FutexWake(std::atomic<uint32_t>* word, int nwaiters = 1) {
    syscall(SYS_futex, reinterpret_cast<uint32_t*>(word),
            FUTEX_WAKE_PRIVATE, nwaiters, nullptr, nullptr, 0);
  }

  std::atomic<uint32_t> state_{kAwake};
};

/// Graduated wait: kSpins polls with CpuRelax, then kYields scheduler
/// yields, then reports "park now". Reset() when the wait ends (work found
/// or the parked thread woke). The spin/yield budget is deliberately small
/// — parking is cheap (one futex round trip ≈ 1-2 µs) compared with a
/// core-stealing spin.
///
/// The backoff also remembers how the previous wait went (DESIGN.md
/// §13.2). Each full ladder times itself on the steady clock, and Reset()
/// times the wait it ends on the same clock. A wait that outlasted the
/// ladder means the ladder was wasted, so the next wait parks after only
/// kShortSpins relaxes; a wait the ladder would have covered restores the
/// full ladder. A thread that keeps one backoff across waits therefore
/// stops paying for the ladder while its work arrives in sparse bursts
/// (open-loop serving) and still spins through the short gaps of a
/// saturated stream. Both durations come from the same clock, so there is
/// no time constant to tune.
class AdaptiveBackoff {
 public:
  static constexpr uint32_t kSpins = 256;
  static constexpr uint32_t kYields = 16;
  static constexpr uint32_t kShortSpins = 32;

  /// Monotonic nanosecond clock; injectable so tests can drive the rule
  /// with chosen wait and ladder durations.
  using Clock = uint64_t (*)();

  explicit AdaptiveBackoff(Clock now_ns = &MonotonicNanos)
      : now_ns_(now_ns) {}

  /// One backoff step. Returns true when the caller should park.
  bool ShouldPark() {
    if (step_ == 0) wait_start_ns_ = now_ns_();
    const uint32_t spins = short_ ? kShortSpins : kSpins;
    const uint32_t yields = short_ ? 0 : kYields;
    if (step_ < spins) {
      ++step_;
      CpuRelax();
      return false;
    }
    if (step_ < spins + yields) {
      ++step_;
      std::this_thread::yield();
      return false;
    }
    if (step_ == spins + yields) {
      ++step_;  // the ladder ran out: time it (full ladders only)
      if (!short_) ladder_ns_ = now_ns_() - wait_start_ns_;
    }
    return true;
  }

  /// Ends the current wait (a no-op if none is open) and picks the next
  /// wait's ladder.
  void Reset() {
    if (step_ == 0) return;
    step_ = 0;
    short_ = ladder_ns_ != 0 && now_ns_() - wait_start_ns_ > ladder_ns_;
  }

  /// True when the next (or current) wait runs the short spin.
  bool short_ladder() const { return short_; }

 private:
  Clock now_ns_;
  uint32_t step_ = 0;
  bool short_ = false;
  uint64_t wait_start_ns_ = 0;
  uint64_t ladder_ns_ = 0;  // duration of the last full ladder (0 = none)
};

}  // namespace qf

#endif  // QUANTILEFILTER_PARALLEL_PARK_H_
