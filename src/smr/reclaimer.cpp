// Blocking half of the background reclaimer service thread (DESIGN.md §9).
//
// Kept out of the header so the scheme headers never pull <mutex> /
// <condition_variable> into every TU, and so the doorbell protocol lives in
// exactly one place.
//
// Doorbell protocol (mutator side is ring(), wait side is the loop body):
//  * ring() stores `work_ = true` (release) and notifies only when it
//    observes `sleeping_ == true` (acquire).  The service thread sets
//    `sleeping_` under the mutex *before* evaluating the wait predicate, and
//    the predicate re-reads `work_`, so the only way a ring is missed is
//    when it lands after the predicate check and before the notify matters —
//    and then the bounded wait_for wakes the thread within one
//    kReclaimIntervalUs anyway.  Lost wakeups cost latency (≤ interval),
//    never correctness.
//  * `work_` is cleared *before* the round callback runs: a donation that
//    arrives mid-round re-arms the flag and the next predicate check fires
//    immediately instead of sleeping on a non-empty mailbox.

#include "smr/reclaimer.hpp"

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <utility>

namespace scot {

struct ReclaimerThreadBase::Impl {
  std::mutex mu;
  std::condition_variable cv;
  bool stop_requested = false;
  std::function<void()> round;
  std::thread thread;
};

ReclaimerThreadBase::ReclaimerThreadBase() : impl_(new Impl) {}

ReclaimerThreadBase::~ReclaimerThreadBase() {
  stop();
  delete impl_;
}

void ReclaimerThreadBase::start(std::function<void()> round) {
  impl_->round = std::move(round);
  impl_->thread = std::thread([this] {
    const auto interval = std::chrono::microseconds(kReclaimIntervalUs);
    for (;;) {
      {
        std::unique_lock<std::mutex> lk(impl_->mu);
        sleeping_.store(true, std::memory_order_release);
        impl_->cv.wait_for(lk, interval, [this] {
          return impl_->stop_requested ||
                 work_.load(std::memory_order_acquire);
        });
        sleeping_.store(false, std::memory_order_release);
        if (impl_->stop_requested) break;
      }
      // Consume the doorbell before working: a ring that lands during the
      // round triggers another immediate round rather than being absorbed.
      work_.store(false, std::memory_order_relaxed);
      impl_->round();
    }
  });
}

void ReclaimerThreadBase::stop() {
  if (!impl_->thread.joinable()) return;
  {
    std::lock_guard<std::mutex> lk(impl_->mu);
    impl_->stop_requested = true;
  }
  impl_->cv.notify_one();
  impl_->thread.join();
  impl_->round = nullptr;
}

void ReclaimerThreadBase::ring() noexcept {
  work_.store(true, std::memory_order_release);
  if (sleeping_.load(std::memory_order_acquire)) impl_->cv.notify_one();
}

}  // namespace scot
