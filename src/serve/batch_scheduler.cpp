#include "serve/batch_scheduler.hpp"

#include <algorithm>
#include <utility>

namespace lanecert::serve {

BatchScheduler::BatchScheduler(WorkerPool& pool)
    : pool_(pool), maxInFlight_(std::max(1, pool.workerCount())) {}

BatchScheduler::~BatchScheduler() { drain(); }

void BatchScheduler::submit(std::function<void()> run,
                            std::function<void()> cancel) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_.push_back(Entry{std::move(run), std::move(cancel)});
  dispatchLocked();
}

void BatchScheduler::dispatchLocked() {
  while (inFlight_ < maxInFlight_ && !pending_.empty()) {
    std::function<void()> run = std::move(pending_.front().run);
    pending_.pop_front();
    ++inFlight_;
    pool_.post([this, run = std::move(run)] {
      run();
      onJobFinished();
    });
  }
}

void BatchScheduler::onJobFinished() {
  std::lock_guard<std::mutex> lock(mu_);
  --inFlight_;
  dispatchLocked();
  if (inFlight_ == 0 && pending_.empty()) idle_.notify_all();
}

void BatchScheduler::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_.wait(lock, [&] { return inFlight_ == 0 && pending_.empty(); });
}

std::size_t BatchScheduler::pendingCount() {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_.size();
}

std::size_t BatchScheduler::cancelPending() {
  std::deque<Entry> cancelled;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cancelled.swap(pending_);
    if (inFlight_ == 0) idle_.notify_all();
  }
  // Outside the lock: cancel callbacks touch service state (promises,
  // caches) that may itself call back into stats readers.
  for (Entry& e : cancelled) {
    if (e.cancel) e.cancel();
  }
  return cancelled.size();
}

}  // namespace lanecert::serve
