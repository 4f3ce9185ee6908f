#pragma once
// Job admission for the serving pipeline.
//
// The scheduler sits between submit() and the shared WorkerPool: pending
// jobs wait in one FIFO queue, and at most pool.workerCount() drivers (at
// least 1) run on the pool at once.  Jobs start in submission order.
//
// Every submitted job is eventually resolved exactly once: `run` on a pool
// thread, or `cancel` inline from cancelPending() for jobs that never
// started.  drain() blocks until the scheduler is idle.

#include <cstddef>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>

#include "runtime/executor.hpp"

namespace lanecert::serve {

class BatchScheduler {
 public:
  explicit BatchScheduler(WorkerPool& pool);
  /// Drains; the pool must still be alive (the service owns both and
  /// declares the scheduler after the pool).
  ~BatchScheduler();

  BatchScheduler(const BatchScheduler&) = delete;
  BatchScheduler& operator=(const BatchScheduler&) = delete;

  /// Queues a job.  `run` executes on a pool thread and must not throw
  /// (wrap the real work and route errors into the job's promise);
  /// `cancel` is invoked instead — inline — if the job is discarded by
  /// cancelPending() before it started.
  void submit(std::function<void()> run, std::function<void()> cancel);

  /// Blocks until no job is pending or in flight.
  void drain();

  /// Discards every job that has not started, invoking its `cancel`
  /// callback; running jobs are unaffected.  Returns how many were
  /// cancelled.
  std::size_t cancelPending();

  /// Jobs admitted but not yet started (the backlog admission control in
  /// LaneCertService bounds).  Running jobs do not count.
  [[nodiscard]] std::size_t pendingCount();

 private:
  struct Entry {
    std::function<void()> run;
    std::function<void()> cancel;
  };

  /// Starts pending jobs while slots are free.  Requires mu_ held.
  void dispatchLocked();
  void onJobFinished();

  WorkerPool& pool_;
  const int maxInFlight_;

  std::mutex mu_;
  std::condition_variable idle_;
  std::deque<Entry> pending_;
  int inFlight_ = 0;
};

}  // namespace lanecert::serve
