#ifndef MSQL_RUNTIME_THREAD_POOL_H_
#define MSQL_RUNTIME_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace msql {

// A fixed-size worker pool executing submitted closures in order of (due
// time, submission order). A task submitted without a due time is due at
// once, so immediate tasks run FIFO. A task given a future due time — a
// statement whose rate-limit token QueryScheduler reserved ahead — waits
// in the queue, not on a thread, and starts once it falls due. The pool
// itself is unbounded; admission control (queue depth, per-session limits,
// rate limits) lives in QueryScheduler. Shutdown() runs every queued task,
// delayed ones at once, and joins the workers; tasks submitted after
// Shutdown are rejected.
class ThreadPool {
 public:
  using Clock = std::chrono::steady_clock;

  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues `fn` to start no earlier than `not_before`. Returns false
  // (dropping fn) if the pool is shut down.
  bool Submit(std::function<void()> fn, Clock::time_point not_before = {});

  // Runs every queued task to completion, then joins the workers.
  // Idempotent.
  void Shutdown();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  struct Task {
    Clock::time_point due;
    uint64_t seq = 0;
    std::function<void()> fn;
  };
  // Heap order: the earliest (due, seq) on top.
  static bool Later(const Task& a, const Task& b) {
    return a.due != b.due ? a.due > b.due : a.seq > b.seq;
  }

  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Task> queue_;  // binary heap under Later
  uint64_t next_seq_ = 0;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace msql

#endif  // MSQL_RUNTIME_THREAD_POOL_H_
