#include "runtime/thread_pool.h"

#include <algorithm>

namespace msql {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads < 1) num_threads = 1;
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() { Shutdown(); }

bool ThreadPool::Submit(std::function<void()> fn,
                        Clock::time_point not_before) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return false;
    // Reading the clock under the lock keeps immediate tasks' due times in
    // submission order, so they stay FIFO among themselves.
    queue_.push_back(
        Task{std::max(not_before, Clock::now()), next_seq_++, std::move(fn)});
    std::push_heap(queue_.begin(), queue_.end(), Later);
  }
  cv_.notify_one();
  return true;
}

void ThreadPool::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) {
    if (t.joinable()) t.join();
  }
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (true) {
        if (queue_.empty()) {
          if (stop_) return;  // stopped and drained
          cv_.wait(lock);
          continue;
        }
        const Clock::time_point due = queue_.front().due;
        if (stop_ || due <= Clock::now()) break;
        // An earlier task submitted meanwhile notifies and is re-examined.
        cv_.wait_until(lock, due);
      }
      std::pop_heap(queue_.begin(), queue_.end(), Later);
      task = std::move(queue_.back().fn);
      queue_.pop_back();
    }
    task();
  }
}

}  // namespace msql
