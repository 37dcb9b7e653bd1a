#include "src/util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <string>

#include "src/util/strings.hpp"

namespace bb::util {

namespace {
std::atomic<void (*)(const ThreadPool::TaskStats&)> g_task_observer{nullptr};
}  // namespace

void ThreadPool::set_task_observer(void (*observer)(const TaskStats&)) {
  g_task_observer.store(observer, std::memory_order_release);
}

ThreadPool::ThreadPool(std::size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (std::size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(
        Queued{std::move(task), std::chrono::steady_clock::now()});
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  for (;;) {
    Queued task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    auto* observer = g_task_observer.load(std::memory_order_acquire);
    if (observer == nullptr) {
      task.fn();
      continue;
    }
    TaskStats stats;
    stats.enqueued = task.enqueued;
    stats.run_start = std::chrono::steady_clock::now();
    task.fn();
    stats.run_end = std::chrono::steady_clock::now();
    observer(stats);
  }
}

std::size_t ThreadPool::recommended_jobs() {
  const unsigned hw_raw = std::thread::hardware_concurrency();
  const std::size_t hw = hw_raw > 0 ? hw_raw : 1;
  // Garbage or trailing text falls through to the hardware default;
  // values are clamped to [1, hardware_concurrency] — a BB_JOBS beyond
  // the machine only adds contention to the synthesis loop.
  if (const auto n = positive_env("BB_JOBS")) {
    return std::min(static_cast<std::size_t>(*n), hw);
  }
  return hw;
}

void parallel_for_index(ThreadPool& pool, std::size_t count,
                        const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  std::vector<std::exception_ptr> errors(count);

  if (pool.size() <= 1 || count == 1) {
    // Inline path, same semantics: attempt every index, then rethrow the
    // lowest failure.
    for (std::size_t i = 0; i < count; ++i) {
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  } else {
    struct Shared {
      std::atomic<std::size_t> next{0};
      std::size_t exited = 0;  // guarded by mu
      std::mutex mu;
      std::condition_variable cv;
    } shared;

    const std::size_t workers = std::min(pool.size(), count);
    for (std::size_t w = 0; w < workers; ++w) {
      pool.submit([&shared, &errors, &fn, count] {
        for (;;) {
          const std::size_t i =
              shared.next.fetch_add(1, std::memory_order_relaxed);
          if (i >= count) break;
          try {
            fn(i);
          } catch (...) {
            errors[i] = std::current_exception();
          }
        }
        // Completion is signalled per *worker*, not per index: `shared`,
        // `errors` and `fn` live on the caller's stack and may be
        // destroyed as soon as the caller observes the last exit, so the
        // notify below must be this worker's final touch of any of them.
        std::lock_guard<std::mutex> lock(shared.mu);
        ++shared.exited;
        shared.cv.notify_all();
      });
    }
    std::unique_lock<std::mutex> lock(shared.mu);
    shared.cv.wait(lock,
                   [&shared, workers] { return shared.exited == workers; });
  }

  for (std::size_t i = 0; i < count; ++i) {
    if (errors[i]) std::rethrow_exception(errors[i]);
  }
}

}  // namespace bb::util
