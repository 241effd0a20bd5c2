#include "sim/parallel_runner.h"

#include <algorithm>

namespace mron::sim {

ParallelRunner::ParallelRunner(int jobs) {
  if (jobs <= 0) {
    jobs = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  jobs_ = jobs;
  deques_.resize(static_cast<std::size_t>(jobs_));
  // Worker 0 is the submitting thread; only jobs-1 threads are spawned, and
  // jobs == 1 runs everything inline with no pool at all.
  threads_.reserve(static_cast<std::size_t>(jobs_ - 1));
  for (int w = 1; w < jobs_; ++w) {
    threads_.emplace_back(
        [this, w] { worker_loop(static_cast<std::size_t>(w)); });
  }
}

ParallelRunner::~ParallelRunner() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ParallelRunner::run_serial(std::size_t n,
                                const std::function<void(std::size_t)>& fn) {
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

void ParallelRunner::for_each(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (jobs_ == 1) {
    run_serial(n, fn);
    return;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (busy_) {
      // Nested call (from a task of this runner) or a concurrent submitter:
      // degrade to inline execution — identical results, no deadlock.
      lock.unlock();
      run_serial(n, fn);
      return;
    }
    busy_ = true;
    batch_ = Batch{};
    batch_.n = n;
    batch_.fn = &fn;
    // Deal indices round-robin so every worker starts with local work.
    for (std::size_t i = 0; i < n; ++i) {
      deques_[i % static_cast<std::size_t>(jobs_)].push_back(i);
    }
  }
  work_cv_.notify_all();

  // The submitter works the batch too (as worker 0).
  std::size_t index = 0;
  while (try_pop(0, index)) run_task(index);

  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return batch_.done == batch_.n; });
  const std::exception_ptr error = batch_.error;
  batch_ = Batch{};
  busy_ = false;
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

bool ParallelRunner::try_pop(std::size_t worker, std::size_t& index) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!busy_) return false;
  auto& own = deques_[worker];
  if (!own.empty()) {
    index = own.back();  // LIFO on the local deque: cache-warm tail first
    own.pop_back();
    return true;
  }
  for (std::size_t k = 1; k < deques_.size(); ++k) {
    auto& victim = deques_[(worker + k) % deques_.size()];
    if (!victim.empty()) {
      index = victim.front();  // FIFO steal from the far end
      victim.pop_front();
      return true;
    }
  }
  return false;
}

void ParallelRunner::run_task(std::size_t index) {
  std::exception_ptr error;
  try {
    (*batch_.fn)(index);
  } catch (...) {
    error = std::current_exception();
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (error && (!batch_.error || index < batch_.error_index)) {
    batch_.error = error;
    batch_.error_index = index;
  }
  if (++batch_.done == batch_.n) done_cv_.notify_all();
}

void ParallelRunner::worker_loop(std::size_t worker) {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this, worker] {
        if (shutdown_) return true;
        if (!busy_) return false;
        for (const auto& d : deques_) {
          if (!d.empty()) return true;
        }
        return false;
      });
      if (shutdown_) return;
    }
    std::size_t index = 0;
    while (try_pop(worker, index)) run_task(index);
  }
}

}  // namespace mron::sim
