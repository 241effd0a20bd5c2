// Work-stealing experiment runner: fan independent Simulations across cores.
//
// The simulator is strictly single-threaded *within* one experiment — that
// is what keeps a seeded run bit-reproducible (see DESIGN.md "Engine
// internals"). Throughput therefore comes from running many independent
// Simulation instances at once: repeat seeds, LHS candidates, bench sweep
// points, what-if probes. This runner owns a persistent pool of workers
// with per-worker deques; a batch deals its task indices round-robin across
// the deques, workers drain their own deque LIFO and steal FIFO from
// siblings when empty, and the submitting thread works alongside them.
//
// Determinism contract: results are delivered in task-index order, every
// task must carry its own RNG/recorder state (a Simulation does), and no
// task may touch shared mutable state. Under that contract the output is
// byte-identical for any `jobs` value, including 1.
//
// Re-entrancy: a runner whose pool is busy (nested call, or a call from one
// of its own workers) degrades to inline serial execution — same results,
// no deadlock.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mron::sim {

class ParallelRunner {
 public:
  /// `jobs` <= 0 selects std::thread::hardware_concurrency(). jobs == 1
  /// never spawns a thread: every batch runs inline on the caller.
  explicit ParallelRunner(int jobs = 0);
  ~ParallelRunner();

  ParallelRunner(const ParallelRunner&) = delete;
  ParallelRunner& operator=(const ParallelRunner&) = delete;

  [[nodiscard]] int jobs() const { return jobs_; }

  /// Largest `--jobs` a driver accepts: the constructor starts jobs - 1 OS
  /// threads at once, so an unchecked count can exhaust the process table.
  static constexpr int kMaxJobs = 1024;

  /// Run fn(0) ... fn(n-1), blocking until all complete. If any task threw,
  /// rethrows the exception of the lowest-index failed task (deterministic)
  /// after the whole batch has drained.
  void for_each(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// for_each that collects return values in task-index order.
  template <typename R>
  std::vector<R> map(std::size_t n,
                     const std::function<R(std::size_t)>& fn) {
    std::vector<R> out(n);
    for_each(n, [&](std::size_t i) { out[i] = fn(i); });
    return out;
  }

 private:
  struct Batch {
    std::size_t n = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::size_t done = 0;
    std::exception_ptr error;
    std::size_t error_index = 0;
  };

  /// Pop one index for `worker` (own deque back, then steal from siblings'
  /// fronts). Returns false when no work is available right now.
  bool try_pop(std::size_t worker, std::size_t& index);
  void run_task(std::size_t index);
  void worker_loop(std::size_t worker);
  void run_serial(std::size_t n, const std::function<void(std::size_t)>& fn);

  int jobs_;
  std::vector<std::thread> threads_;
  std::vector<std::deque<std::size_t>> deques_;  // one per worker, 0 = caller
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers wait for tasks
  std::condition_variable done_cv_;   // submitter waits for batch drain
  Batch batch_;
  bool busy_ = false;
  bool shutdown_ = false;
};

}  // namespace mron::sim
