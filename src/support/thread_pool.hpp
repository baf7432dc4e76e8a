// A small chunked thread pool for data-parallel host work.
//
// The pool owns persistent worker threads; the caller of parallel_for is
// always an extra participant. Work items are distributed dynamically: each
// participant repeatedly claims the next unclaimed index from a shared atomic
// counter, which load-balances uneven items (SM simulations whose block lists
// differ in cost) without any per-item allocation.
//
// Determinism contract: parallel_for(n, fn) invokes fn exactly once for every
// index in [0, n), with no ordering guarantee. Callers that need reproducible
// results must make each fn(i) write only to index-private state and merge in
// index order afterwards — that is exactly how vgpu::launch uses it.
//
// Any thread may call parallel_for at any time. The pool runs one job at a
// time; a call made from inside a job (a nested call), or while another
// thread's job holds the pool, runs inline on its caller instead of waiting.
// So an eval_grid cell may launch the simulator, and two grids may run at
// once, without deadlock and without oversubscribing the host.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace safara::support {

class ThreadPool {
 public:
  /// A pool with `workers` persistent worker threads (0 is valid: every
  /// parallel_for then runs inline on the caller).
  explicit ThreadPool(int workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int worker_count() const { return static_cast<int>(workers_.size()); }

  /// Runs fn(i) for every i in [0, n), using at most `max_participants`
  /// concurrent threads (the caller plus up to max_participants - 1 pool
  /// workers). Blocks until every index has completed. If any fn throws, the
  /// exception raised by the lowest-throwing index is rethrown on the caller
  /// once all claimed work has finished (unclaimed indices still run; an
  /// index whose fn throws simply records the exception). A call that runs
  /// inline — one participant, a nested call, or a busy pool — runs the
  /// indices in order and lets the first exception propagate.
  void parallel_for(int max_participants, std::int64_t n,
                    const std::function<void(std::int64_t)>& fn);

  /// True while the calling thread runs fn for some parallel_for call, as
  /// its caller or as a worker.
  static bool in_parallel_for();

  /// The process-wide pool, created on first use with
  /// hardware_concurrency - 1 workers.
  static ThreadPool& shared();

 private:
  void worker_loop();
  /// Claims and runs indices of the current job until none remain.
  void drain();

  std::mutex mu_;
  std::condition_variable job_cv_;   // signals workers: a new job is posted
  std::condition_variable done_cv_;  // signals the caller: participants left
  std::uint64_t job_generation_ = 0;
  bool shutdown_ = false;

  // Current job; job_fn_ is non-null from the post to the caller's return,
  // which is what makes the pool busy for every other caller.
  const std::function<void(std::int64_t)>* job_fn_ = nullptr;
  std::int64_t job_n_ = 0;
  int job_slots_ = 0;  // worker participation tickets for this job
  std::atomic<std::int64_t> next_index_{0};
  int active_participants_ = 0;

  // First-by-index exception of the current job.
  std::int64_t error_index_ = -1;
  std::exception_ptr error_;

  std::vector<std::thread> workers_;
};

}  // namespace safara::support
