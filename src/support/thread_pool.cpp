#include "support/thread_pool.hpp"

#include <algorithm>

namespace safara::support {

namespace {

// Set while this thread runs a parallel_for job's fn (see in_parallel_for).
thread_local bool t_in_job = false;

}  // namespace

bool ThreadPool::in_parallel_for() { return t_in_job; }

ThreadPool::ThreadPool(int workers) {
  workers_.reserve(static_cast<std::size_t>(std::max(workers, 0)));
  for (int i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  job_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

ThreadPool& ThreadPool::shared() {
  static ThreadPool pool([] {
    unsigned hc = std::thread::hardware_concurrency();
    return hc > 1 ? static_cast<int>(hc) - 1 : 0;
  }());
  return pool;
}

void ThreadPool::worker_loop() {
  t_in_job = true;  // a worker runs nothing but job code
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      job_cv_.wait(lock, [&] {
        return shutdown_ || (job_generation_ != seen_generation && job_slots_ > 0);
      });
      if (shutdown_) return;
      seen_generation = job_generation_;
      --job_slots_;
      ++active_participants_;
    }
    drain();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --active_participants_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::drain() {
  // job_fn_ and job_n_ are immutable for the lifetime of a job, and this
  // thread holds a participation ticket, so reading them unlocked is safe.
  const std::function<void(std::int64_t)>& fn = *job_fn_;
  const std::int64_t n = job_n_;
  for (;;) {
    const std::int64_t i = next_index_.fetch_add(1, std::memory_order_relaxed);
    if (i >= n) return;
    try {
      fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (error_index_ < 0 || i < error_index_) {
        error_index_ = i;
        error_ = std::current_exception();
      }
    }
  }
}

void ThreadPool::parallel_for(int max_participants, std::int64_t n,
                              const std::function<void(std::int64_t)>& fn) {
  if (n <= 0) return;
  // The caller is a participant until it returns, even by a throw.
  struct Participant {
    bool nested = t_in_job;
    Participant() { t_in_job = true; }
    ~Participant() { t_in_job = nested; }
  } participant;
  int helpers = participant.nested
                    ? 0
                    : std::min<int>({max_participants - 1, worker_count(),
                                     n > INT32_MAX ? INT32_MAX : static_cast<int>(n) - 1});
  if (helpers > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    if (job_fn_) {
      helpers = 0;  // another thread's job holds the pool
    } else {
      job_fn_ = &fn;
      job_n_ = n;
      next_index_.store(0, std::memory_order_relaxed);
      job_slots_ = helpers;
      error_index_ = -1;
      error_ = nullptr;
      ++job_generation_;
    }
  }
  if (helpers <= 0) {
    // Inline: no pool involvement, exceptions propagate naturally.
    for (std::int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  job_cv_.notify_all();
  drain();  // the caller participates too
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return active_participants_ == 0; });
    job_slots_ = 0;  // revoke unclaimed tickets; late wakers see no work
    job_fn_ = nullptr;
    error = error_;
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace safara::support
