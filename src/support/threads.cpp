#include "support/threads.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__linux__)
#include <sched.h>
#endif

namespace mpidetect {

namespace {

unsigned probe_cpus() {
#if defined(__linux__)
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
#endif
  return std::max(1u, std::thread::hardware_concurrency());
}

/// One parallel_for call. Lives on the caller's stack; `joined`,
/// `active` and `error` are guarded by the pool mutex, `next` is the
/// index counter.
struct Job {
  Job(const std::function<void(std::size_t)>& f, std::size_t count,
      unsigned w)
      : fn(f), n(count), width(w) {}

  const std::function<void(std::size_t)>& fn;
  std::size_t n;
  unsigned width;          // participants allowed, caller included
  unsigned joined = 1;     // the caller
  unsigned active = 0;     // workers inside the job right now
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
};

// True while this thread runs indices of some job: a nested
// parallel_for runs inline instead of waiting on its own pool.
thread_local bool t_in_task = false;

/// Claims and runs indices until the job is exhausted; returns the
/// exception fn threw, if any, after making every later claim fail.
std::exception_ptr run_indices(Job& job) {
  t_in_task = true;
  std::exception_ptr error;
  try {
    for (std::size_t i; (i = job.next.fetch_add(1)) < job.n;) job.fn(i);
  } catch (...) {
    error = std::current_exception();
    job.next.store(job.n);
  }
  t_in_task = false;
  return error;
}

class Pool {
 public:
  // The pool is never destroyed (see pool()), so its workers are never
  // joined; they park on wake_cv_ until the process exits.
  explicit Pool(unsigned size) {
    workers_.reserve(size - 1);
    for (unsigned t = 1; t < size; ++t) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  }

  /// Runs `job` with the caller participating. Returns false, having
  /// run nothing, when another caller holds the pool.
  bool run(Job& job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (job_ != nullptr) return false;
      job_ = &job;
      ++generation_;
    }
    wake_cv_.notify_all();
    std::exception_ptr error = run_indices(job);
    std::unique_lock<std::mutex> lock(mu_);
    job_ = nullptr;  // close admission: no worker can join from here on
    done_cv_.wait(lock, [&] { return job.active == 0; });
    if (!error) error = job.error;
    lock.unlock();
    if (error) std::rethrow_exception(error);
    return true;
  }

 private:
  void worker_loop() {
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lock(mu_);
    while (true) {
      // Join each job at most once, and only while it is still open and
      // below its width.
      wake_cv_.wait(lock, [&] {
        return job_ != nullptr && generation_ != seen &&
               job_->joined < job_->width;
      });
      seen = generation_;
      Job& job = *job_;
      ++job.joined;
      ++job.active;
      lock.unlock();
      std::exception_ptr error = run_indices(job);
      lock.lock();
      if (error && !job.error) job.error = error;
      // The caller may free `job` as soon as active reaches zero.
      if (--job.active == 0) done_cv_.notify_all();
    }
  }

  std::mutex mu_;
  std::condition_variable wake_cv_;
  std::condition_variable done_cv_;
  Job* job_ = nullptr;  // the open job, if any
  std::uint64_t generation_ = 0;
  std::vector<std::thread> workers_;
};

// Intentionally leaked: kernels may run during static destruction.
Pool& pool() {
  static Pool* p = new Pool(hardware_probe());
  return *p;
}

}  // namespace

unsigned hardware_probe() {
  static const unsigned cpus = probe_cpus();
  return cpus;
}

unsigned resolve_threads(unsigned requested) {
  const unsigned hw = hardware_probe();
  return requested == 0 ? hw : std::min(requested, hw);
}

void parallel_for(std::size_t n, unsigned width,
                  const std::function<void(std::size_t)>& fn) {
  const unsigned w = resolve_threads(width);
  if (n > 1 && w > 1 && !t_in_task) {
    Job job(fn, n, w);
    if (pool().run(job)) return;
  }
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

}  // namespace mpidetect
