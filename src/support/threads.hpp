// The library's one fork-join mechanism: a process-wide worker pool
// behind a single free function, parallel_for, plus the one CPU probe
// that sizes it. Every parallel loop runs here: dataset encoding, GA
// fitness evaluation, EvalEngine sweeps and folds, and the dense-math
// kernels (ml/kernels.hpp).
//
// The pool is sized once from hardware_probe(), created on first use
// and intentionally leaked (kernels may run during static destruction).
// It never grows: a requested width above the probe is capped at it.
// Each call keeps its job state on the caller's stack, and the caller
// closes admission and waits for every worker that joined before it
// returns, so no worker can ever touch a finished job.
#pragma once

#include <cstddef>
#include <functional>

namespace mpidetect {

/// CPUs this process may run on: the sched_getaffinity mask, so taskset
/// and cpusets are honored, or hardware_concurrency() only when that
/// call fails. At least one. Probed once per process.
unsigned hardware_probe();

/// Resolves a requested thread count to the width the pool can give:
/// 0 means hardware_probe(), and anything above the probe is capped at
/// it.
unsigned resolve_threads(unsigned requested);

/// \brief Runs fn(0), ..., fn(n-1) on the shared pool, each index
/// exactly once, and returns when all have finished.
///
/// At most `width` threads take part (0 = resolve_threads(0)), the
/// caller included. The call runs inline, in index order, when the
/// width resolves to one, n <= 1, the caller is itself running a pool
/// task, or another caller holds the pool at that moment; nested and
/// concurrent calls therefore never deadlock and never oversubscribe.
/// If fn throws, the remaining indices are skipped and the first
/// exception is rethrown to the caller once every worker has left.
void parallel_for(std::size_t n, unsigned width,
                  const std::function<void(std::size_t)>& fn);

}  // namespace mpidetect
