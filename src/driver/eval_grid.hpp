// Parallel evaluation grid: schedules independent compile+simulate cells
// (workload × config sweeps, register-limit sweeps, ...) on the shared host
// thread pool.
//
// Thread-budget sharing: the grid and the simulator draw from one budget.
// When the resolved grid parallelism exceeds 1, the cells run as one
// support::ThreadPool job, and every launch inside a pool job simulates on
// one thread — outer × inner never oversubscribes the machine. The grid
// writes no process state to get there, so any number of grids may run at
// once (the pool runs one and the others inline). A grid that resolves to a
// single lane runs its cells in order on the caller and leaves the inner SM
// parallelism untouched.
//
// Determinism contract: cell_fn(i) must write only to index-private state;
// callers merge in index order afterwards. Cells may run in any order and
// interleaving, but each index runs exactly once — the same contract
// support::ThreadPool::parallel_for gives.
#pragma once

#include <cstdint>
#include <functional>

#include "obs/collector.hpp"

namespace safara::driver {

/// Sets the process-wide grid thread budget, a deployment setting a main()
/// sets once. `n <= 0` restores the default, vgpu::sim_threads() (so one
/// knob sizes the whole evaluation pipeline).
void set_grid_threads(int n);
/// The budget the next eval_grid will use (always >= 1).
int grid_threads();

/// The outer parallelism a grid of `cells` jobs will actually use:
/// min(max(cells, 1), grid_threads()).
int grid_parallelism(std::int64_t cells);

/// Runs cell_fn(i) for every i in [0, cells): sequentially in index order
/// when the resolved parallelism is 1, otherwise as one job on the shared
/// pool. When `collector` is non-null, records the `grid.cells` counter and
/// `grid.parallelism` gauge.
void eval_grid(std::int64_t cells, const std::function<void(std::int64_t)>& cell_fn,
               obs::Collector* collector = nullptr);

}  // namespace safara::driver
