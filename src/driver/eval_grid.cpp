#include "driver/eval_grid.hpp"

#include <algorithm>

#include "support/thread_pool.hpp"
#include "vgpu/sim.hpp"

namespace safara::driver {
namespace {

int g_grid_threads_override = 0;

}  // namespace

void set_grid_threads(int n) { g_grid_threads_override = n > 0 ? n : 0; }

int grid_threads() {
  return g_grid_threads_override > 0 ? g_grid_threads_override : vgpu::sim_threads();
}

int grid_parallelism(std::int64_t cells) {
  const std::int64_t budget = grid_threads();
  return static_cast<int>(std::min(std::max<std::int64_t>(cells, 1), budget));
}

void eval_grid(std::int64_t cells, const std::function<void(std::int64_t)>& cell_fn,
               obs::Collector* collector) {
  const int par = grid_parallelism(cells);
  if (collector) {
    collector->metrics.add("grid.cells", cells);
    collector->metrics.set("grid.parallelism", par);
  }
  if (par <= 1) {
    for (std::int64_t i = 0; i < cells; ++i) cell_fn(i);
    return;
  }
  support::ThreadPool::shared().parallel_for(par, cells, cell_fn);
}

}  // namespace safara::driver
