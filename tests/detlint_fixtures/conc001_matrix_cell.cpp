// CONC001 fixture: a bench::Matrix-style grid whose per-cell function keeps
// mutable static state. The harness runs each cell as its own run_sharded
// shard from inside its header, so the cell functor passed to run_grid() is
// a shard root just like a run_sharded lambda.
// Expected: 1 x CONC001 (the function-local static in simulate_cell()).
#include <cstddef>

namespace obs {
class Registry;
}  // namespace obs

struct Metrics {
  int v = 0;
};

template <typename M>
class Grid {
 public:
  template <typename CellFn>
  void run_grid(const CellFn& cell);
};

Metrics simulate_cell(std::size_t row, std::size_t col,
                      obs::Registry* registry) {
  static int cells_run = 0;
  ++cells_run;
  (void)registry;
  return Metrics{static_cast<int>(row * 10 + col) + cells_run};
}

void drive(Grid<Metrics>& grid) {
  grid.run_grid([&](std::size_t row, std::size_t col,
                    obs::Registry* registry) {
    return simulate_cell(row, col, registry);
  });
}
