// One rows x columns grid of independent simulations, the harness the
// chaos, availability, overload and mobility matrices share. A bench keeps
// its scenarios, its per-cell simulation, its table row and JSON metrics,
// and its gates; the harness owns the rest:
//   * every cell runs as its own run_sharded shard, with a private
//     obs::Registry in its result slot; the registries merge in cell order,
//     so the merged metrics are the same at any --jobs value;
//   * the whole grid runs a second time without registries, and the two
//     renderings must be byte-identical (the determinism check), which also
//     proves that collecting metrics does not change a result;
//   * per-cell JSON lands under "<row>/<col>", every verdict under
//     "checks", and finish() turns the verdicts into the exit status.
#pragma once

#include <cstddef>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "shard_runner.hpp"

namespace dohperf::bench {

/// Where one cell's JSON metrics go: the report's "<row>/<col>" scenario
/// for the first run, nowhere for the determinism re-run.
class CellJson {
 public:
  CellJson(BenchReport* report, std::string key)
      : report_(report), key_(std::move(key)) {}

  void set(const std::string& metric, dns::JsonValue value) {
    if (report_ != nullptr) report_->set(key_, metric, std::move(value));
  }

 private:
  BenchReport* report_;
  std::string key_;
};

template <typename Metrics>
class Matrix {
 public:
  /// `rows` and `cols` label the grid (and its JSON keys); `jobs` is the
  /// worker count, which changes wall-clock time only.
  Matrix(std::string bench, std::vector<std::string> rows,
         std::vector<std::string> cols, std::size_t jobs)
      : report_(std::move(bench)), rows_(std::move(rows)),
        cols_(std::move(cols)), jobs_(jobs) {}

  /// The JSON report, for the bench's params.
  BenchReport& report() { return report_; }

  /// Every cell's registry, merged in cell order.
  const obs::Registry& registry() const { return registry_; }

  /// Runs `cell(row, col, registry)`, which returns the cell's Metrics, for
  /// every cell: once with a private registry per cell, then again with a
  /// null registry. A cell must build its whole simulation from its
  /// coordinates and read-only inputs, since cells run in parallel.
  template <typename CellFn>
  void run_grid(const CellFn& cell) {
    first_ = run_cells(cell, /*with_registry=*/true);
    for (const Slot& slot : first_) registry_.merge_from(slot.registry);
    second_ = run_cells(cell, /*with_registry=*/false);
  }

  /// Renders both runs as a table of `header` plus one
  /// `row(row, col, metrics, json)` per cell in row-major order, prints the
  /// first run's table, then the determinism line.
  template <typename RowFn>
  void print(const std::vector<std::string>& header, const RowFn& row) {
    const std::string first = render(first_, header, row, &report_);
    deterministic_ = first == render(second_, header, row, nullptr);
    std::fputs(first.c_str(), stdout);
    std::printf("\ndeterminism check (two full grid runs, same seed): %s\n",
                deterministic_ ? "PASS - byte-identical" : "FAIL");
  }

  /// The first run's metrics of cell (row, col).
  const Metrics& at(std::size_t row, std::size_t col) const {
    return first_[row * cols_.size() + col].metrics;
  }

  /// Prints "<description>: PASS|FAIL<detail>" and records checks.<name>.
  void gate(const std::string& name, const std::string& description, bool ok,
            const std::string& detail = "") {
    std::printf("%s: %s%s\n", description.c_str(), ok ? "PASS" : "FAIL",
                detail.c_str());
    report_.set("checks", name, std::string(ok ? "PASS" : "FAIL"));
    gates_ok_ = gates_ok_ && ok;
  }

  /// Records checks.determinism, writes the documents `output` names, and
  /// returns the exit status: 1 when the two runs differed, or when a gate
  /// failed and `enforce` is set; 0 otherwise.
  int finish(const Output& output, bool enforce) {
    report_.set("checks", "determinism",
                std::string(deterministic_ ? "PASS" : "FAIL"));
    bench::finish(output, report_, nullptr, &registry_);
    return deterministic_ && (gates_ok_ || !enforce) ? 0 : 1;
  }

 private:
  // detlint: hot-slot
  struct alignas(64) Slot {
    Metrics metrics;
    obs::Registry registry;
  };

  template <typename CellFn>
  std::vector<Slot> run_cells(const CellFn& cell, bool with_registry) const {
    const std::size_t cols = cols_.size();
    return run_sharded<Slot>(rows_.size() * cols, jobs_, [&](std::size_t i) {
      Slot slot;
      slot.metrics =
          cell(i / cols, i % cols, with_registry ? &slot.registry : nullptr);
      return slot;
    });
  }

  template <typename RowFn>
  std::string render(const std::vector<Slot>& slots,
                     const std::vector<std::string>& header, const RowFn& row,
                     BenchReport* report) const {
    stats::TextTable table;
    table.add_row(header);
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      for (std::size_t c = 0; c < cols_.size(); ++c) {
        CellJson json(report, rows_[r] + "/" + cols_[c]);
        table.add_row(row(r, c, slots[r * cols_.size() + c].metrics, json));
      }
    }
    return table.render();
  }

  BenchReport report_;
  std::vector<std::string> rows_;
  std::vector<std::string> cols_;
  std::size_t jobs_;
  obs::Registry registry_;
  std::vector<Slot> first_;
  std::vector<Slot> second_;
  bool deterministic_ = false;
  bool gates_ok_ = true;
};

}  // namespace dohperf::bench
