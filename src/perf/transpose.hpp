// Parallel stable counting transpose for kernel 3.
//
// Parallel K3 computes y = r·A as y[j] = Σ Aᵀ(j,i)·r[i], so that every
// output entry belongs to exactly one task; that needs Aᵀ. Building it is
// one stable counting-sort pass of A's entries by column, parallelized the
// way perf::radix_partition_sort parallelizes a pass:
//
//   * split:   A's rows are cut into task ranges at nnz quantiles;
//   * count:   each task histograms the columns of its own rows;
//   * scan:    a column-chunked exclusive scan, column (bucket) major and
//              task minor, turns the histograms into scatter cursors and
//              yields Aᵀ's row offsets;
//   * scatter: each task writes its entries through its own cursors, so
//              tasks write disjoint slots and need no atomics.
//
// Task t's entries of column c land after those of every task before t,
// and each task walks its rows in order, so every Aᵀ row lists its sources
// in ascending order whatever the task count: one task is the serial
// counting transpose, and `sparse::CsrMatrix::transpose()` is exactly that
// call. The arrays are bit-identical for any split (pinned by
// tests/transpose_test.cpp).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <vector>

#include "sparse/csr.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"

namespace prpb::perf {

/// Cuts A's rows into `tasks` contiguous ranges of about equal nnz: bound t
/// is the first row whose offset reaches the t-th nnz quantile (lower_bound
/// on row_ptr). Returns tasks + 1 non-decreasing bounds from 0 to
/// a.rows(); a range may be empty (a hub row can span several quantiles).
std::vector<std::uint64_t> split_rows_by_nnz(const sparse::CsrMatrix& a,
                                             std::size_t tasks);

/// Task count for transposing `a` on `threads` threads: one per thread, but
/// few enough that the per-task column histograms (tasks × cols × 8 B) stay
/// within a quarter of A's 16 B/nnz arrays.
std::size_t transpose_tasks(const sparse::CsrMatrix& a, std::size_t threads);

/// Writes Aᵀ into caller-owned arrays: `row_ptr` holds a.cols() + 1
/// entries, `col_idx` and `values` a.nnz() each; none needs initializing.
/// `task_rows` are the row bounds from split_rows_by_nnz. With a null
/// `pool` (or one task) everything runs on the calling thread; otherwise
/// each phase runs one pool task per task or column chunk, so each array's
/// first touch happens on the pool. `Index` must hold every row id of A.
template <typename Index>
void transpose_into(const sparse::CsrMatrix& a,
                    const std::vector<std::uint64_t>& task_rows,
                    std::uint64_t* row_ptr, Index* col_idx, double* values,
                    util::ThreadPool* pool) {
  util::require(task_rows.size() >= 2 && task_rows.front() == 0 &&
                    task_rows.back() == a.rows(),
                "transpose_into: task bounds must span [0, rows]");
  util::require(a.rows() == 0 ||
                    a.rows() - 1 <= std::numeric_limits<Index>::max(),
                "transpose_into: row ids do not fit the index width");
  const std::size_t tasks = task_rows.size() - 1;
  const std::uint64_t cols = a.cols();
  if (a.nnz() == 0) {  // also covers a default-constructed A (no row_ptr)
    std::fill(row_ptr, row_ptr + cols + 1, std::uint64_t{0});
    return;
  }
  const std::uint64_t* a_row_ptr = a.row_ptr().data();
  const std::uint64_t* a_col_idx = a.col_idx().data();
  const double* a_values = a.values().data();
  const auto run = [&](const std::function<void(std::uint64_t)>& body) {
    if (pool == nullptr || tasks == 1) {
      for (std::size_t t = 0; t < tasks; ++t) body(t);
    } else {
      util::parallel_for(*pool, 0, tasks, body);
    }
  };

  // Count: task t's histogram is hist[t·cols, (t+1)·cols).
  const auto hist =
      std::make_unique_for_overwrite<std::uint64_t[]>(tasks * cols);
  run([&](std::uint64_t t) {
    std::uint64_t* h = hist.get() + t * cols;
    std::fill(h, h + cols, std::uint64_t{0});
    const std::uint64_t end = a_row_ptr[task_rows[t + 1]];
    for (std::uint64_t k = a_row_ptr[task_rows[t]]; k < end; ++k)
      ++h[a_col_idx[k]];
  });

  // Scan over column chunks: first each chunk's total, then (after a
  // serial scan of the totals) each chunk's bucket-major/task-minor pass,
  // which leaves hist holding the scatter cursors.
  std::vector<std::uint64_t> chunk_base(tasks + 1, 0);
  run([&](std::uint64_t c) {
    const std::uint64_t lo = cols * c / tasks;
    const std::uint64_t hi = cols * (c + 1) / tasks;
    std::uint64_t sum = 0;
    for (std::size_t t = 0; t < tasks; ++t) {
      const std::uint64_t* h = hist.get() + t * cols;
      for (std::uint64_t j = lo; j < hi; ++j) sum += h[j];
    }
    chunk_base[c + 1] = sum;
  });
  for (std::size_t c = 0; c < tasks; ++c) chunk_base[c + 1] += chunk_base[c];
  run([&](std::uint64_t c) {
    const std::uint64_t lo = cols * c / tasks;
    const std::uint64_t hi = cols * (c + 1) / tasks;
    std::uint64_t acc = chunk_base[c];
    for (std::uint64_t j = lo; j < hi; ++j) {
      row_ptr[j] = acc;
      for (std::size_t t = 0; t < tasks; ++t) {
        std::uint64_t& slot = hist[t * cols + j];
        const std::uint64_t count = slot;
        slot = acc;
        acc += count;
      }
    }
  });
  row_ptr[cols] = a.nnz();

  // Scatter: rows in order within each task keep every Aᵀ row sorted.
  run([&](std::uint64_t t) {
    std::uint64_t* cursor = hist.get() + t * cols;
    const std::uint64_t last = task_rows[t + 1];
    for (std::uint64_t r = task_rows[t]; r < last; ++r) {
      const auto source = static_cast<Index>(r);
      const std::uint64_t end = a_row_ptr[r + 1];
      for (std::uint64_t k = a_row_ptr[r]; k < end; ++k) {
        const std::uint64_t pos = cursor[a_col_idx[k]]++;
        col_idx[pos] = source;
        values[pos] = a_values[k];
      }
    }
  });
}

/// Aᵀ in the form parallel kernel 3 iterates: 64-bit row offsets, 32-bit
/// source ids and 64-bit values. The arrays are allocated without a zero
/// fill, so the parallel scan and scatter are their first touch.
struct PullMatrix {
  std::uint64_t rows = 0;  // A's column count
  std::uint64_t nnz = 0;
  std::unique_ptr<std::uint64_t[]> row_ptr;  // rows + 1 offsets
  std::unique_ptr<std::uint32_t[]> col_idx;  // source row of A, ascending
  std::unique_ptr<double[]> values;
};

/// Aᵀ as a PullMatrix, built on `pool`. Requires a.rows() <= 2^32.
PullMatrix transpose_pull(const sparse::CsrMatrix& a, util::ThreadPool& pool);

/// Aᵀ as a CsrMatrix, built on `pool`; equal to a.transpose().
sparse::CsrMatrix transpose(const sparse::CsrMatrix& a,
                            util::ThreadPool& pool);

}  // namespace prpb::perf
