#include "perf/transpose.hpp"

namespace prpb::perf {

std::vector<std::uint64_t> split_rows_by_nnz(const sparse::CsrMatrix& a,
                                             std::size_t tasks) {
  util::require(tasks >= 1, "split_rows_by_nnz: need at least one task");
  const std::vector<std::uint64_t>& row_ptr = a.row_ptr();
  const std::uint64_t nnz = a.nnz();
  std::vector<std::uint64_t> bounds(tasks + 1, a.rows());
  bounds[0] = 0;
  for (std::size_t t = 1; t < tasks; ++t) {
    // floor(nnz · t / tasks) without forming the product.
    const std::uint64_t quantile = nnz / tasks * t + nnz % tasks * t / tasks;
    bounds[t] = static_cast<std::uint64_t>(
        std::lower_bound(row_ptr.begin(), row_ptr.end(), quantile) -
        row_ptr.begin());
  }
  return bounds;
}

std::size_t transpose_tasks(const sparse::CsrMatrix& a, std::size_t threads) {
  const std::uint64_t cap =
      a.nnz() / (2 * std::max<std::uint64_t>(1, a.cols()));
  return static_cast<std::size_t>(std::clamp<std::uint64_t>(
      cap, 1, std::max<std::size_t>(1, threads)));
}

namespace {

std::vector<std::uint64_t> task_rows(const sparse::CsrMatrix& a,
                                     util::ThreadPool& pool) {
  return split_rows_by_nnz(a, transpose_tasks(a, pool.size()));
}

}  // namespace

PullMatrix transpose_pull(const sparse::CsrMatrix& a,
                          util::ThreadPool& pool) {
  util::require(a.rows() <= (std::uint64_t{1} << 32),
                "transpose_pull: source ids must fit 32 bits");
  PullMatrix t;
  t.rows = a.cols();
  t.nnz = a.nnz();
  t.row_ptr = std::make_unique_for_overwrite<std::uint64_t[]>(t.rows + 1);
  t.col_idx = std::make_unique_for_overwrite<std::uint32_t[]>(t.nnz);
  t.values = std::make_unique_for_overwrite<double[]>(t.nnz);
  transpose_into(a, task_rows(a, pool), t.row_ptr.get(), t.col_idx.get(),
                 t.values.get(), &pool);
  return t;
}

sparse::CsrMatrix transpose(const sparse::CsrMatrix& a,
                            util::ThreadPool& pool) {
  std::vector<std::uint64_t> row_ptr(a.cols() + 1);
  std::vector<std::uint64_t> col_idx(a.nnz());
  std::vector<double> values(a.nnz());
  transpose_into(a, task_rows(a, pool), row_ptr.data(), col_idx.data(),
                 values.data(), &pool);
  return sparse::CsrMatrix::from_parts(a.cols(), a.rows(), std::move(row_ptr),
                                       std::move(col_idx), std::move(values));
}

}  // namespace prpb::perf
