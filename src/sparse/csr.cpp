#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>

#include "perf/transpose.hpp"
#include "util/error.hpp"

namespace prpb::sparse {

CsrMatrix::CsrMatrix(std::uint64_t rows, std::uint64_t cols)
    : rows_(rows), cols_(cols), row_ptr_(rows + 1, 0) {}

CsrMatrix CsrMatrix::from_edges(const gen::EdgeList& edges, std::uint64_t rows,
                                std::uint64_t cols) {
  CsrMatrix m(rows, cols);
  // Pass 1: row counts (with duplicates).
  std::vector<std::uint64_t> counts(rows, 0);
  for (const auto& edge : edges) {
    util::ensure(edge.u < rows && edge.v < cols,
                 "CsrMatrix::from_edges: endpoint out of range");
    ++counts[edge.u];
  }
  // Exclusive prefix sums -> provisional row starts.
  std::vector<std::uint64_t> starts(rows + 1, 0);
  for (std::uint64_t r = 0; r < rows; ++r) starts[r + 1] = starts[r] + counts[r];
  // Pass 2: bucket columns by row.
  std::vector<std::uint64_t> cursor(starts.begin(), starts.end() - 1);
  std::vector<std::uint64_t> cols_by_row(edges.size());
  for (const auto& edge : edges) cols_by_row[cursor[edge.u]++] = edge.v;
  // Pass 3: per-row sort + duplicate accumulation.
  m.col_idx_.reserve(edges.size());
  m.values_.reserve(edges.size());
  for (std::uint64_t r = 0; r < rows; ++r) {
    auto* lo = cols_by_row.data() + starts[r];
    auto* hi = cols_by_row.data() + starts[r + 1];
    std::sort(lo, hi);
    for (auto* p = lo; p != hi;) {
      const std::uint64_t col = *p;
      double count = 0;
      while (p != hi && *p == col) {
        count += 1.0;
        ++p;
      }
      m.col_idx_.push_back(col);
      m.values_.push_back(count);
    }
    m.row_ptr_[r + 1] = m.col_idx_.size();
  }
  return m;
}

CsrMatrix CsrMatrix::from_triplets(const std::vector<std::uint64_t>& row,
                                   const std::vector<std::uint64_t>& col,
                                   const std::vector<double>& val,
                                   std::uint64_t rows, std::uint64_t cols) {
  util::require(row.size() == col.size() && row.size() == val.size(),
                "from_triplets: array lengths must match");
  // Sort triplet indices by (row, col), then accumulate duplicates.
  std::vector<std::size_t> order(row.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return row[a] != row[b] ? row[a] < row[b] : col[a] < col[b];
  });
  CsrMatrix m(rows, cols);
  m.col_idx_.reserve(row.size());
  m.values_.reserve(row.size());
  std::uint64_t current_row = 0;
  for (std::size_t k = 0; k < order.size();) {
    const std::size_t i = order[k];
    util::ensure(row[i] < rows && col[i] < cols,
                 "from_triplets: index out of range");
    double acc = 0;
    std::size_t j = k;
    while (j < order.size() && row[order[j]] == row[i] &&
           col[order[j]] == col[i]) {
      acc += val[order[j]];
      ++j;
    }
    while (current_row < row[i]) m.row_ptr_[++current_row] = m.col_idx_.size();
    m.col_idx_.push_back(col[i]);
    m.values_.push_back(acc);
    k = j;
  }
  while (current_row < rows) m.row_ptr_[++current_row] = m.col_idx_.size();
  return m;
}

CsrMatrix CsrMatrix::from_parts(std::uint64_t rows, std::uint64_t cols,
                                std::vector<std::uint64_t> row_ptr,
                                std::vector<std::uint64_t> col_idx,
                                std::vector<double> values) {
  util::require(row_ptr.size() == rows + 1,
                "from_parts: row_ptr must have rows+1 entries");
  util::require(col_idx.size() == values.size(),
                "from_parts: col_idx/values lengths must match");
  util::require(row_ptr.front() == 0 && row_ptr.back() == col_idx.size(),
                "from_parts: row_ptr must span [0, nnz]");
  CsrMatrix m;
  m.rows_ = rows;
  m.cols_ = cols;
  m.row_ptr_ = std::move(row_ptr);
  m.col_idx_ = std::move(col_idx);
  m.values_ = std::move(values);
  return m;
}

double CsrMatrix::value_sum() const {
  double acc = 0;
  for (const double v : values_) acc += v;
  return acc;
}

double CsrMatrix::at(std::uint64_t row, std::uint64_t col) const {
  util::require(row < rows_ && col < cols_, "CsrMatrix::at: out of range");
  const auto lo = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row]);
  const auto hi =
      col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[row + 1]);
  const auto it = std::lower_bound(lo, hi, col);
  if (it == hi || *it != col) return 0.0;
  return values_[static_cast<std::size_t>(it - col_idx_.begin())];
}

std::vector<double> CsrMatrix::col_sums() const {
  std::vector<double> sums(cols_, 0.0);
  for (std::size_t k = 0; k < col_idx_.size(); ++k)
    sums[col_idx_[k]] += values_[k];
  return sums;
}

std::vector<double> CsrMatrix::row_sums() const {
  std::vector<double> sums(rows_, 0.0);
  for (std::uint64_t r = 0; r < rows_; ++r) {
    double acc = 0;
    for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      acc += values_[k];
    sums[r] = acc;
  }
  return sums;
}

void CsrMatrix::zero_columns(const std::vector<bool>& mask) {
  util::require(mask.size() == cols_,
                "zero_columns: mask size must equal column count");
  std::uint64_t write = 0;
  std::uint64_t read_row_start = 0;
  for (std::uint64_t r = 0; r < rows_; ++r) {
    const std::uint64_t row_end = row_ptr_[r + 1];
    for (std::uint64_t k = read_row_start; k < row_end; ++k) {
      if (!mask[col_idx_[k]]) {
        col_idx_[write] = col_idx_[k];
        values_[write] = values_[k];
        ++write;
      }
    }
    read_row_start = row_end;
    row_ptr_[r + 1] = write;
  }
  col_idx_.resize(write);
  values_.resize(write);
}

void CsrMatrix::scale_rows_inverse(const std::vector<double>& scale) {
  util::require(scale.size() == rows_,
                "scale_rows_inverse: scale size must equal row count");
  for (std::uint64_t r = 0; r < rows_; ++r) {
    const double s = scale[r];
    if (s <= 0.0) continue;
    const double inv = 1.0 / s;
    for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      values_[k] *= inv;
  }
}

void CsrMatrix::vec_mat(const std::vector<double>& x,
                        std::vector<double>& y) const {
  util::require(x.size() == rows_, "vec_mat: x size must equal row count");
  y.assign(cols_, 0.0);
  for (std::uint64_t r = 0; r < rows_; ++r) {
    const double xr = x[r];
    if (xr == 0.0) continue;
    for (std::uint64_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k)
      y[col_idx_[k]] += xr * values_[k];
  }
}

CsrMatrix CsrMatrix::transpose() const {
  CsrMatrix t(cols_, rows_);
  t.col_idx_.resize(nnz());
  t.values_.resize(nnz());
  perf::transpose_into(*this, {0, rows_}, t.row_ptr_.data(),
                       t.col_idx_.data(), t.values_.data(), nullptr);
  return t;
}

bool CsrMatrix::approx_equal(const CsrMatrix& other, double tol) const {
  if (rows_ != other.rows_ || cols_ != other.cols_ || nnz() != other.nnz())
    return false;
  if (row_ptr_ != other.row_ptr_ || col_idx_ != other.col_idx_) return false;
  for (std::size_t k = 0; k < values_.size(); ++k) {
    if (std::abs(values_[k] - other.values_[k]) > tol) return false;
  }
  return true;
}

}  // namespace prpb::sparse
