// Tests for the parallel stable transpose (ctest label: perf). Whatever the
// task split or pool size, perf::transpose and perf::transpose_pull must
// produce exactly the arrays of the serial counting transpose below — the
// loop CsrMatrix::transpose() ran before it became the routine's one-task
// call — and the 32-bit pull form must equal the 64-bit CsrMatrix form.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "gen/kronecker.hpp"
#include "io/edge_list.hpp"
#include "perf/transpose.hpp"
#include "sparse/csr.hpp"
#include "sparse/filter.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"

#ifndef PRPB_TEST_DATA_DIR
#error "PRPB_TEST_DATA_DIR must point at tests/data"
#endif

namespace prpb::perf {
namespace {

using sparse::CsrMatrix;

constexpr const char* kSnapFixture = PRPB_TEST_DATA_DIR "/snap_sample.txt";

CsrMatrix kronecker_matrix(int scale) {
  gen::KroneckerParams params;
  params.scale = scale;
  const gen::EdgeList edges = gen::KroneckerGenerator(params).generate_all();
  return sparse::filter_edges(edges, std::uint64_t{1} << scale);
}

CsrMatrix snap_matrix() {
  io::ExternalEdgeList parsed = io::read_edge_list(kSnapFixture);
  const io::VertexRemap remap = io::build_vertex_remap(parsed.edges);
  io::apply_vertex_remap(remap, parsed.edges);
  return sparse::filter_edges(parsed.edges, remap.vertices());
}

// One row holding every nonzero between empty rows: every nnz quantile
// falls inside it, so all but one task of a split get no entries.
CsrMatrix hub_matrix() {
  const std::uint64_t rows = 9;
  const std::uint64_t cols = 40;
  const std::uint64_t hub = 4;
  std::vector<std::uint64_t> row_ptr(rows + 1, 0);
  for (std::uint64_t r = hub + 1; r <= rows; ++r) row_ptr[r] = cols;
  std::vector<std::uint64_t> col_idx(cols);
  std::iota(col_idx.begin(), col_idx.end(), std::uint64_t{0});
  std::vector<double> values(cols);
  for (std::uint64_t c = 0; c < cols; ++c) values[c] = 0.25 + c;
  return CsrMatrix::from_parts(rows, cols, std::move(row_ptr),
                               std::move(col_idx), std::move(values));
}

// Non-square, with empty rows (1, 3, 6) and empty columns (0, 2, 7).
CsrMatrix sparse_corners_matrix() {
  return CsrMatrix::from_parts(
      7, 8, {0, 2, 2, 5, 5, 6, 6, 9},
      {1, 5, 3, 4, 6, 1, 3, 5, 6},
      {1.5, -2.0, 3.25, 0.125, 7.0, 1e-300, -0.0, 9.5, 4.0});
}

// The serial counting transpose, kept apart from the library as the
// reference every other arrangement must reproduce.
CsrMatrix reference_transpose(const CsrMatrix& a) {
  const std::uint64_t rows = a.rows();
  const std::uint64_t cols = a.cols();
  std::vector<std::uint64_t> row_ptr(cols + 1, 0);
  for (const std::uint64_t c : a.col_idx()) ++row_ptr[c + 1];
  for (std::uint64_t c = 0; c < cols; ++c) row_ptr[c + 1] += row_ptr[c];
  std::vector<std::uint64_t> col_idx(a.nnz());
  std::vector<double> values(a.nnz());
  std::vector<std::uint64_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  for (std::uint64_t r = 0; r < rows; ++r) {
    for (std::uint64_t k = a.row_ptr()[r]; k < a.row_ptr()[r + 1]; ++k) {
      const std::uint64_t pos = cursor[a.col_idx()[k]]++;
      col_idx[pos] = r;
      values[pos] = a.values()[k];
    }
  }
  return CsrMatrix::from_parts(cols, rows, std::move(row_ptr),
                               std::move(col_idx), std::move(values));
}

void expect_same_arrays(const CsrMatrix& got, const CsrMatrix& want,
                        const std::string& label) {
  EXPECT_EQ(got.rows(), want.rows()) << label;
  EXPECT_EQ(got.cols(), want.cols()) << label;
  EXPECT_EQ(got.row_ptr(), want.row_ptr()) << label;
  EXPECT_EQ(got.col_idx(), want.col_idx()) << label;
  ASSERT_EQ(got.values().size(), want.values().size()) << label;
  EXPECT_EQ(0, std::memcmp(got.values().data(), want.values().data(),
                           got.values().size() * sizeof(double)))
      << label;
}

void expect_pull_equals(const PullMatrix& pull, const CsrMatrix& want,
                        const std::string& label) {
  ASSERT_EQ(pull.rows, want.rows()) << label;
  ASSERT_EQ(pull.nnz, want.nnz()) << label;
  EXPECT_EQ(std::vector<std::uint64_t>(pull.row_ptr.get(),
                                       pull.row_ptr.get() + pull.rows + 1),
            want.row_ptr())
      << label;
  EXPECT_EQ(std::vector<std::uint64_t>(pull.col_idx.get(),
                                       pull.col_idx.get() + pull.nnz),
            want.col_idx())
      << label;
  EXPECT_EQ(0, std::memcmp(pull.values.get(), want.values().data(),
                           pull.nnz * sizeof(double)))
      << label;
}

// Every public route to Aᵀ, on pools of 1, 3 and 8 threads and on explicit
// splits of 1 to 8 tasks, against the serial reference.
void expect_all_routes_match(const CsrMatrix& a, const std::string& label) {
  const CsrMatrix want = reference_transpose(a);
  expect_same_arrays(a.transpose(), want, label + " CsrMatrix::transpose");
  for (const std::size_t threads : {1, 3, 8}) {
    util::ThreadPool pool(threads);
    const std::string at = label + " on " + std::to_string(threads);
    expect_same_arrays(transpose(a, pool), want, at + " threads");
    expect_pull_equals(transpose_pull(a, pool), want, at + " threads, pull");
  }
  util::ThreadPool pool(3);
  for (const std::size_t tasks : {1, 2, 3, 5, 8}) {
    const std::vector<std::uint64_t> split = split_rows_by_nnz(a, tasks);
    std::vector<std::uint64_t> row_ptr(a.cols() + 1);
    std::vector<std::uint32_t> col_idx(a.nnz());
    std::vector<double> values(a.nnz());
    transpose_into(a, split, row_ptr.data(), col_idx.data(), values.data(),
                   &pool);
    const std::string at = label + " split into " + std::to_string(tasks);
    EXPECT_EQ(row_ptr, want.row_ptr()) << at;
    EXPECT_EQ(std::vector<std::uint64_t>(col_idx.begin(), col_idx.end()),
              want.col_idx())
        << at;
    EXPECT_EQ(values, want.values()) << at;
  }
}

TEST(TransposeTest, KroneckerScalesMatchSerialReference) {
  for (int scale = 8; scale <= 14; ++scale) {
    const CsrMatrix a = kronecker_matrix(scale);
    ASSERT_GT(a.nnz(), 0u);
    expect_all_routes_match(a, "scale " + std::to_string(scale));
  }
}

TEST(TransposeTest, SnapFixtureMatchesSerialReference) {
  const CsrMatrix a = snap_matrix();
  ASSERT_GT(a.nnz(), 0u);
  expect_all_routes_match(a, "snap fixture");
}

TEST(TransposeTest, EmptyMatricesMatchSerialReference) {
  expect_all_routes_match(CsrMatrix(), "default-constructed");
  expect_all_routes_match(CsrMatrix(17, 9), "no entries");
}

TEST(TransposeTest, EmptyRowsAndColumnsMatchSerialReference) {
  expect_all_routes_match(sparse_corners_matrix(), "empty rows and columns");
}

TEST(TransposeTest, HubRowLeavesTasksEmptyAndStillMatches) {
  const CsrMatrix a = hub_matrix();
  // Each quantile lands in the hub row, so every bound after the first is
  // the row past it: one task owns all the entries, the rest none.
  EXPECT_EQ(split_rows_by_nnz(a, 4),
            (std::vector<std::uint64_t>{0, 5, 5, 5, 9}));
  expect_all_routes_match(a, "hub row");
}

TEST(TransposeTest, SplitCutsRowsAtNnzQuantiles) {
  const CsrMatrix a = kronecker_matrix(10);
  const std::vector<std::uint64_t>& row_ptr = a.row_ptr();
  std::uint64_t max_row = 0;
  for (std::uint64_t r = 0; r < a.rows(); ++r)
    max_row = std::max(max_row, row_ptr[r + 1] - row_ptr[r]);
  for (const std::size_t tasks : {1, 2, 4, 7}) {
    const std::vector<std::uint64_t> split = split_rows_by_nnz(a, tasks);
    ASSERT_EQ(split.size(), tasks + 1);
    EXPECT_EQ(split.front(), 0u);
    EXPECT_EQ(split.back(), a.rows());
    for (std::size_t t = 0; t < tasks; ++t) {
      ASSERT_LE(split[t], split[t + 1]);
      // A range overshoots its share by at most the row that crosses it.
      EXPECT_LE(row_ptr[split[t + 1]] - row_ptr[split[t]],
                a.nnz() / tasks + 1 + max_row)
          << tasks << " tasks, task " << t;
    }
  }
  EXPECT_THROW(split_rows_by_nnz(a, 0), util::Error);
}

TEST(TransposeTest, TaskCountBoundsHistogramMemory) {
  const CsrMatrix a = kronecker_matrix(8);
  // The smallest golden scale still splits, so the parallel route runs on
  // matrices the tests build in milliseconds.
  EXPECT_GE(transpose_tasks(a, 8), 2u);
  EXPECT_EQ(transpose_tasks(a, 1), 1u);
  for (const std::size_t threads : {2, 4, 8, 64}) {
    const std::size_t tasks = transpose_tasks(a, threads);
    EXPECT_LE(tasks, threads);
    EXPECT_LE(tasks * a.cols() * 8, a.nnz() * 4) << threads << " threads";
  }
  // Fewer nonzeros than columns: one task, one histogram.
  EXPECT_EQ(transpose_tasks(sparse_corners_matrix(), 8), 1u);
  EXPECT_EQ(transpose_tasks(CsrMatrix(), 8), 1u);
}

TEST(TransposeTest, RejectsRowIdsWiderThanTheIndex) {
  const CsrMatrix a = CsrMatrix::from_parts(300, 2, [] {
    std::vector<std::uint64_t> row_ptr(301, 1);
    row_ptr[0] = 0;
    return row_ptr;
  }(), {1}, {2.0});
  std::vector<std::uint64_t> row_ptr(3);
  std::uint8_t col_idx[1];
  double values[1];
  EXPECT_THROW(transpose_into(a, {0, 300}, row_ptr.data(), col_idx, values,
                              nullptr),
               util::Error);
  // A split that does not span every row is rejected too.
  std::uint64_t wide_idx[1];
  EXPECT_THROW(transpose_into(a, {0, 299}, row_ptr.data(), wide_idx, values,
                              nullptr),
               util::Error);
}

}  // namespace
}  // namespace prpb::perf
