// Compressed-aware cache-blocked transposed SpMV for kernel 3
// (DESIGN.md §12).
//
// Same computation as parallel kernel 3's plain loop — y[j] = Σ Aᵀ(j,i)·r[i],
// rows of Aᵀ partitioned over the pool, the i axis optionally blocked so a
// slab of r stays cache-resident — but the column indices stream in the
// delta-varint group layout of sparse::CompressedCsrMatrix, cutting the
// structural traffic from 8 bytes per edge to the encoded gap width
// (~1-2 bytes on power-law graphs). Groups are decoded word-at-a-time
// straight into a 4-lane unrolled inner loop: the four gathers and
// multiplies are issued independently (the unroll's ILP), then folded into
// the row's single accumulator strictly in increasing-i order — the exact
// addition sequence of the reference loop, so results stay bit-identical
// (pinned by tests/csr_compressed_test.cpp and the golden suite).
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "sparse/csr_compressed.hpp"
#include "util/threadpool.hpp"

namespace prpb::perf {

/// Computes y[j] = Σ at(j,i) · r[i] for every row j of the compressed
/// `at`, blocked over the i axis in slabs of `block_cols` source vertices;
/// the default (any width >= r.size()) is the single-block loop kernel 3
/// runs. `r` must have at.cols() entries; `y` is assigned to at.rows().
/// Bit-identical to the plain per-row loop at every width.
void transposed_spmv_compressed(
    const sparse::CompressedCsrMatrix& at, const std::vector<double>& r,
    std::vector<double>& y, util::ThreadPool& pool,
    std::uint64_t block_cols = std::numeric_limits<std::uint64_t>::max());

}  // namespace prpb::perf
