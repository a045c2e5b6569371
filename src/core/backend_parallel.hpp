#pragma once

#include <cstddef>
#include <memory>

#include "core/backend.hpp"
#include "util/threadpool.hpp"

namespace prpb::core {

/// Thread-parallel backend: the paper's sketched parallel decomposition
/// ("each processor holds a set of rows"). Kernel 0 generates shards
/// concurrently (the counter-based generator needs no communication),
/// kernel 1 sorts with the parallel radix partition and writes its shards
/// concurrently, kernel 3 partitions the SpMV by output entry via the
/// transposed matrix, which the pool builds with perf::transpose_pull.
/// Results are bit-identical to `native` for kernels 0-2 and fp-identical
/// for kernel 3's additions within each output entry.
///
/// With config.fast_path set, kernel 2 switches to the src/perf parallel
/// CSR build — same results, the reference path remains selectable for
/// ablation.
class ParallelBackend final : public PipelineBackend {
 public:
  /// threads == 0 means hardware concurrency.
  explicit ParallelBackend(std::size_t threads = 0) : threads_(threads) {}

  [[nodiscard]] std::string name() const override { return "parallel"; }

  void kernel0(const KernelContext& ctx) override;
  void kernel1(const KernelContext& ctx) override;
  sparse::CsrMatrix kernel2(const KernelContext& ctx) override;
  std::vector<double> kernel3(const KernelContext& ctx,
                              const sparse::CsrMatrix& matrix) override;

 private:
  /// The worker pool, created on first use and reused across kernels —
  /// per-kernel pool construction would pay thread spawn/join inside the
  /// timed sections.
  util::ThreadPool& pool();

  std::size_t threads_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace prpb::core
