#include "core/backend_parallel.hpp"

#include <cmath>
#include <optional>

#include "gen/generator.hpp"
#include "io/edge_batch.hpp"
#include "io/edge_files.hpp"
#include "io/tsv.hpp"
#include "perf/csr_build.hpp"
#include "perf/radix_partition.hpp"
#include "perf/spmv_compressed.hpp"
#include "perf/transpose.hpp"
#include "rand/rng.hpp"
#include "sparse/filter.hpp"
#include "sparse/pagerank.hpp"
#include "util/error.hpp"
#include "util/threadpool.hpp"
#include "util/timer.hpp"

namespace prpb::core {

util::ThreadPool& ParallelBackend::pool() {
  if (!pool_) pool_ = std::make_unique<util::ThreadPool>(threads_);
  return *pool_;
}

void ParallelBackend::kernel0(const KernelContext& ctx) {
  const PipelineConfig& config = ctx.config;
  const auto generator = gen::make_generator(config.generator, config.scale,
                                             config.edge_factor, config.seed);
  ctx.store.clear_stage(ctx.out_stage);
  const io::StageCodec& codec = ctx.codec();
  const auto bounds =
      io::shard_boundaries(generator->num_edges(), config.num_files);

  util::parallel_for(pool(), 0, config.num_files, [&](std::uint64_t s) {
    io::ShardWriter writer(ctx.store, ctx.out_stage, io::shard_name(s, codec),
                           codec, ctx.hooks);
    gen::EdgeList batch;
    constexpr std::uint64_t kBatch = io::kDefaultBatchEdges;
    for (std::uint64_t lo = bounds[s]; lo < bounds[s + 1]; lo += kBatch) {
      const std::uint64_t hi =
          std::min<std::uint64_t>(bounds[s + 1], lo + kBatch);
      batch.clear();
      generator->generate_range(lo, hi, batch);
      writer.append(batch);
    }
    writer.close();
  });
}

void ParallelBackend::kernel1(const KernelContext& ctx) {
  const PipelineConfig& config = ctx.config;
  gen::EdgeList edges;
  {
    const obs::Span span = ctx.span("k1/read");
    edges = ctx.read_stage(ctx.in_stage);
  }
  {
    const obs::Span span = ctx.span("k1/radix_partition");
    perf::radix_partition_sort(edges, pool(), config.sort_key);
  }
  const obs::Span span = ctx.span("k1/write");
  io::write_edge_list(ctx.store, ctx.out_stage, edges, config.num_files,
                      ctx.codec(), pool(), ctx.hooks);
}

sparse::CsrMatrix ParallelBackend::kernel2(const KernelContext& ctx) {
  const std::uint64_t n = ctx.config.num_vertices();
  if (ctx.config.fast_path) {
    // One straight read, then the per-task partial-degree CSR build and
    // the shared filter reference.
    gen::EdgeList edges;
    {
      const obs::Span span = ctx.span("k2/read");
      edges = ctx.read_stage(ctx.in_stage);
    }
    const obs::Span span = ctx.span("k2/build_filter");
    sparse::CsrMatrix matrix = perf::build_csr_parallel(edges, n, n, pool());
    sparse::apply_filter(matrix);
    return matrix;
  }
  // Row decomposition per the paper; at this repo's default configuration
  // the build is bandwidth-bound, so only the parse is parallelized (by
  // shard), with construction following serially on the gathered edges.
  const auto shards = ctx.store.list(ctx.in_stage);
  const io::StageCodec& codec = ctx.codec();
  std::vector<gen::EdgeList> parts(shards.size());
  util::parallel_for(pool(), 0, shards.size(), [&](std::uint64_t i) {
    parts[i] = io::read_edge_shard(ctx.store, ctx.in_stage, shards[i], codec,
                                   ctx.hooks);
  });
  gen::EdgeList edges;
  for (auto& part : parts) {
    edges.insert(edges.end(), part.begin(), part.end());
    part.clear();
    part.shrink_to_fit();
  }
  const obs::Span span = ctx.span("k2/filter_edges");
  return sparse::filter_edges(edges, n, nullptr);
}

std::vector<double> ParallelBackend::kernel3(const KernelContext& ctx,
                                             const sparse::CsrMatrix& matrix) {
  const PipelineConfig& config = ctx.config;
  sparse::PageRankConfig pr;
  pr.iterations = config.iterations;
  pr.damping = config.damping;
  pr.seed = config.seed;
  pr.validate();
  util::require(matrix.rows() == matrix.cols(),
                "kernel3: matrix must be square");

  // y = r·A computed as y[j] = Σ Aᵀ(j, i) · r[i]: each output entry owned by
  // exactly one task, so rows of Aᵀ partition the work with no atomics. Aᵀ
  // comes from the parallel stable transpose, as the 32-bit pull matrix or,
  // for --csr compressed, as a CsrMatrix whose column indices are
  // re-encoded as delta-varint groups (the plain index array is then
  // released). Either way each row accumulates in ascending source order,
  // so ranks are bit-identical to the serial backends'.
  perf::PullMatrix at;
  std::optional<sparse::CompressedCsrMatrix> cat;
  if (config.csr == "compressed") {
    sparse::CsrMatrix plain;
    {
      const obs::Span span = ctx.span("k3/transpose");
      plain = perf::transpose(matrix, pool());
    }
    const obs::Span span = ctx.span("k3/compress");
    cat.emplace(sparse::CompressedCsrMatrix::from_csr(plain));
  } else {
    const obs::Span span = ctx.span("k3/transpose");
    at = perf::transpose_pull(matrix, pool());
  }
  std::vector<double> r =
      sparse::pagerank_initial_vector(matrix.rows(), config.seed);
  std::vector<double> y(matrix.cols(), 0.0);
  const double c = config.damping;
  const auto n = static_cast<double>(matrix.rows());

  const sparse::IterationObserver observer = ctx.k3_observer();
  std::vector<double> previous;
  util::Stopwatch iter_watch;
  for (int it = 0; it < config.iterations; ++it) {
    if (observer) {
      previous = r;
      iter_watch.restart();
    }
    double r_sum = 0.0;
    for (const double x : r) r_sum += x;
    if (cat) {
      perf::transposed_spmv_compressed(*cat, r, y, pool());
    } else {
      util::parallel_for_chunks(
          pool(), 0, at.rows, [&](std::uint64_t lo, std::uint64_t hi) {
            const std::uint64_t* row_ptr = at.row_ptr.get();
            const std::uint32_t* col_idx = at.col_idx.get();
            const double* values = at.values.get();
            for (std::uint64_t j = lo; j < hi; ++j) {
              double acc = 0.0;
              for (std::uint64_t k = row_ptr[j]; k < row_ptr[j + 1]; ++k) {
                acc += values[k] * r[col_idx[k]];
              }
              y[j] = acc;
            }
          });
    }
    const double add = (1.0 - c) * r_sum / n;
    for (std::size_t i = 0; i < r.size(); ++i) r[i] = c * y[i] + add;

    if (observer) {
      sparse::IterationStats stats;
      stats.iteration = it;
      stats.seconds = iter_watch.seconds();
      for (std::size_t i = 0; i < r.size(); ++i) {
        stats.residual_l1 += std::abs(r[i] - previous[i]);
        stats.rank_sum += r[i];
      }
      observer(stats);
    }
  }
  return r;
}

}  // namespace prpb::core
