// Tests for src/perf: the fast paths must be indistinguishable from the
// reference implementations they replace — the radix partition sort from
// the stable comparison sort (including byte-for-byte re-encoded shards)
// and the parallel CSR build from CsrMatrix::from_edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "core/backend_native.hpp"
#include "core/backend_parallel.hpp"
#include "core/config.hpp"
#include "core/kernel_context.hpp"
#include "fault/inject.hpp"
#include "fault/plan.hpp"
#include "gen/kronecker.hpp"
#include "io/edge_files.hpp"
#include "io/stage_codec.hpp"
#include "io/stage_store.hpp"
#include "perf/csr_build.hpp"
#include "perf/radix_partition.hpp"
#include "rand/rng.hpp"
#include "sort/edge_sort.hpp"
#include "sparse/csr.hpp"
#include "sparse/filter.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/threadpool.hpp"

namespace prpb::perf {
namespace {

using gen::Edge;
using gen::EdgeList;

EdgeList random_edges(std::size_t count, std::uint64_t max_vertex,
                      std::uint64_t seed = 7) {
  rnd::Xoshiro256 rng(seed);
  EdgeList edges;
  edges.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    edges.push_back({rng.next_below(max_vertex), rng.next_below(max_vertex)});
  }
  return edges;
}

EdgeList reference_sorted(EdgeList edges, sort::SortKey key) {
  const auto less = [key](const Edge& a, const Edge& b) {
    if (key == sort::SortKey::kStart) return a.u < b.u;
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };
  std::stable_sort(edges.begin(), edges.end(), less);
  return edges;
}

// ---- radix partition: parity with the stable comparison reference -----------

struct RadixCase {
  const char* name;
  EdgeList edges;
};

std::vector<RadixCase> radix_cases() {
  std::vector<RadixCase> cases;
  cases.push_back({"Empty", {}});
  cases.push_back({"Single", {{5, 3}}});
  cases.push_back({"Uniform", random_edges(10000, 1 << 12)});
  cases.push_back({"Kronecker", [] {
                     gen::KroneckerParams params;
                     params.scale = 12;
                     return gen::KroneckerGenerator(params).generate_all();
                   }()});
  // Adversarial skew: every start vertex identical — the u passes are all
  // constant bytes, only the v passes move data.
  {
    EdgeList same_u = random_edges(5000, 1 << 20, 11);
    for (auto& e : same_u) e.u = 42;
    cases.push_back({"AllSameStart", std::move(same_u)});
  }
  // High bits only: exercises the varying-byte mask skipping the low
  // passes entirely.
  {
    EdgeList high = random_edges(5000, 1 << 8, 13);
    for (auto& e : high) {
      e.u <<= 48;
      e.v <<= 48;
    }
    cases.push_back({"HighBits", std::move(high)});
  }
  {
    EdgeList sorted = random_edges(5000, 1 << 12, 17);
    std::sort(sorted.begin(), sorted.end());
    cases.push_back({"PreSorted", sorted});
    std::reverse(sorted.begin(), sorted.end());
    cases.push_back({"Reversed", std::move(sorted)});
  }
  // Two-value keys with distinct payloads pin stability: equal keys must
  // keep input order.
  {
    EdgeList ties;
    for (std::uint64_t i = 0; i < 4096; ++i) ties.push_back({i % 2, i});
    cases.push_back({"StabilityTies", std::move(ties)});
  }
  return cases;
}

TEST(RadixPartitionTest, MatchesStableReferenceOnAllCases) {
  util::ThreadPool pool(4);
  for (const auto& test_case : radix_cases()) {
    for (const auto key : {sort::SortKey::kStartEnd, sort::SortKey::kStart}) {
      EdgeList edges = test_case.edges;
      radix_partition_sort(edges, pool, key);
      EXPECT_EQ(edges, reference_sorted(test_case.edges, key))
          << test_case.name
          << (key == sort::SortKey::kStart ? " (kStart)" : " (kStartEnd)");
    }
  }
}

TEST(RadixPartitionTest, AgreesWithSerialRadixEngine) {
  util::ThreadPool pool(3);
  EdgeList a = random_edges(65536, 1 << 16, 23);
  EdgeList b = a;
  radix_partition_sort(a, pool);
  sort::radix_sort(b);
  EXPECT_EQ(a, b);
}

TEST(RadixPartitionTest, SingleThreadPoolWorks) {
  util::ThreadPool pool(1);
  EdgeList edges = random_edges(10000, 1 << 10, 29);
  const EdgeList expected = reference_sorted(edges, sort::SortKey::kStartEnd);
  radix_partition_sort(edges, pool);
  EXPECT_EQ(edges, expected);
}

// The pipeline-level guarantee behind --fast-path: K1's output shards are
// byte-for-byte identical whichever sort produced the edge order.
TEST(RadixPartitionTest, ReencodedShardsAreByteIdentical) {
  gen::KroneckerParams params;
  params.scale = 12;
  const EdgeList input = gen::KroneckerGenerator(params).generate_all();
  util::ThreadPool pool(4);

  EdgeList fast = input;
  radix_partition_sort(fast, pool);
  EdgeList reference = input;
  sort::parallel_merge_sort(reference, pool);

  const io::StageCodec& codec = io::tsv_codec(io::Codec::kFast);
  io::MemStageStore store;
  io::write_edge_list(store, "fast", fast, 4, codec);
  io::write_edge_list(store, "reference", reference, 4, codec);
  const auto shards = store.list("fast");
  ASSERT_EQ(shards, store.list("reference"));
  for (const auto& shard : shards) {
    std::string fast_bytes;
    std::string ref_bytes;
    for (auto reader = store.open_read("fast", shard);;) {
      const auto chunk = reader->read_chunk();
      if (chunk.empty()) break;
      fast_bytes.append(chunk);
    }
    for (auto reader = store.open_read("reference", shard);;) {
      const auto chunk = reader->read_chunk();
      if (chunk.empty()) break;
      ref_bytes.append(chunk);
    }
    EXPECT_EQ(fast_bytes, ref_bytes) << shard;
  }
}

// ---- kernel 1: shard-parallel write on the parallel backend -------------------

std::string shard_bytes(io::StageStore& store, const std::string& stage,
                        const std::string& shard) {
  return std::string(store.open_read(stage, shard)->view()->chars());
}

// The parallel backend writes each shard_boundaries slice on its own pool
// task; native writes the sorted list through one EdgeBatchWriter. The
// stage files must be the same, byte for byte, for every codec and store
// — including the empty trailing shards of a stage with more shards than
// edges.
TEST(ParallelKernel1Test, ShardsMatchNativeByteForByte) {
  const EdgeList large = random_edges(5000, 1 << 12, 21);
  const EdgeList tiny = {{9, 1}, {3, 4}, {3, 2}};
  const struct {
    std::size_t shards;
    const EdgeList* input;
  } layouts[] = {{1, &large}, {3, &large}, {8, &tiny}};
  core::NativeBackend native;
  core::ParallelBackend parallel(4);
  for (const char* format : {"tsv", "binary"}) {
    for (const char* storage : {"dir", "mem"}) {
      for (const auto& layout : layouts) {
        SCOPED_TRACE(std::string(format) + "/" + storage + "/" +
                     std::to_string(layout.shards) + " shards");
        util::TempDir work("prpb-k1-parity");
        core::PipelineConfig config;
        config.stage_format = format;
        config.storage = storage;
        config.work_dir = work.path();
        config.num_files = layout.shards;
        const auto store = core::make_stage_store(config);
        io::write_edge_list(*store, "k0", *layout.input, 2,
                            core::make_stage_codec(config));
        native.kernel1({config, *store, "k0", "k1_native", "tmp"});
        parallel.kernel1({config, *store, "k0", "k1_parallel", "tmp"});

        const auto shards = store->list("k1_native");
        ASSERT_EQ(shards.size(), layout.shards);
        ASSERT_EQ(store->list("k1_parallel"), shards);
        for (const auto& shard : shards) {
          EXPECT_EQ(shard_bytes(*store, "k1_parallel", shard),
                    shard_bytes(*store, "k1_native", shard))
              << shard;
        }
      }
    }
  }
}

// A shard write that fails on one pool task surfaces from the parallel
// write_edge_list only after every other task has stopped using the
// caller's edges — the TSan/ASan jobs catch a task outliving the frame.
TEST(ParallelKernel1Test, FailedShardWriteSurfacesAfterAllTasksStop) {
  const EdgeList edges = random_edges(20000, 1 << 12, 5);
  util::ThreadPool pool(4);
  for (const char* plan : {"write_error@s#1", "write_error@s#4",
                           "torn_write@s#2"}) {
    io::MemStageStore inner;
    fault::FaultInjectingStageStore store(inner,
                                          fault::FaultPlan::parse(plan, 3));
    EXPECT_THROW(io::write_edge_list(store, "s", edges, 8,
                                     io::binary_codec(), pool),
                 util::TransientIoError)
        << plan;
  }
}

// ---- parallel CSR build: parity with from_edges ------------------------------

TEST(CsrBuildTest, MatchesFromEdgesOnKroneckerGraph) {
  gen::KroneckerParams params;
  params.scale = 12;
  const EdgeList edges = gen::KroneckerGenerator(params).generate_all();
  const std::uint64_t n = std::uint64_t{1} << params.scale;
  util::ThreadPool pool(4);

  const sparse::CsrMatrix fast = build_csr_parallel(edges, n, n, pool);
  const sparse::CsrMatrix reference = sparse::CsrMatrix::from_edges(edges, n, n);
  EXPECT_EQ(fast.row_ptr(), reference.row_ptr());
  EXPECT_EQ(fast.col_idx(), reference.col_idx());
  EXPECT_EQ(fast.values(), reference.values());
}

TEST(CsrBuildTest, MatchesFromEdgesOnSkewedRows) {
  // One supernode row holding most edges: the per-task cursor ranges are
  // wildly unbalanced, which is exactly what the stable scatter must survive.
  EdgeList edges;
  rnd::Xoshiro256 rng(31);
  for (std::size_t i = 0; i < 60000; ++i) {
    edges.push_back({3, rng.next_below(64)});
  }
  for (std::size_t i = 0; i < 5000; ++i) {
    edges.push_back({rng.next_below(256), rng.next_below(256)});
  }
  util::ThreadPool pool(4);
  const sparse::CsrMatrix fast = build_csr_parallel(edges, 256, 256, pool);
  const sparse::CsrMatrix reference =
      sparse::CsrMatrix::from_edges(edges, 256, 256);
  EXPECT_EQ(fast.row_ptr(), reference.row_ptr());
  EXPECT_EQ(fast.col_idx(), reference.col_idx());
  EXPECT_EQ(fast.values(), reference.values());
}

TEST(CsrBuildTest, SmallInputsFallBackToSerialReference) {
  const EdgeList edges = random_edges(100, 16, 37);
  util::ThreadPool pool(4);
  const sparse::CsrMatrix fast = build_csr_parallel(edges, 16, 16, pool);
  const sparse::CsrMatrix reference =
      sparse::CsrMatrix::from_edges(edges, 16, 16);
  EXPECT_TRUE(fast.approx_equal(reference, 0.0));
}

TEST(CsrBuildTest, RejectsOutOfRangeEndpoints) {
  EdgeList edges = random_edges(10000, 64, 41);
  edges[7777] = {64, 0};  // row out of range
  util::ThreadPool pool(4);
  EXPECT_THROW((void)build_csr_parallel(edges, 64, 64, pool), util::Error);
}

TEST(CsrBuildTest, FilteredMatrixMatchesFilterEdges) {
  // End-to-end K2 parity: parallel build + apply_filter vs filter_edges.
  gen::KroneckerParams params;
  params.scale = 10;
  const EdgeList edges = gen::KroneckerGenerator(params).generate_all();
  const std::uint64_t n = std::uint64_t{1} << params.scale;
  util::ThreadPool pool(4);

  sparse::CsrMatrix fast = build_csr_parallel(edges, n, n, pool);
  sparse::apply_filter(fast);
  const sparse::CsrMatrix reference = sparse::filter_edges(edges, n);
  EXPECT_EQ(fast.row_ptr(), reference.row_ptr());
  EXPECT_EQ(fast.col_idx(), reference.col_idx());
  EXPECT_EQ(fast.values(), reference.values());
}

}  // namespace
}  // namespace prpb::perf
