// Tests of the benchmark's output checks: each passes on the program's own
// outputs at a small scale and fails on a seeded corruption of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>

#include "checks.hpp"
#include "core/backend.hpp"
#include "core/runner.hpp"
#include "serve/service.hpp"
#include "sparse/pagerank.hpp"

namespace {

using namespace prpb;
using perfbench::Check;

struct Outputs {
  core::PipelineConfig config;
  io::MemStageStore store;
  core::PipelineResult result;
  gen::EdgeList sorted;
  perfbench::EdgeDigest generated;
};

std::unique_ptr<Outputs> run(const std::string& backend,
                             const std::string& format) {
  auto out = std::make_unique<Outputs>();
  out->config.scale = 10;
  out->config.num_files = 3;
  out->config.storage = "mem";
  out->config.stage_format = format;
  core::RunOptions options;
  options.store = &out->store;
  out->result = core::run_pipeline(out->config, *core::make_backend(backend),
                                   options);
  out->sorted = perfbench::read_stage(out->store, core::stages::kStage1, format);
  out->generated = perfbench::digest_generator(*gen::make_generator(
      "kronecker", out->config.scale, out->config.edge_factor,
      out->config.seed));
  return out;
}

const Outputs& native() {
  static const std::unique_ptr<Outputs> outputs = run("native", "tsv");
  return *outputs;
}

std::vector<double> reference(const Outputs& o) {
  return perfbench::reference_pagerank(
      o.result.matrix,
      sparse::pagerank_initial_vector(o.config.num_vertices(), o.config.seed),
      o.config.iterations, o.config.damping);
}

TEST(Checks, PassOnTheProgramsOutputs) {
  const Outputs& o = native();
  EXPECT_TRUE(perfbench::check_k1(o.sorted, o.generated).ok);
  EXPECT_TRUE(perfbench::check_k2(o.sorted, o.config.num_vertices(),
                                  o.result.matrix).ok);
  EXPECT_TRUE(perfbench::check_k3(o.result.ranks, reference(o)).ok);
}

TEST(Checks, BinaryStagesParseToTheSameEdgesAndPass) {
  const auto o = run("parallel", "binary");
  EXPECT_EQ(o->sorted, native().sorted);
  EXPECT_TRUE(perfbench::check_k1(o->sorted, o->generated).ok);
  EXPECT_TRUE(perfbench::check_k2(o->sorted, o->config.num_vertices(),
                                  o->result.matrix).ok);
  // The parallel K3 adds in another order; the tolerance admits it.
  EXPECT_TRUE(perfbench::check_k3(o->result.ranks, reference(*o)).ok);
}

TEST(Checks, K1CatchesTwoSwappedEdges) {
  gen::EdgeList sorted = native().sorted;
  const auto differs = std::adjacent_find(
      sorted.begin(), sorted.end(), std::not_equal_to<>());
  ASSERT_NE(differs, sorted.end());
  std::iter_swap(differs, differs + 1);
  const Check check = perfbench::check_k1(sorted, native().generated);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.detail.find("sorts before"), std::string::npos);
}

TEST(Checks, K1CatchesAnAlteredEdgeThatKeepsTheOrder) {
  gen::EdgeList sorted = native().sorted;
  sorted.back().v += 1;
  EXPECT_FALSE(perfbench::check_k1(sorted, native().generated).ok);
  sorted.pop_back();
  EXPECT_FALSE(perfbench::check_k1(sorted, native().generated).ok);
}

TEST(Checks, K2CatchesOnePerturbedValue) {
  sparse::CsrMatrix matrix = native().result.matrix;
  ASSERT_GT(matrix.nnz(), 10u);
  matrix.mutable_values()[matrix.nnz() / 2] *= 1.0 + 1e-9;
  const Check check = perfbench::check_k2(
      native().sorted, native().config.num_vertices(), matrix);
  EXPECT_FALSE(check.ok);
  EXPECT_NE(check.detail.find("holds"), std::string::npos);
}

TEST(Checks, K3CatchesOnePerturbedRank) {
  std::vector<double> ranks = native().result.ranks;
  ranks[ranks.size() / 3] *= 1.0 + 1e-4;
  EXPECT_FALSE(perfbench::check_k3(ranks, reference(native())).ok);
}

class ServingChecks : public ::testing::Test {
 protected:
  ServingChecks()
      : service_(native().result.matrix, native().result.ranks,
                 options()),
        truth_(native().result.matrix, native().result.ranks,
               native().config.damping) {}

  static serve::ServiceOptions options() {
    serve::ServiceOptions o;
    o.seed = native().config.seed;
    return o;
  }

  serve::Response ask(const serve::Request& request) const {
    return serve::decode_response(service_.handle(request));
  }

  serve::RankService service_;
  perfbench::ServingTruth truth_;
};

TEST_F(ServingChecks, CatchOneWrongTopkEntry) {
  serve::Request request;
  request.id = 7;
  request.opcode = serve::Opcode::kTopk;
  request.topk_k = 10;
  serve::Response response = ask(request);
  EXPECT_TRUE(truth_.check(request, response).ok);
  std::swap(response.entries[3], response.entries[4]);
  EXPECT_FALSE(truth_.check(request, response).ok);
}

TEST_F(ServingChecks, CatchWrongRankAndNeighborReplies) {
  serve::Request rank;
  rank.id = 1;
  rank.opcode = serve::Opcode::kRank;
  rank.vertex = 5;
  serve::Response reply = ask(rank);
  EXPECT_TRUE(truth_.check(rank, reply).ok);
  reply.rank *= 1.0 + 1e-15;
  EXPECT_FALSE(truth_.check(rank, reply).ok);

  serve::Request neighbors;
  neighbors.id = 2;
  neighbors.opcode = serve::Opcode::kNeighbors;
  const auto& row_ptr = native().result.matrix.row_ptr();
  while (row_ptr[neighbors.vertex + 1] == row_ptr[neighbors.vertex]) {
    ++neighbors.vertex;
  }
  reply = ask(neighbors);
  EXPECT_TRUE(truth_.check(neighbors, reply).ok);
  reply.entries[0].rank *= 1.0 + 1e-9;
  EXPECT_FALSE(truth_.check(neighbors, reply).ok);
}

TEST_F(ServingChecks, PprRepliesMatchTheReferenceAndCatchAWrongEntry) {
  serve::Request full;
  full.id = 3;
  full.opcode = serve::Opcode::kPpr;
  full.ppr.iterations = 20;
  full.ppr.topk = 10;
  serve::Response reply = ask(full);
  EXPECT_TRUE(truth_.check(full, reply).ok);
  reply.ppr.digest ^= 1;
  EXPECT_FALSE(truth_.check(full, reply).ok);

  serve::Request subset = full;
  subset.ppr.iterations = 3;
  subset.ppr.restart = {3, 99, 700, 99};
  reply = ask(subset);
  EXPECT_TRUE(truth_.check(subset, reply).ok);
  reply.ppr.top[2].rank *= 1.0 + 1e-6;
  EXPECT_FALSE(truth_.check(subset, reply).ok);
}

}  // namespace
