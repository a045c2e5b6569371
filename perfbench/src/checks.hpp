// Output checks made apart from the program. Each check recomputes what a
// kernel or a reply must hold from the kernel's input with the benchmark's
// own code (its own stage parsers, its own filter walk, its own power
// iteration, its own top-k sort), or tests a property the method must
// have. None of them runs the program's kernels, so a kernel that is
// wrong in the same way twice still fails them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gen/edge.hpp"
#include "gen/generator.hpp"
#include "io/stage_store.hpp"
#include "serve/protocol.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

/// Outcome of one check: ok, or the first discrepancy found.
struct Check {
  bool ok = true;
  std::string detail;

  static Check fail(std::string why) { return {false, std::move(why)}; }
};

/// Order-independent 64-bit hash of an edge multiset: a count plus the sum
/// and the xor of a strong per-edge mix, so any lost, added or altered edge
/// changes it whatever the order.
struct EdgeDigest {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t xor_all = 0;

  void add(std::uint64_t u, std::uint64_t v);
  friend bool operator==(const EdgeDigest&, const EdgeDigest&) = default;
};

/// Digest of every edge the generator yields, streamed in bounded chunks
/// (no copy of the whole graph is held).
EdgeDigest digest_generator(const prpb::gen::EdgeGenerator& generator);

/// Reads every shard of `stage` in the store's shard order with the
/// benchmark's own parser for `format` ("tsv": "u<TAB>v<LF>" lines;
/// "binary": the documented header + width-narrowed block layout). Throws
/// std::runtime_error on bytes that are not a valid stage.
prpb::gen::EdgeList read_stage(prpb::io::StageStore& store,
                               const std::string& stage,
                               const std::string& format);

/// K1: `sorted` is non-decreasing by (start, end) across the whole stage
/// and holds exactly the generated multiset.
Check check_k1(const prpb::gen::EdgeList& sorted, const EdgeDigest& generated);

/// Relative tolerance on K2 matrix values and row sums.
inline constexpr double kK2Tolerance = 1e-12;

/// K2: walks the sorted edges, recomputes in-degrees, drops the super-node
/// columns (in-degree == max) and leaf columns (in-degree == 1), and
/// confirms every stored entry is count(u,v)/dout(u) over the kept columns,
/// with no other entries, and that every non-empty row sums to 1.
Check check_k2(const prpb::gen::EdgeList& sorted, std::uint64_t n,
               const prpb::sparse::CsrMatrix& matrix);

/// The paper's update r = c·(r·A) + (1-c)·sum(r)/N, run `iterations` times
/// from `start` with the benchmark's own row-vector product.
std::vector<double> reference_pagerank(const prpb::sparse::CsrMatrix& a,
                                       std::vector<double> start,
                                       int iterations, double damping);

/// Relative L1 tolerance between the program's ranks and the reference.
inline constexpr double kK3Tolerance = 1e-9;

/// K3: ||ranks - reference||_1 <= kK3Tolerance · ||reference||_1. No bit
/// identity is required, so a kernel that reorders its sums still passes.
Check check_k3(const std::vector<double>& ranks,
               const std::vector<double>& reference);

/// What the serving replies are checked against: the served matrix and
/// ranks plus the benchmark's own rank order.
class ServingTruth {
 public:
  ServingTruth(const prpb::sparse::CsrMatrix& matrix,
               const std::vector<double>& ranks, double damping);

  /// Checks one reply. Subset ppr replies run the benchmark's own
  /// personalized iteration, so callers check a sample of them.
  [[nodiscard]] Check check(const prpb::serve::Request& request,
                            const prpb::serve::Response& response) const;

 private:
  [[nodiscard]] Check check_ppr(const prpb::serve::PprRequest& request,
                                const prpb::serve::PprReply& reply) const;

  const prpb::sparse::CsrMatrix& matrix_;
  const std::vector<double>& ranks_;
  double damping_;
  std::vector<std::uint64_t> by_rank_;  // rank descending, lower id first
  std::uint64_t rank_digest_ = 0;
};

}  // namespace perfbench
