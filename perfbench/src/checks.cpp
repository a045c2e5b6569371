#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "core/checksum.hpp"

namespace perfbench {

namespace pg = prpb::gen;
namespace ps = prpb::serve;

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::string edge_text(std::uint64_t u, std::uint64_t v) {
  char text[48];
  std::snprintf(text, sizeof text, "(%llu, %llu)", static_cast<unsigned long long>(u),
                static_cast<unsigned long long>(v));
  return text;
}

void parse_tsv(std::string_view bytes, const std::string& shard,
               pg::EdgeList& out) {
  std::size_t pos = 0;
  const auto number = [&](char end) {
    std::uint64_t value = 0;
    const std::size_t start = pos;
    while (pos < bytes.size() && bytes[pos] >= '0' && bytes[pos] <= '9') {
      value = value * 10 + static_cast<std::uint64_t>(bytes[pos] - '0');
      ++pos;
    }
    if (pos == start || pos - start > 19 || pos >= bytes.size() ||
        bytes[pos] != end) {
      throw std::runtime_error("shard " + shard + ": bad TSV record at byte " +
                               std::to_string(start));
    }
    ++pos;
    return value;
  };
  while (pos < bytes.size()) {
    const std::uint64_t u = number('\t');
    const std::uint64_t v = number('\n');
    out.push_back({u, v});
  }
}

std::uint64_t read_le(const unsigned char* p, std::size_t width) {
  std::uint64_t value = 0;
  for (std::size_t i = 0; i < width; ++i) {
    value |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  }
  return value;
}

void parse_binary(std::string_view bytes, const std::string& shard,
                  pg::EdgeList& out) {
  if (bytes.empty()) return;  // empty padding shard
  const auto* p = reinterpret_cast<const unsigned char*>(bytes.data());
  const std::size_t size = bytes.size();
  if (size < 8 || std::memcmp(p, "PRPB", 4) != 0 || p[4] != 1) {
    throw std::runtime_error("shard " + shard + ": bad binary header");
  }
  std::size_t pos = 8;
  while (pos < size) {
    if (size - pos < 16) {
      throw std::runtime_error("shard " + shard + ": truncated block header");
    }
    const std::uint64_t count = read_le(p + pos, 8);
    const std::size_t wu = p[pos + 8];
    const std::size_t wv = p[pos + 9];
    const auto valid_width = [](std::size_t w) {
      return w == 1 || w == 2 || w == 4 || w == 8;
    };
    if (!valid_width(wu) || !valid_width(wv) ||
        count > (size - pos - 16) / (wu + wv)) {
      throw std::runtime_error("shard " + shard + ": bad block at byte " +
                               std::to_string(pos));
    }
    const unsigned char* su = p + pos + 16;
    const unsigned char* sv = su + count * wu;
    for (std::uint64_t i = 0; i < count; ++i) {
      out.push_back({read_le(su + i * wu, wu), read_le(sv + i * wv, wv)});
    }
    pos += 16 + count * (wu + wv);
  }
}

}  // namespace

void EdgeDigest::add(std::uint64_t u, std::uint64_t v) {
  const std::uint64_t h = mix64(mix64(u) ^ (v * 0xd6e8feb86659fd93ULL));
  ++count;
  sum += h;
  xor_all ^= h;
}

EdgeDigest digest_generator(const pg::EdgeGenerator& generator) {
  constexpr std::uint64_t kChunk = 1 << 20;
  EdgeDigest digest;
  pg::EdgeList chunk;
  for (std::uint64_t begin = 0; begin < generator.num_edges(); begin += kChunk) {
    chunk.clear();
    generator.generate_range(begin,
                             std::min(generator.num_edges(), begin + kChunk),
                             chunk);
    for (const pg::Edge& e : chunk) digest.add(e.u, e.v);
  }
  return digest;
}

pg::EdgeList read_stage(prpb::io::StageStore& store, const std::string& stage,
                        const std::string& format) {
  if (format != "tsv" && format != "binary") {
    throw std::runtime_error("read_stage: unknown format " + format);
  }
  pg::EdgeList edges;
  for (const std::string& shard : store.list(stage)) {
    const auto view = store.open_read(stage, shard)->view();
    if (format == "tsv") {
      parse_tsv(view->chars(), shard, edges);
    } else {
      parse_binary(view->chars(), shard, edges);
    }
  }
  return edges;
}

Check check_k1(const pg::EdgeList& sorted, const EdgeDigest& generated) {
  EdgeDigest digest;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    const pg::Edge& e = sorted[i];
    if (i > 0 && e < sorted[i - 1]) {
      return Check::fail("K1: edge " + std::to_string(i) + " " +
                         edge_text(e.u, e.v) + " sorts before its predecessor " +
                         edge_text(sorted[i - 1].u, sorted[i - 1].v));
    }
    digest.add(e.u, e.v);
  }
  if (digest.count != generated.count) {
    return Check::fail("K1: " + std::to_string(digest.count) +
                       " edges, the generator made " +
                       std::to_string(generated.count));
  }
  if (!(digest == generated)) {
    return Check::fail("K1: the sorted edges are not the generated multiset");
  }
  return {};
}

Check check_k2(const pg::EdgeList& sorted, std::uint64_t n,
               const prpb::sparse::CsrMatrix& matrix) {
  if (matrix.rows() != n || matrix.cols() != n) {
    return Check::fail("K2: matrix is " + std::to_string(matrix.rows()) + "x" +
                       std::to_string(matrix.cols()) + ", expected " +
                       std::to_string(n) + "x" + std::to_string(n));
  }
  std::vector<std::uint64_t> din(n, 0);
  for (const pg::Edge& e : sorted) {
    if (e.u >= n || e.v >= n) return Check::fail("K2: vertex id out of range");
    ++din[e.v];
  }
  const std::uint64_t max_din =
      din.empty() ? 0 : *std::max_element(din.begin(), din.end());
  const auto kept = [&](std::uint64_t v) {
    return din[v] != max_din && din[v] != 1;
  };

  const auto& row_ptr = matrix.row_ptr();
  const auto& col = matrix.col_idx();
  const auto& val = matrix.values();
  std::vector<std::pair<std::uint64_t, std::uint64_t>> row;  // (col, count)
  std::size_t i = 0;
  for (std::uint64_t u = 0; u < n; ++u) {
    row.clear();
    std::uint64_t dout = 0;
    for (; i < sorted.size() && sorted[i].u == u; ++i) {
      const std::uint64_t v = sorted[i].v;
      if (!kept(v)) continue;
      ++dout;
      if (!row.empty() && row.back().first == v) {
        ++row.back().second;
      } else {
        row.emplace_back(v, 1);
      }
    }
    const std::uint64_t begin = row_ptr[u];
    const std::uint64_t stored = row_ptr[u + 1] - begin;
    if (stored != row.size()) {
      return Check::fail("K2: row " + std::to_string(u) + " stores " +
                         std::to_string(stored) + " entries, expected " +
                         std::to_string(row.size()));
    }
    double row_sum = 0.0;
    for (std::size_t k = 0; k < row.size(); ++k) {
      const double expected = static_cast<double>(row[k].second) /
                              static_cast<double>(dout);
      const double got = val[begin + k];
      if (col[begin + k] != row[k].first ||
          std::abs(got - expected) > kK2Tolerance * expected) {
        return Check::fail("K2: entry " + edge_text(u, row[k].first) +
                           " holds " + std::to_string(got) + ", expected " +
                           std::to_string(expected));
      }
      row_sum += got;
    }
    if (!row.empty() &&
        std::abs(row_sum - 1.0) >
            kK2Tolerance * static_cast<double>(row.size())) {
      return Check::fail("K2: row " + std::to_string(u) + " sums to " +
                         std::to_string(row_sum));
    }
  }
  if (i != sorted.size()) {
    return Check::fail("K2: the sorted edges are not ordered by start vertex");
  }
  return {};
}

std::vector<double> reference_pagerank(const prpb::sparse::CsrMatrix& a,
                                       std::vector<double> r, int iterations,
                                       double damping) {
  const std::uint64_t n = a.rows();
  const auto& row_ptr = a.row_ptr();
  const auto& col = a.col_idx();
  const auto& val = a.values();
  std::vector<double> y(n);
  for (int it = 0; it < iterations; ++it) {
    double sum = 0.0;
    for (const double x : r) sum += x;
    std::fill(y.begin(), y.end(), 0.0);
    for (std::uint64_t u = 0; u < n; ++u) {
      for (std::uint64_t k = row_ptr[u]; k < row_ptr[u + 1]; ++k) {
        y[col[k]] += r[u] * val[k];
      }
    }
    const double teleport = (1.0 - damping) * sum / static_cast<double>(n);
    for (std::uint64_t v = 0; v < n; ++v) r[v] = damping * y[v] + teleport;
  }
  return r;
}

Check check_k3(const std::vector<double>& ranks,
               const std::vector<double>& reference) {
  if (ranks.size() != reference.size()) {
    return Check::fail("K3: " + std::to_string(ranks.size()) +
                       " ranks, expected " + std::to_string(reference.size()));
  }
  double diff = 0.0;
  double norm = 0.0;
  for (std::size_t v = 0; v < ranks.size(); ++v) {
    diff += std::abs(ranks[v] - reference[v]);
    norm += std::abs(reference[v]);
  }
  if (!(diff <= kK3Tolerance * norm)) {
    return Check::fail("K3: ranks differ from the reference iteration by " +
                       std::to_string(diff / norm) + " (relative L1)");
  }
  return {};
}

ServingTruth::ServingTruth(const prpb::sparse::CsrMatrix& matrix,
                           const std::vector<double>& ranks, double damping)
    : matrix_(matrix),
      ranks_(ranks),
      damping_(damping),
      by_rank_(ranks.size()),
      rank_digest_(prpb::core::rank_digest(ranks)) {
  for (std::uint64_t v = 0; v < by_rank_.size(); ++v) by_rank_[v] = v;
  std::sort(by_rank_.begin(), by_rank_.end(),
            [&](std::uint64_t a, std::uint64_t b) {
              return ranks[a] != ranks[b] ? ranks[a] > ranks[b] : a < b;
            });
}

Check ServingTruth::check(const ps::Request& request,
                          const ps::Response& response) const {
  const std::string what = std::string(ps::opcode_name(request.opcode)) +
                           " request " + std::to_string(request.id);
  if (response.id != request.id) return Check::fail(what + ": reply id differs");
  if (!response.ok()) {
    return Check::fail(what + ": status " + ps::status_name(response.status) +
                       " " + response.error);
  }
  switch (request.opcode) {
    case ps::Opcode::kTopk: {
      const std::size_t k =
          std::min<std::size_t>(request.topk_k, by_rank_.size());
      if (response.entries.size() != k) {
        return Check::fail(what + ": " + std::to_string(response.entries.size()) +
                           " entries, expected " + std::to_string(k));
      }
      for (std::size_t i = 0; i < k; ++i) {
        const ps::RankEntry& e = response.entries[i];
        if (e.vertex != by_rank_[i] || e.rank != ranks_[by_rank_[i]]) {
          return Check::fail(what + ": entry " + std::to_string(i) + " is " +
                             std::to_string(e.vertex) + ", expected " +
                             std::to_string(by_rank_[i]));
        }
      }
      return {};
    }
    case ps::Opcode::kRank:
      if (request.vertex >= ranks_.size() ||
          response.rank != ranks_[request.vertex]) {
        return Check::fail(what + ": wrong rank for vertex " +
                           std::to_string(request.vertex));
      }
      return {};
    case ps::Opcode::kNeighbors: {
      const auto& row_ptr = matrix_.row_ptr();
      const std::uint64_t u = request.vertex;
      if (u >= matrix_.rows()) return Check::fail(what + ": vertex out of range");
      const std::uint64_t begin = row_ptr[u];
      if (response.entries.size() != row_ptr[u + 1] - begin) {
        return Check::fail(what + ": wrong neighbor count");
      }
      for (std::size_t k = 0; k < response.entries.size(); ++k) {
        const std::uint64_t v = matrix_.col_idx()[begin + k];
        const double weight = matrix_.values()[begin + k] * ranks_[v];
        const ps::RankEntry& e = response.entries[k];
        if (e.vertex != v || std::abs(e.rank - weight) > 1e-12 * weight) {
          return Check::fail(what + ": neighbor " + std::to_string(k) +
                             " of vertex " + std::to_string(u) + " differs");
        }
      }
      return {};
    }
    case ps::Opcode::kPpr: {
      Check result = check_ppr(request.ppr, response.ppr);
      if (!result.ok) result.detail = what + ": " + result.detail;
      return result;
    }
    default:
      return {};
  }
}

Check ServingTruth::check_ppr(const ps::PprRequest& request,
                              const ps::PprReply& reply) const {
  const std::uint64_t n = ranks_.size();
  std::vector<std::uint64_t> restart = request.restart;
  std::sort(restart.begin(), restart.end());
  restart.erase(std::unique(restart.begin(), restart.end()), restart.end());
  const bool full = restart.empty() || restart.size() == n;
  if (reply.iterations_run != request.iterations) {
    return Check::fail("ran " + std::to_string(reply.iterations_run) +
                       " iterations, asked for " +
                       std::to_string(request.iterations));
  }
  if (full) {
    // The full restart set is the paper's own update: K3's ranks.
    if (reply.digest != rank_digest_) {
      return Check::fail("full-restart digest differs from K3's ranks");
    }
    for (std::size_t i = 0; i < reply.top.size(); ++i) {
      if (reply.top[i].vertex != by_rank_[i]) {
        return Check::fail("full-restart top entry " + std::to_string(i) +
                           " differs from K3's order");
      }
    }
    return {};
  }
  // Personalized iteration from e_S/|S|, teleporting only into S.
  const auto& row_ptr = matrix_.row_ptr();
  const auto& col = matrix_.col_idx();
  const auto& val = matrix_.values();
  const double share = 1.0 / static_cast<double>(restart.size());
  std::vector<double> r(n, 0.0);
  std::vector<double> y(n);
  for (const std::uint64_t s : restart) r[s] = share;
  for (std::uint32_t it = 0; it < request.iterations; ++it) {
    double sum = 0.0;
    for (const double x : r) sum += x;
    std::fill(y.begin(), y.end(), 0.0);
    for (std::uint64_t u = 0; u < n; ++u) {
      if (r[u] == 0.0) continue;
      for (std::uint64_t k = row_ptr[u]; k < row_ptr[u + 1]; ++k) {
        y[col[k]] += r[u] * val[k];
      }
    }
    for (std::uint64_t v = 0; v < n; ++v) r[v] = damping_ * y[v];
    for (const std::uint64_t s : restart) r[s] += (1.0 - damping_) * sum * share;
  }
  std::vector<double> top(r);
  const std::size_t k = std::min<std::size_t>(request.topk, n);
  if (reply.top.size() != k) return Check::fail("wrong top-k length");
  std::partial_sort(top.begin(), top.begin() + static_cast<std::ptrdiff_t>(k),
                    top.end(), std::greater<>());
  constexpr double kTol = 1e-9;
  for (std::size_t i = 0; i < k; ++i) {
    const ps::RankEntry& e = reply.top[i];
    if (e.vertex >= n || std::abs(e.rank - r[e.vertex]) > kTol * top[0] ||
        std::abs(e.rank - top[i]) > kTol * top[0]) {
      return Check::fail("personalized entry " + std::to_string(i) +
                         " differs from the reference iteration");
    }
  }
  return {};
}

}  // namespace perfbench
