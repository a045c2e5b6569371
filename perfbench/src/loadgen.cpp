#include "loadgen.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <exception>
#include <string>
#include <thread>

#include "measure.hpp"
#include "rand/rng.hpp"
#include "serve/client.hpp"

namespace perfbench {

namespace ps = prpb::serve;

std::vector<Planned> poisson_plan(std::uint64_t seed, double rate,
                                  std::size_t count, std::uint64_t vertices) {
  constexpr std::uint32_t kTopk = 10;
  constexpr std::uint32_t kPprIterations = 3;
  constexpr std::uint32_t kPprRestart = 8;
  prpb::rnd::Xoshiro256 rng(seed);
  std::vector<Planned> plan(count);
  double at = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    at += -std::log(1.0 - rng.next_double()) / rate;
    Planned& p = plan[i];
    p.at_s = at;
    p.request.id = static_cast<std::uint32_t>(i + 1);
    const std::uint64_t pick = rng.next_below(100);
    if (pick < 45) {
      p.request.opcode = ps::Opcode::kTopk;
      p.request.topk_k = kTopk;
    } else if (pick < 75) {
      p.request.opcode = ps::Opcode::kRank;
      p.request.vertex = rng.next_below(vertices);
    } else if (pick < 95) {
      p.request.opcode = ps::Opcode::kNeighbors;
      p.request.vertex = rng.next_below(vertices);
    } else {
      p.request.opcode = ps::Opcode::kPpr;
      p.request.ppr.iterations = kPprIterations;
      p.request.ppr.topk = kTopk;
      for (std::uint32_t r = 0; r < kPprRestart; ++r) {
        p.request.ppr.restart.push_back(rng.next_below(vertices));
      }
    }
  }
  return plan;
}

std::vector<double> OpenLoopResult::class_latency(
    const std::vector<Planned>& plan, bool ppr) const {
  std::vector<double> out;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    if ((plan[i].request.opcode == ps::Opcode::kPpr) != ppr) continue;
    const bool ok = latency_ms[i] != kUnanswered && status[i] == ps::Status::kOk;
    out.push_back(ok ? latency_ms[i] : kUnanswered);
  }
  return out;
}

OpenLoopResult run_open_loop(std::uint16_t port,
                             const std::vector<Planned>& plan,
                             unsigned connections,
                             const std::vector<bool>& keep) {
  using Clock = std::chrono::steady_clock;
  OpenLoopResult result;
  const std::size_t n = plan.size();
  result.status.resize(n);
  result.kept.resize(n);
  result.latency_ms.assign(n, kUnanswered);
  result.lag_ms.assign(n, 0.0);
  std::vector<ps::RankClient> clients;
  for (unsigned c = 0; c < connections; ++c) clients.emplace_back(port);
  std::vector<std::uint64_t> lost(connections, 0);

  // Start slightly in the future so every sender is parked when it begins.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const auto since_start_ms = [&](Clock::time_point t) {
    return std::chrono::duration<double, std::milli>(t - start).count();
  };
  std::vector<std::thread> threads;
  for (unsigned c = 0; c < connections; ++c) {
    threads.emplace_back([&, c] {  // sender
      try {
        for (std::size_t i = c; i < n; i += connections) {
          const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(plan[i].at_s));
          std::this_thread::sleep_until(due);
          clients[c].send_raw_frame(ps::encode_request(plan[i].request));
          result.lag_ms[i] = since_start_ms(Clock::now()) - 1e3 * plan[i].at_s;
        }
      } catch (const std::exception&) {
        // The receiver sees the connection end and counts what is missing.
      }
    });
    threads.emplace_back([&, c] {  // receiver
      std::uint64_t expected = 0;
      for (std::size_t i = c; i < n; i += connections) ++expected;
      std::uint64_t got = 0;
      try {
        while (got < expected) {
          const auto frame = clients[c].read_raw_frame();
          if (!frame) break;
          const auto now = Clock::now();
          ps::Response response = ps::decode_response(*frame);
          const std::size_t i = response.id - 1;
          if (response.id == 0 || i >= n || i % connections != c) break;
          result.latency_ms[i] = since_start_ms(now) - 1e3 * plan[i].at_s;
          result.status[i] = response.status;
          if (keep[i]) result.kept[i] = std::move(response);
          ++got;
        }
      } catch (const std::exception&) {
      }
      lost[c] = expected - got;
    });
  }
  for (std::thread& t : threads) t.join();

  double last_ms = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (result.latency_ms[i] == kUnanswered) continue;
    last_ms = std::max(last_ms, 1e3 * plan[i].at_s + result.latency_ms[i]);
    if (result.status[i] == ps::Status::kOk) {
      ++result.ok;
    } else if (result.status[i] == ps::Status::kOverloaded) {
      ++result.shed;
    } else {
      ++result.failed;
    }
  }
  for (const std::uint64_t l : lost) result.failed += l;
  result.seconds = last_ms / 1e3;
  return result;
}

ChurnResult run_churn(std::uint16_t port, unsigned threads,
                      std::uint64_t sessions, std::uint64_t vertices,
                      std::uint64_t seed) {
  ChurnResult result;
  std::atomic<std::uint64_t> started{0};
  std::vector<ChurnResult> mine(threads);
  const double t0 = now_s();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      ChurnResult& out = mine[t];
      for (std::uint64_t s; (s = started.fetch_add(1)) < sessions;) {
        // Queries depend on the session's number, not on which thread ran it.
        prpb::rnd::Xoshiro256 rng(seed + 0x9e3779b97f4a7c15ULL * (s + 1));
        SessionRecord record;
        record.request[0].opcode = ps::Opcode::kRank;
        record.request[0].vertex = rng.next_below(vertices);
        record.request[1].opcode = ps::Opcode::kTopk;
        record.request[1].topk_k = 10;
        record.request[2].opcode = ps::Opcode::kNeighbors;
        record.request[2].vertex = rng.next_below(vertices);
        try {
          const double begin = now_s();
          ps::RankClient client(port);
          for (int q = 0; q < 3; ++q) {
            record.request[q].id = static_cast<std::uint32_t>(q + 1);
            record.response[q] = client.request(record.request[q]);
            if (q == 0) out.connect_us.push_back(1e6 * (now_s() - begin));
          }
          ++out.sessions;
          out.records.push_back(std::move(record));
        } catch (const std::exception&) {
          ++out.failed;
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  result.seconds = now_s() - t0;
  for (ChurnResult& m : mine) {
    result.sessions += m.sessions;
    result.failed += m.failed;
    result.connect_us.insert(result.connect_us.end(), m.connect_us.begin(),
                             m.connect_us.end());
    for (SessionRecord& r : m.records) result.records.push_back(std::move(r));
  }
  return result;
}

}  // namespace perfbench
