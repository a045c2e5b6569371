// Load generators for the rank server.
//
// Open loop: a Poisson arrival schedule drawn from the request seed is
// split round-robin over a few long-lived connections. Each connection has
// a sender that writes every request at its scheduled instant, without
// waiting for earlier replies, and a receiver that matches replies by
// request id. Latency runs from the scheduled instant, so a stall that
// delays later sends is charged to them; how late the sender ran is
// reported apart as generator lag.
//
// Churn: closed-loop client threads, each repeating a session of connect,
// a few light queries and close.
//
// Replies are kept and verified after the timed window.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "serve/protocol.hpp"

namespace perfbench {

/// One scheduled request: send at `at_s` seconds after the phase start.
struct Planned {
  double at_s = 0.0;
  prpb::serve::Request request;
};

/// `count` requests with exponential gaps at `rate` per second, drawn from
/// `seed`, in the mix topk:45, rank:30, neighbors:20, ppr:5. topk asks for
/// 10; rank and neighbors pick a uniform vertex; ppr runs 3 iterations from
/// 8 uniform restart vertices and returns a top 10. Request ids are
/// 1..count in schedule order.
std::vector<Planned> poisson_plan(std::uint64_t seed, double rate,
                                  std::size_t count, std::uint64_t vertices);

inline constexpr double kUnanswered = std::numeric_limits<double>::infinity();

/// Per-request outcome of an open-loop phase, indexed like the plan.
struct OpenLoopResult {
  std::vector<prpb::serve::Status> status;  ///< meaningful where answered
  std::vector<double> latency_ms;  ///< reply - scheduled; kUnanswered if none
  std::vector<double> lag_ms;      ///< send - scheduled
  /// The replies asked for by `keep`, default-constructed elsewhere.
  std::vector<prpb::serve::Response> kept;
  double seconds = 0.0;            ///< phase start to the last reply
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;    ///< kOverloaded replies (retryable)
  std::uint64_t failed = 0;  ///< error replies, lost or undecodable replies

  /// Latencies of one class: light ops, or ppr. A shed or failed request of
  /// the class counts as missing any limit (infinite latency).
  [[nodiscard]] std::vector<double> class_latency(
      const std::vector<Planned>& plan, bool ppr) const;
};

/// Drives `plan` open-loop over `connections` connections to the server on
/// 127.0.0.1:`port`, keeping the replies whose `keep` entry is true.
OpenLoopResult run_open_loop(std::uint16_t port,
                             const std::vector<Planned>& plan,
                             unsigned connections,
                             const std::vector<bool>& keep);

/// A churn session's queries and replies, kept for verification.
struct SessionRecord {
  prpb::serve::Request request[3];
  prpb::serve::Response response[3];
};

struct ChurnResult {
  std::uint64_t sessions = 0;   ///< sessions completed
  std::uint64_t failed = 0;     ///< sessions that hit an error
  double seconds = 0.0;
  std::vector<double> connect_us;  ///< connect start to first reply
  std::vector<SessionRecord> records;
};

/// `threads` closed-loop clients together run `sessions` sessions of:
/// connect, rank(v), topk(10), neighbors(w), close.
ChurnResult run_churn(std::uint16_t port, unsigned threads,
                      std::uint64_t sessions, std::uint64_t vertices,
                      std::uint64_t seed);

}  // namespace perfbench
