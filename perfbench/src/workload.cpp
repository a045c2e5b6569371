#include "workload.hpp"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>

#include "checks.hpp"
#include "core/backend.hpp"
#include "core/runner.hpp"
#include "gen/generator.hpp"
#include "io/edge_batch.hpp"
#include "loadgen.hpp"
#include "measure.hpp"
#include "model/hardware.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "sort/edge_sort.hpp"
#include "sparse/filter.hpp"
#include "sparse/pagerank.hpp"
#include "util/threadpool.hpp"

namespace perfbench {

namespace core = prpb::core;
namespace ps = prpb::serve;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> w(4);
    w[0].name = "pipeline-native-tsv";
    w[0].scale = 18;
    w[0].backend = "native";
    w[0].stage_format = "tsv";
    w[0].storage = "dir";
    w[0].pass_share = 0.75;
    w[0].open_share = 0.08;
    w[0].open_rate = 400;
    w[0].churn_sessions = 2000;

    w[1] = w[0];
    w[1].name = "pipeline-parallel-binary";
    w[1].backend = "parallel";
    w[1].stage_format = "binary";
    w[1].storage = "mem";

    w[2].name = "serve-mixed-open";
    w[2].scale = 16;
    w[2].backend = "native";
    w[2].stage_format = "tsv";
    w[2].storage = "mem";
    w[2].serve_setup = true;
    w[2].pass_share = 0.5;
    w[2].open_share = 0.2;
    w[2].open_rate = 2000;
    w[2].churn_sessions = 2000;

    w[3] = w[2];
    w[3].name = "serve-churn";
    w[3].open_share = 0.1;
    w[3].churn_sessions = 8000;
    return w;
  }();
  return specs;
}

const WorkloadSpec& find_workload(const std::string& name) {
  std::string names;
  for (const WorkloadSpec& spec : workloads()) {
    if (spec.name == name) return spec;
    names += (names.empty() ? "" : ", ") + spec.name;
  }
  throw std::invalid_argument("unknown workload '" + name + "' (valid: " +
                              names + ")");
}

namespace {

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t x = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

/// p99 of the server's queue-wait histogram between two snapshots,
/// interpolated inside the bucket that holds it.
double histogram_p99(const prpb::obs::HistogramSnapshot& before,
                     const prpb::obs::HistogramSnapshot& after) {
  std::vector<std::uint64_t> counts(after.counts.size(), 0);
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    counts[b] = after.counts[b] - (b < before.counts.size() ? before.counts[b] : 0);
    total += counts[b];
  }
  if (total == 0) return 0.0;
  const double target = 0.99 * static_cast<double>(total);
  double seen = 0.0;
  for (std::size_t b = 0; b < counts.size(); ++b) {
    const double next = seen + static_cast<double>(counts[b]);
    if (next >= target) {
      if (b >= after.bounds.size()) return after.bounds.back();
      const double lo = b == 0 ? 0.0 : after.bounds[b - 1];
      const double hi = after.bounds[b];
      return lo + (hi - lo) * (target - seen) / static_cast<double>(counts[b]);
    }
    seen = next;
  }
  return after.bounds.back();
}

/// One timed K1→K2→K3 pass.
struct Pass {
  double wall = 0, k1 = 0, k2 = 0, k3 = 0;
  double k1_cpu = 0, k2_cpu = 0, k3_cpu = 0;
  bool traced = false;
};

struct Serving {
  std::unique_ptr<ps::RankService> service;
  std::unique_ptr<ps::RankServer> server;
};

Serving start_serving(prpb::sparse::CsrMatrix matrix, std::vector<double> ranks,
                      const core::PipelineConfig& config,
                      prpb::obs::MetricsRegistry* metrics) {
  ps::ServiceOptions service_options;
  service_options.iterations = config.iterations;
  service_options.damping = config.damping;
  service_options.seed = config.seed;
  Serving s;
  s.service = std::make_unique<ps::RankService>(std::move(matrix), std::move(ranks),
                                                service_options);
  ps::ServerOptions server_options;
  server_options.threads = static_cast<int>(host_threads());
  server_options.queue_depth = 1024;
  server_options.hooks.metrics = metrics;
  s.server = std::make_unique<ps::RankServer>(*s.service, server_options);
  s.server->start();
  return s;
}

class Runner {
 public:
  Runner(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
         bool trace, const std::filesystem::path& work_root)
      : spec_(spec), seconds_(seconds), trace_(trace) {
    config_.scale = spec.scale;
    config_.seed = derive_seed(seed, 1);
    config_.num_files = kShards;
    config_.storage = spec.storage;
    config_.stage_format = spec.stage_format;
    config_.work_dir = work_root;
    request_seed_ = derive_seed(seed, 2);
    backend_ = core::make_backend(spec.backend);
    store_ = core::make_stage_store(config_);
    if (trace_) sampler_.emplace();
  }

  RunResult run() {
    setup();
    passes();
    serve_phases();
    if (trace_) layer_probes();
    if (serving_.server) serving_.server->shutdown();
    checks();
    return std::move(result_);
  }

 private:
  void metric(const std::string& name, double value, const std::string& unit) {
    result_.metrics.push_back({name, value, unit});
  }
  void end_to_end(const std::string& name, double value, const std::string& unit) {
    if (!trace_) metric(name, value, unit);
    std::fprintf(stderr, "  %-22s %14.6g %s\n", name.c_str(), value, unit.c_str());
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    if (trace_) metric(name, value, unit);
  }
  void record_check(const char* what, const Check& check) {
    ++result_.attempted;
    if (!check.ok) {
      ++result_.failed;
      result_.correct = false;
      std::fprintf(stderr, "CHECK FAILED %s: %s\n", what, check.detail.c_str());
    }
  }

  core::KernelContext k0_context() {
    return core::KernelContext{config_, *store_, "", core::stages::kStage0,
                               core::stages::kTemp};
  }

  // ---- set-up ---------------------------------------------------------------

  void setup() {
    std::vector<double> samples;
    for (int i = 0; i < kSetupRepeats; ++i) {
      serving_ = {};  // the previous set-up's server goes first
      store_->remove(core::stages::kStage0);
      store_->remove(core::stages::kStage1);
      double t0 = now_s();
      double took = 0.0;
      if (spec_.serve_setup) {
        core::RunOptions options;
        options.store = store_.get();
        core::PipelineResult r = core::run_pipeline(config_, *backend_, options);
        took = now_s() - t0;
        // The benchmark's own copies, for the serving checks, are made off
        // the clock.
        served_matrix_ = r.matrix;
        served_ranks_ = r.ranks;
        t0 = now_s();
        serving_ = start_serving(std::move(r.matrix), std::move(r.ranks), config_,
                                 trace_ ? &registry_ : nullptr);
        ps::RankClient client(serving_.server->port());
        if (!client.ping().ok()) throw std::runtime_error("set-up: ping failed");
        took += now_s() - t0;
      } else {
        const core::KernelContext ctx = k0_context();
        backend_->kernel0(ctx);
        took = now_s() - t0;
      }
      samples.push_back(took);
      ++result_.attempted;
    }
    std::fprintf(stderr, "[perfbench] %s: set-up x%d\n", spec_.name.c_str(),
                 kSetupRepeats);
    end_to_end("setup_s", median(samples), "s");
  }

  // ---- pipeline passes ------------------------------------------------------

  Pass one_pass(bool traced) {
    prpb::obs::TraceRecorder recorder(true);
    prpb::obs::MetricsRegistry registry;
    core::RunOptions options;
    options.run_kernel0 = false;
    options.store = store_.get();
    if (traced) {
      options.hooks.trace = &recorder;
      options.hooks.metrics = &registry;
    }
    const double epoch = now_s() - 1e-6 * static_cast<double>(recorder.now_us());
    last_ = core::run_pipeline(config_, *backend_, options);
    Pass pass;
    pass.traced = traced;
    pass.wall = last_.wall_seconds_total;
    pass.k1 = last_.k1.seconds;
    pass.k2 = last_.k2.seconds;
    pass.k3 = last_.k3.seconds;
    if (traced && sampler_) {
      for (const prpb::obs::TraceEvent& e : recorder.events()) {
        const double begin = epoch + 1e-6 * static_cast<double>(e.ts);
        const double end = begin + 1e-6 * static_cast<double>(e.dur);
        if (e.name == "k1/sort") pass.k1_cpu = sampler_->cpu_between(begin, end);
        if (e.name == "k2/filter") pass.k2_cpu = sampler_->cpu_between(begin, end);
        if (e.name == "k3/pagerank") pass.k3_cpu = sampler_->cpu_between(begin, end);
      }
    }
    return pass;
  }

  void passes() {
    std::vector<Pass> done;
    const double t0 = now_s();
    const double budget = spec_.pass_share * seconds_;
    // The traced run alternates traced and untraced passes, so the tracing
    // overhead is measured inside one process on the same stages.
    while (static_cast<int>(done.size()) < kMinPasses || now_s() - t0 < budget) {
      done.push_back(one_pass(trace_ && done.size() % 2 == 0));
      ++result_.attempted;
    }
    const auto med = [&](double Pass::*field, int traced) {
      std::vector<double> v;
      for (const Pass& p : done) {
        if (traced < 0 || p.traced == (traced == 1)) v.push_back(p.*field);
      }
      return median(v);
    };
    const double m = static_cast<double>(config_.num_edges());
    // End-to-end figures come from untraced passes only.
    const int untraced = trace_ ? 0 : -1;
    std::fprintf(stderr, "[perfbench] %zu pipeline passes (median)\n", done.size());
    end_to_end("pipeline_s", med(&Pass::wall, untraced), "s");
    end_to_end("k1_edges_per_s", m / med(&Pass::k1, untraced), "edges/s");
    end_to_end("k2_edges_per_s", m / med(&Pass::k2, untraced), "edges/s");
    end_to_end("k3_edges_per_s", config_.iterations * m / med(&Pass::k3, untraced),
               "edges/s");
    if (!trace_) return;
    layer("core.k1_cpu_s", med(&Pass::k1_cpu, 1), "s");
    layer("core.k2_cpu_s", med(&Pass::k2_cpu, 1), "s");
    layer("core.k3_cpu_s", med(&Pass::k3_cpu, 1), "s");
    std::vector<double> barrier;
    for (const Pass& p : done) barrier.push_back(p.wall - p.k1 - p.k2 - p.k3);
    layer("core.barrier_s", median(barrier), "s");
    layer("trace.pipeline_overhead_ratio", med(&Pass::wall, 1) / med(&Pass::wall, 0),
          "ratio");
    layer("io.k1_read_bytes", static_cast<double>(last_.k1.bytes_read), "bytes");
    layer("io.k1_write_bytes", static_cast<double>(last_.k1.bytes_written), "bytes");
    layer("io.k2_read_bytes", static_cast<double>(last_.k2.bytes_read), "bytes");
    layer("io.k0_stage_bytes_per_edge",
          static_cast<double>(store_->stage_bytes(core::stages::kStage0)) / m,
          "B/edge");
  }

  // ---- serving --------------------------------------------------------------

  /// Which replies of a phase to keep for verification after the timed
  /// window: every `stride`-th light reply, and the run's first kPprSample
  /// personalized ones (each costs a reference iteration).
  std::vector<bool> keep_mask(const std::vector<Planned>& plan, std::size_t stride) {
    constexpr int kPprSample = 8;
    std::vector<bool> keep(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
      keep[i] = plan[i].request.opcode == ps::Opcode::kPpr
                    ? ppr_kept_++ < kPprSample
                    : i % stride == 0;
    }
    return keep;
  }

  OpenLoopResult drive(const std::vector<Planned>& plan, std::size_t stride) {
    const std::vector<bool> keep = keep_mask(plan, stride);
    OpenLoopResult r = run_open_loop(serving_.server->port(), plan,
                                     std::min(2u, host_threads()), keep);
    result_.attempted += plan.size();
    result_.failed += r.failed;
    shed_ += r.shed;
    for (std::size_t i = 0; i < plan.size(); ++i) {
      if (keep[i] && r.kept[i].ok()) replies_.emplace_back(plan[i].request, std::move(r.kept[i]));
    }
    return r;
  }

  void serve_phases() {
    if (!serving_.server) {
      serving_ = start_serving(last_.matrix, last_.ranks, config_,
                               trace_ ? &registry_ : nullptr);
    }
    const std::uint16_t port = serving_.server->port();
    const std::uint64_t n = config_.num_vertices();

    // Fixed-rate open loop.
    const auto count = std::max<std::size_t>(
        1000, static_cast<std::size_t>(spec_.open_rate * spec_.open_share * seconds_));
    const std::vector<Planned> plan = poisson_plan(request_seed_, spec_.open_rate, count, n);
    const auto queue_before = registry_.snapshot().histograms["serve/queue_ms"];
    const OpenLoopResult open = drive(plan, 1);
    const auto queue_after = registry_.snapshot().histograms["serve/queue_ms"];
    const std::vector<double> light = open.class_latency(plan, false);
    const std::vector<double> ppr = open.class_latency(plan, true);
    const double light_p50 = quantile(light, 0.5);
    light_wire_p50_ms_ = light_p50;
    std::fprintf(stderr,
                 "[perfbench] open loop at %.0f req/s: %zu requests, %llu ok, "
                 "%llu shed, %llu failed; light p50 %.3f ms p99 %.3f ms (n=%zu), "
                 "ppr p50 %.3f ms (n=%zu), generator lag p99 %.3f ms\n",
                 spec_.open_rate, plan.size(), static_cast<unsigned long long>(open.ok),
                 static_cast<unsigned long long>(open.shed),
                 static_cast<unsigned long long>(open.failed), light_p50,
                 quantile(light, 0.99), light.size(), quantile(ppr, 0.5),
                 ppr.size(), quantile(open.lag_ms, 0.99));
    layer("serve.light_p50_ms", light_p50, "ms");
    layer("serve.light_p99_ms", quantile(light, 0.99), "ms");
    layer("serve.light_samples", static_cast<double>(light.size()), "count");
    layer("serve.ppr_p50_ms", quantile(ppr, 0.5), "ms");
    layer("serve.ppr_samples", static_cast<double>(ppr.size()), "count");
    layer("serve.queue_ms_p99", histogram_p99(queue_before, queue_after), "ms");
    layer("serve.generator_lag_ms_p99", quantile(open.lag_ms, 0.99), "ms");

    // Capacity: the achieved rate at the highest ladder rung whose light-op
    // p99 meets the limit; the walk stops at the first rung that misses.
    double capacity = 0.0;
    for (std::size_t rung = 0; rung < kRateLadder.size(); ++rung) {
      const double rate = kRateLadder[rung];
      const std::vector<Planned> rung_plan = poisson_plan(
          derive_seed(request_seed_, 100 + rung), rate,
          std::max<std::size_t>(kRungMinRequests,
                                static_cast<std::size_t>(rate * kRungSeconds)),
          n);
      const OpenLoopResult r = drive(rung_plan, 16);
      const double p99 = quantile(r.class_latency(rung_plan, false), 0.99);
      const double achieved = static_cast<double>(r.ok) / r.seconds;
      std::fprintf(stderr, "  ladder %6.0f req/s: light p99 %.3f ms, %.0f req/s achieved\n",
                   rate, p99, achieved);
      if (!(p99 <= kLightP99LimitMs)) break;
      capacity = achieved;
    }
    layer("serve.capacity_qps", capacity, "req/s");

    // Churn. Every finished session may leave a descriptor behind in the
    // server, so the session count stays below the descriptor limit.
    const double rss_before = rss_kib();
    const auto fd_room = static_cast<std::int64_t>(fd_soft_limit()) - open_fds() - 256;
    const std::uint64_t sessions = std::min<std::uint64_t>(
        spec_.churn_sessions, static_cast<std::uint64_t>(std::max<std::int64_t>(fd_room, 64)));
    ChurnResult churn = run_churn(port, host_threads(), sessions, n,
                                  derive_seed(request_seed_, 3));
    result_.attempted += churn.sessions + churn.failed;
    result_.failed += churn.failed;
    std::fprintf(stderr, "[perfbench] churn: %llu sessions in %.3f s, %llu failed\n",
                 static_cast<unsigned long long>(churn.sessions), churn.seconds,
                 static_cast<unsigned long long>(churn.failed));
    layer("serve.sessions_per_s", static_cast<double>(churn.sessions) / churn.seconds,
          "sessions/s");
    for (SessionRecord& s : churn.records) {
      for (int q = 0; q < 3; ++q) replies_.emplace_back(s.request[q], s.response[q]);
    }
    layer("serve.connect_us", median(churn.connect_us), "us");
    layer("serve.fds_after", open_fds(), "count");
    layer("serve.rss_per_session_kb",
          (rss_kib() - rss_before) / std::max<double>(1.0, churn.sessions), "KiB");
    layer("serve.shed", static_cast<double>(shed_), "count");

    // A full-restart ppr at K3's iteration count must return K3's ranks.
    ps::Request full;
    full.id = 1;
    full.opcode = ps::Opcode::kPpr;
    full.ppr.iterations = static_cast<std::uint32_t>(config_.iterations);
    full.ppr.topk = 10;
    ps::RankClient client(port);
    replies_.emplace_back(full, client.request(full));
    ++result_.attempted;

    end_to_end("peak_rss_mb", peak_rss_mib(), "MiB");
  }

  // ---- per-layer probes (traced run) -----------------------------------------

  void layer_probes() {
    const double m = static_cast<double>(config_.num_edges());
    const std::uint64_t n = config_.num_vertices();

    // model: STREAM triad with each array at least 4x the last-level cache.
    const std::uint64_t llc = llc_bytes();
    const std::uint64_t array_bytes = std::max<std::uint64_t>(4 * llc, 256ULL << 20);
    const double triad = prpb::model::cached_triad_bandwidth(3 * array_bytes) / 1e9;
    std::fprintf(stderr, "[perfbench] triad: LLC %.1f MiB, arrays 3 x %.1f MiB\n",
                 static_cast<double>(llc) / 1048576.0,
                 static_cast<double>(array_bytes) / 1048576.0);
    layer("model.triad_gbps", triad, "GB/s");

    // gen
    const auto generator = prpb::gen::make_generator(
        config_.generator, config_.scale, config_.edge_factor, config_.seed);
    double t0 = now_s();
    prpb::gen::EdgeList edges = generator->generate_all();
    layer("gen.edges_per_s", m / (now_s() - t0), "edges/s");

    // io: encode M edges into the workload's store, decode the K0 stage.
    const prpb::io::StageCodec& codec = core::make_stage_codec(config_);
    {
      t0 = now_s();
      prpb::io::EdgeBatchWriter writer(*store_, "perfbench_encode", codec,
                                       config_.num_files, edges.size());
      writer.append(edges);
      writer.close();
      layer("io.encode_edges_per_s", m / (now_s() - t0), "edges/s");
      store_->remove("perfbench_encode");
    }
    {
      double decode_s = 0.0;
      prpb::gen::EdgeList decoded;
      for (const std::string& shard : store_->list(core::stages::kStage0)) {
        const auto view = store_->open_read(core::stages::kStage0, shard)->view();
        const auto decoder = codec.make_decoder();
        t0 = now_s();
        decoder->decode(view->chars(), decoded, shard);
        decode_s += now_s() - t0;
      }
      layer("io.decode_edges_per_s", m / decode_s, "edges/s");
    }

    // sort: the workload backend's engine.
    std::optional<prpb::util::ThreadPool> pool;
    if (spec_.backend == "parallel") pool.emplace(host_threads());
    t0 = now_s();
    if (pool) {
      prpb::sort::parallel_merge_sort(edges, *pool);
    } else {
      prpb::sort::radix_sort(edges);
    }
    layer("sort.edges_per_s", m / (now_s() - t0), "edges/s");

    // sparse
    t0 = now_s();
    const prpb::sparse::CsrMatrix a = prpb::sparse::filter_edges(edges, n);
    layer("sparse.filter_edges_per_s", m / (now_s() - t0), "edges/s");
    edges = {};
    t0 = now_s();
    { const prpb::sparse::CsrMatrix at = a.transpose(); }
    layer("sparse.transpose_s", now_s() - t0, "s");
    std::vector<double> x = prpb::sparse::pagerank_initial_vector(n, config_.seed);
    std::vector<double> y(n);
    std::vector<double> iter_ms;
    for (int i = 0; i < 10; ++i) {
      t0 = now_s();
      a.vec_mat(x, y);
      iter_ms.push_back(1e3 * (now_s() - t0));
    }
    const double spmv_ms = median(iter_ms);
    // Computed, not counted: each nonzero streams its column index and
    // value (16 B); each row its row pointer and x entry; each column its
    // y entry read and written.
    const double nnz = static_cast<double>(a.nnz());
    const double bytes = 16.0 * nnz + 16.0 * static_cast<double>(a.rows()) +
                         16.0 * static_cast<double>(a.cols());
    const double gbps = bytes / (spmv_ms * 1e-3) / 1e9;
    layer("sparse.spmv_iter_ms", spmv_ms, "ms");
    layer("sparse.k3_bytes_per_edge", bytes / nnz, "B/edge");
    layer("sparse.spmv_gbps_computed", gbps, "GB/s");
    layer("sparse.spmv_roofline_fraction", gbps / triad, "ratio");

    // serve: in-process service time per op, no socket.
    const std::vector<Planned> plan = poisson_plan(derive_seed(request_seed_, 4), 1000, 4000, n);
    std::vector<double> us[6];
    std::vector<double> light_us;
    for (const Planned& p : plan) {
      const int op = static_cast<int>(p.request.opcode);
      if (p.request.opcode == ps::Opcode::kPpr && us[op].size() >= 100) continue;
      t0 = now_s();
      const std::string reply = serving_.service->handle(p.request);
      const double took = 1e6 * (now_s() - t0);
      us[op].push_back(took);
      if (p.request.opcode != ps::Opcode::kPpr) light_us.push_back(took);
    }
    layer("serve.service_us.topk", median(us[static_cast<int>(ps::Opcode::kTopk)]), "us");
    layer("serve.service_us.rank", median(us[static_cast<int>(ps::Opcode::kRank)]), "us");
    layer("serve.service_us.neighbors",
          median(us[static_cast<int>(ps::Opcode::kNeighbors)]), "us");
    layer("serve.service_us.ppr", median(us[static_cast<int>(ps::Opcode::kPpr)]), "us");
    layer("serve.wire_us", 1e3 * light_wire_p50_ms_ - median(light_us), "us");
    layer("serve.threads_peak", sampler_->threads_peak(), "count");
  }

  // ---- checks ---------------------------------------------------------------

  void checks() {
    const double t0 = now_s();
    const prpb::gen::EdgeList sorted =
        read_stage(*store_, core::stages::kStage1, config_.stage_format);
    const auto generator = prpb::gen::make_generator(
        config_.generator, config_.scale, config_.edge_factor, config_.seed);
    record_check("K1", check_k1(sorted, digest_generator(*generator)));
    record_check("K2", check_k2(sorted, config_.num_vertices(), last_.matrix));
    const std::vector<double> reference = reference_pagerank(
        last_.matrix,
        prpb::sparse::pagerank_initial_vector(config_.num_vertices(), config_.seed),
        config_.iterations, config_.damping);
    record_check("K3", check_k3(last_.ranks, reference));
    // Pipeline workloads serve the last pass's output; the serving
    // workloads serve their last set-up's.
    const ServingTruth truth(spec_.serve_setup ? served_matrix_ : last_.matrix,
                             spec_.serve_setup ? served_ranks_ : last_.ranks,
                             config_.damping);
    Check serving;
    std::uint64_t wrong = 0;
    for (const auto& [request, response] : replies_) {
      const Check c = truth.check(request, response);
      if (!c.ok && wrong++ == 0) serving = c;
    }
    record_check("serving replies", serving);
    std::fprintf(stderr,
                 "[perfbench] checks: K1, K2, K3 and %zu replies (%llu wrong) "
                 "in %.2f s\n",
                 replies_.size(), static_cast<unsigned long long>(wrong),
                 now_s() - t0);
  }

  const WorkloadSpec& spec_;
  double seconds_;
  bool trace_;
  core::PipelineConfig config_;
  std::uint64_t request_seed_ = 0;
  std::unique_ptr<core::PipelineBackend> backend_;
  std::unique_ptr<prpb::io::StageStore> store_;
  std::optional<ProcessSampler> sampler_;
  prpb::obs::MetricsRegistry registry_;
  core::PipelineResult last_;
  prpb::sparse::CsrMatrix served_matrix_;  // serving workloads only
  std::vector<double> served_ranks_;
  Serving serving_;  // after registry_, which its server's hooks point at
  std::vector<std::pair<ps::Request, ps::Response>> replies_;
  std::uint64_t shed_ = 0;
  int ppr_kept_ = 0;
  double light_wire_p50_ms_ = 0.0;
  RunResult result_;
};

}  // namespace

RunResult run_workload(const WorkloadSpec& spec, std::uint64_t seed,
                       double seconds, bool trace,
                       const std::filesystem::path& work_root) {
  struct RemoveOnExit {
    std::filesystem::path path;
    ~RemoveOnExit() {
      std::error_code ignored;
      std::filesystem::remove_all(path, ignored);
    }
  } cleanup{work_root};
  std::filesystem::create_directories(work_root);
  Runner runner(spec, seed, seconds, trace, work_root);
  return runner.run();
}

}  // namespace perfbench
