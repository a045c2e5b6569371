// prpb-serve — PageRank-as-a-service.
//
// Runs the pipeline once (any backend, any scale, plain or compressed
// CSR), then keeps the kernel-2 matrix and kernel-3 ranks warm behind a
// concurrent loopback TCP query server: topk, rank, weighted neighbors,
// and per-request personalized PageRank. Examples:
//
//   prpb-serve --scale 16 --port 7070
//   prpb-serve --scale 14 --backend parallel --csr compressed --threads 8
//   prpb-serve --scale 10 --port 0          # ephemeral; port is printed
//
// Protocol and overload semantics: DESIGN.md §13. Stop with SIGINT or
// SIGTERM; shutdown drains every request already accepted.
#include <csignal>
#include <cstdio>

#include <atomic>
#include <chrono>
#include <thread>

#include "core/backend.hpp"
#include "core/runner.hpp"
#include "io/file_stream.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/log.hpp"

namespace {

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace prpb;

  util::ArgParser args("prpb-serve",
                       "serve rank queries from a warm pipeline result");
  // Pipeline flags (mirroring prpb).
  args.add_option("scale", "graph scale S (N = 2^S)", "16");
  args.add_option("edge-factor", "edges per vertex k", "16");
  args.add_option("backend",
                  "native|parallel|graphblas|arraylang|dataframe", "native");
  args.add_option("generator", "kronecker|bter|ppl", "kronecker");
  args.add_option("source",
                  "kernel-0 graph source: generator | external (--input)",
                  "generator");
  args.add_option("input",
                  "external graph file (.txt/.tsv/.csv/.mtx); implies "
                  "--source external", "");
  args.add_option("files", "shard files per stage", "1");
  args.add_option("iterations", "PageRank iterations", "20");
  args.add_option("damping", "PageRank damping factor c", "0.85");
  args.add_option("seed", "graph generator seed", "20160205");
  args.add_option("work-dir",
                  "staging directory (default: fresh temp dir)", "");
  args.add_option("storage",
                  "stage store: dir (disk) | mem (in-memory)", "mem");
  args.add_option("stage-format",
                  "stage encoding: tsv | binary", "tsv");
  args.add_option("csr",
                  "warm CSR form: plain | compressed (delta-varint)",
                  "plain");
  args.add_option("fast-path",
                  "parallel backend's K2 parallel CSR build (src/perf): "
                  "on | off", "off");
  // Serving flags.
  args.add_option("port", "TCP port on 127.0.0.1 (0 = ephemeral)", "0");
  args.add_option("threads", "query worker threads", "4");
  args.add_option("queue-depth",
                  "bounded request queue; full = shed with a retryable "
                  "overloaded reply", "256");
  args.add_option("metrics-json",
                  "write a metrics snapshot here on shutdown", "");
  args.add_option("trace-out",
                  "write a Chrome trace_event JSON of served requests here",
                  "");
  args.add_flag("verbose", "log progress");
  if (!args.parse(argc, argv)) return 0;

  if (args.get_flag("verbose")) util::set_log_level(util::LogLevel::kInfo);

  core::PipelineConfig config;
  config.scale = static_cast<int>(args.get_int("scale"));
  config.edge_factor = static_cast<int>(args.get_int("edge-factor"));
  config.generator = args.get("generator");
  config.source = args.get("source");
  if (!args.get("input").empty()) {
    config.input_path = args.get("input");
    if (config.source == "generator") config.source = "external";
  }
  config.num_files = static_cast<std::size_t>(args.get_int("files"));
  config.iterations = static_cast<int>(args.get_int("iterations"));
  config.damping = args.get_double("damping");
  config.seed = static_cast<std::uint64_t>(args.get_int("seed"));
  config.storage = args.get("storage");
  config.stage_format = args.get("stage-format");
  config.csr = args.get("csr");
  const std::string fast_path = args.get("fast-path");
  util::require(fast_path == "on" || fast_path == "off",
                "--fast-path must be 'on' or 'off'");
  config.fast_path = fast_path == "on";

  std::optional<util::TempDir> temp;
  if (!args.get("work-dir").empty()) {
    config.work_dir = args.get("work-dir");
  } else if (config.storage != "mem") {
    temp.emplace("prpb-serve");
    config.work_dir = temp->path();
  }

  try {
    const auto backend = core::make_backend(args.get("backend"));
    std::printf("prpb-serve: running pipeline (backend=%s scale=%d "
                "csr=%s)...\n",
                backend->name().c_str(), config.scale, config.csr.c_str());
    std::fflush(stdout);
    core::PipelineResult result =
        core::run_pipeline(config, *backend, core::RunOptions{});
    util::require(!result.ranks.empty(),
                  "prpb-serve needs the pagerank algorithm output");

    serve::ServiceOptions service_options;
    service_options.iterations = config.iterations;
    service_options.damping = config.damping;
    service_options.seed = config.seed;
    service_options.csr = config.csr;
    const serve::RankService service(std::move(result.matrix),
                                     std::move(result.ranks),
                                     service_options);

    const std::string trace_out = args.get("trace-out");
    obs::TraceRecorder recorder(!trace_out.empty());
    obs::MetricsRegistry registry;
    serve::ServerOptions server_options;
    server_options.port =
        static_cast<std::uint16_t>(args.get_int("port"));
    server_options.threads = static_cast<int>(args.get_int("threads"));
    server_options.queue_depth =
        static_cast<std::size_t>(args.get_int("queue-depth"));
    server_options.hooks.metrics = &registry;
    if (!trace_out.empty()) server_options.hooks.trace = &recorder;

    serve::RankServer server(service, server_options);
    server.start();
    std::printf("prpb-serve: listening on 127.0.0.1:%u "
                "(%llu vertices, %llu edges, %d workers, queue %zu)\n",
                server.port(), (unsigned long long)service.vertices(),
                (unsigned long long)service.nnz(), server_options.threads,
                server_options.queue_depth);
    std::fflush(stdout);

    std::signal(SIGINT, handle_signal);
    std::signal(SIGTERM, handle_signal);
    while (!g_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::printf("prpb-serve: shutting down (draining in-flight "
                "requests)...\n");
    server.shutdown();
    const serve::ServerStats stats = server.stats();
    std::printf("prpb-serve: served %llu replies over %llu connections "
                "(%llu shed, %llu malformed)\n",
                (unsigned long long)stats.replies_sent,
                (unsigned long long)stats.connections_accepted,
                (unsigned long long)stats.requests_shed,
                (unsigned long long)stats.malformed_frames);

    if (!args.get("metrics-json").empty()) {
      io::write_file(args.get("metrics-json"),
                     registry.snapshot().json() + "\n");
      std::printf("metrics written to %s\n",
                  args.get("metrics-json").c_str());
    }
    if (!trace_out.empty()) {
      recorder.write_chrome_trace(trace_out);
      std::printf("trace written to %s (%zu events)\n", trace_out.c_str(),
                  recorder.event_count());
    }
  } catch (const util::Error& e) {
    std::fprintf(stderr, "prpb-serve: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
