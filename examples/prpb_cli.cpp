// prpb — the full pipeline driver.
//
// Runs any backend at any scale with any generator, reporting the paper's
// per-kernel metrics, with optional result validation. Examples:
//
//   prpb --scale 18 --backend native
//   prpb --scale 14 --backend arraylang --generator ppl --files 8
//   prpb --scale 10 --backend graphblas --validate
//   prpb --scale 20 --backend native --memory-budget 16000000   # external sort
//   prpb --scale 14 --backend parallel --trace-out trace.json   # Perfetto
#include <cstdio>

#include "core/backend.hpp"
#include "core/report.hpp"
#include "core/runner.hpp"
#include "core/validate.hpp"
#include "fault/plan.hpp"
#include "io/file_stream.hpp"
#include "obs/metrics.hpp"
#include "obs/resource_sampler.hpp"
#include "obs/trace.hpp"
#include "util/cli.hpp"
#include "util/error.hpp"
#include "util/format.hpp"
#include "util/fs.hpp"
#include "util/log.hpp"

int main(int argc, char** argv) {
  using namespace prpb;

  util::ArgParser args("prpb", "PageRank Pipeline Benchmark driver");
  args.add_option("scale", "graph scale S (N = 2^S)", "16");
  args.add_option("edge-factor", "edges per vertex k", "16");
  args.add_option("backend",
                  "native|parallel|graphblas|arraylang|dataframe", "native");
  args.add_option("generator", "kronecker|bter|ppl", "kronecker");
  args.add_option("source",
                  "kernel-0 graph source: generator (the paper's K0) | "
                  "external (ingest --input)", "generator");
  args.add_option("input",
                  "external graph file: SNAP-style .txt/.tsv/.csv edge list "
                  "or .mtx; implies --source external", "");
  args.add_option("algorithm",
                  "comma-separated kernel-3 algorithms: "
                  "pagerank,pagerank_dopt,bfs,cc", "pagerank");
  args.add_option("files", "shard files per stage", "1");
  args.add_option("iterations", "PageRank iterations", "20");
  args.add_option("damping", "PageRank damping factor c", "0.85");
  args.add_option("seed", "graph generator seed", "20160205");
  args.add_option("work-dir",
                  "staging directory (default: fresh temp dir)", "");
  args.add_option("storage",
                  "stage store: dir (disk) | mem (in-memory ablation)",
                  "dir");
  args.add_option("stage-format",
                  "stage encoding: tsv (paper format) | binary (columnar)",
                  "tsv");
  args.add_option("memory-budget",
                  "kernel-1 RAM budget in bytes; 0 = unlimited", "0");
  args.add_option("csr",
                  "kernel-3 CSR form: plain (8-byte indices) | compressed "
                  "(delta-varint groups)", "plain");
  args.add_option("fast-path",
                  "parallel backend's K2 parallel CSR build (src/perf): "
                  "on | off", "off");
  args.add_option("faults",
                  "fault-injection plan, e.g. "
                  "'read_error@k1_sorted#2;bit_flip@k0_edges' "
                  "(kinds: read_error short_read write_error torn_write "
                  "truncate bit_flip)", "");
  args.add_option("fault-seed",
                  "seed for fault triggers and retry jitter (0 = --seed)",
                  "0");
  args.add_option("retry-max",
                  "kernel attempts on transient I/O faults (1 = no retry)",
                  "1");
  args.add_option("retry-backoff-ms",
                  "base backoff before a retry; doubles per attempt", "1");
  args.add_option("json", "write a machine-readable run report here", "");
  args.add_option("trace-out",
                  "write a Chrome trace_event JSON trace here "
                  "(chrome://tracing, Perfetto)", "");
  args.add_option("metrics-interval-ms",
                  "resource-sampler period for trace counter tracks", "50");
  args.add_flag("checkpoint",
                "verify each stage against as-written digests and persist "
                "checkpoint manifests");
  args.add_flag("resume",
                "skip kernels whose checkpoints validate (implies "
                "--checkpoint; requires --work-dir)");
  args.add_flag("validate", "run the dense eigenvector check (N <= 8192)");
  args.add_flag("sort-start-only", "kernel 1 orders by start vertex only");
  args.add_flag("verbose", "log kernel progress");
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
  config.memory_budget_bytes =
      static_cast<std::uint64_t>(args.get_int("memory-budget"));
  config.storage = args.get("storage");
  config.stage_format = args.get("stage-format");
  config.csr = args.get("csr");
  const std::string fast_path = args.get("fast-path");
  util::require(fast_path == "on" || fast_path == "off",
                "--fast-path must be 'on' or 'off'");
  config.fast_path = fast_path == "on";
  if (args.get_flag("sort-start-only"))
    config.sort_key = sort::SortKey::kStart;

  std::optional<util::TempDir> temp;
  if (!args.get("work-dir").empty()) {
    config.work_dir = args.get("work-dir");
  } else if (config.storage != "mem") {
    temp.emplace("prpb-cli");
    config.work_dir = temp->path();
  }

  try {
    config.algorithms = core::parse_algorithm_list(args.get("algorithm"));
    const auto backend = core::make_backend(args.get("backend"));
    std::string algorithms;
    for (const auto& algorithm : config.algorithms) {
      if (!algorithms.empty()) algorithms += ",";
      algorithms += algorithm;
    }
    if (config.source == "external") {
      std::printf(
          "prpb: backend=%s source=external input=%s algorithms=%s "
          "files=%zu storage=%s stage-format=%s fast-path=%s\n",
          backend->name().c_str(), config.input_path.string().c_str(),
          algorithms.c_str(), config.num_files, config.storage.c_str(),
          config.stage_format.c_str(), config.fast_path ? "on" : "off");
    } else {
      std::printf(
          "prpb: backend=%s generator=%s scale=%d (N=%s, M=%s) "
          "algorithms=%s files=%zu storage=%s stage-format=%s "
          "fast-path=%s\n",
          backend->name().c_str(), config.generator.c_str(), config.scale,
          util::human_count(config.num_vertices()).c_str(),
          util::human_count(config.num_edges()).c_str(), algorithms.c_str(),
          config.num_files, config.storage.c_str(),
          config.stage_format.c_str(), config.fast_path ? "on" : "off");
    }

    // Observability: tracing (and the resource-counter tracks) only turn
    // on when --trace-out is given; the metrics registry runs either way
    // so the JSON report always carries typed metrics.
    const std::string trace_out = args.get("trace-out");
    obs::TraceRecorder recorder(!trace_out.empty());
    obs::MetricsRegistry registry;
    core::RunOptions run_options;
    run_options.hooks.metrics = &registry;

    // Resilience: fault injection, retries, checkpoints and resume.
    std::uint64_t fault_seed =
        static_cast<std::uint64_t>(args.get_int("fault-seed"));
    if (fault_seed == 0) fault_seed = config.seed;
    run_options.fault_plan =
        fault::FaultPlan::parse(args.get("faults"), fault_seed);
    run_options.retry.max_attempts =
        static_cast<int>(args.get_int("retry-max"));
    run_options.retry.base_delay_ms = args.get_double("retry-backoff-ms");
    run_options.retry.seed = fault_seed;
    run_options.checkpoint = args.get_flag("checkpoint");
    run_options.resume = args.get_flag("resume");
    util::require(!run_options.resume || !args.get("work-dir").empty(),
                  "--resume requires --work-dir (a fresh temp dir has "
                  "nothing to resume from)");
    std::optional<obs::ResourceSampler> sampler;
    if (!trace_out.empty()) {
      run_options.hooks.trace = &recorder;
      obs::ResourceSampler::Options sampler_options;
      sampler_options.interval_ms =
          static_cast<int>(args.get_int("metrics-interval-ms"));
      sampler_options.trace = &recorder;
      sampler.emplace(sampler_options);
      sampler->start();
    }

    const core::PipelineResult result =
        core::run_pipeline(config, *backend, run_options);

    if (sampler.has_value()) sampler->stop();
    if (!trace_out.empty()) {
      recorder.write_chrome_trace(trace_out);
      std::printf("trace written to %s (%zu events, peak RSS %.1f MB)\n",
                  trace_out.c_str(), recorder.event_count(),
                  sampler.has_value()
                      ? static_cast<double>(sampler->peak_rss_bytes()) /
                            (1024.0 * 1024.0)
                      : 0.0);
    }

    util::TextTable table(
        {"kernel", "seconds", "edges/sec", "MB read", "MB written", "note"});
    const auto mb = [](std::uint64_t bytes) {
      return util::fixed(static_cast<double>(bytes) / (1024.0 * 1024.0), 1);
    };
    table.add_row({"K0 generate", util::fixed(result.k0.seconds, 4),
                   util::sci(result.k0.edges_per_second()),
                   mb(result.k0.bytes_read), mb(result.k0.bytes_written),
                   "untimed by spec"});
    table.add_row({"K1 sort", util::fixed(result.k1.seconds, 4),
                   util::sci(result.k1.edges_per_second()),
                   mb(result.k1.bytes_read), mb(result.k1.bytes_written), ""});
    table.add_row({"K2 filter", util::fixed(result.k2.seconds, 4),
                   util::sci(result.k2.edges_per_second()),
                   mb(result.k2.bytes_read), mb(result.k2.bytes_written), ""});
    for (const core::AlgorithmRun& run : result.algorithms) {
      std::string note = run.output.implementation;
      if (run.output.has_ranks()) {
        note += ", " + std::to_string(run.output.iterations) + " iterations";
      } else if (!run.output.levels.empty()) {
        note += ", depth " + std::to_string(run.output.iterations) +
                " from v" + std::to_string(run.output.bfs_source);
      }
      table.add_row({"K3 " + run.output.algorithm,
                     util::fixed(run.metrics.seconds, 4),
                     util::sci(run.metrics.edges_per_second()),
                     mb(run.metrics.bytes_read),
                     mb(run.metrics.bytes_written), note});
    }
    std::printf("\n%s", table.str().c_str());

    if (result.graph.source == "external") {
      std::printf(
          "\nexternal graph: %llu vertices, %llu edges (%s%s), "
          "out-degree max=%llu mean=%.2f gini=%.3f top1%%=%.3f\n",
          (unsigned long long)result.graph.vertices,
          (unsigned long long)result.graph.edges,
          result.graph.input_format.c_str(),
          result.graph.identity_remap ? "" : ", remapped vertex ids",
          (unsigned long long)result.graph.out_degree_skew.max_degree,
          result.graph.out_degree_skew.mean_degree,
          result.graph.out_degree_skew.gini,
          result.graph.out_degree_skew.top1pct_mass);
    }

    std::printf("\nalgorithm checksums:");
    for (const core::AlgorithmRun& run : result.algorithms) {
      std::printf(" %s=%s", run.output.algorithm.c_str(),
                  run.output.checksum.c_str());
    }
    std::printf("\n");

    if (!result.fault_plan.empty() || result.checkpointing ||
        result.retry_max_attempts > 1) {
      std::printf(
          "\nresilience: faults injected=%llu, attempts k0..k3=%d/%d/%d/%d, "
          "checkpointing=%s, resumed k0=%s k1=%s\n",
          (unsigned long long)result.faults_injected, result.k0.attempts,
          result.k1.attempts, result.k2.attempts, result.k3.attempts,
          result.checkpointing ? "on" : "off",
          result.k0.resumed ? "yes" : "no", result.k1.resumed ? "yes" : "no");
    }

    std::printf("\nkernel-2 matrix: %llu x %llu, nnz = %llu\n",
                (unsigned long long)result.matrix.rows(),
                (unsigned long long)result.matrix.cols(),
                (unsigned long long)result.matrix.nnz());

    std::optional<core::EigenCheck> check;
    if (args.get_flag("validate")) {
      util::require(!result.ranks.empty(),
                    "--validate needs the pagerank algorithm in --algorithm");
      util::require(result.num_vertices <= 8192,
                    "--validate requires N <= 8192 (scale <= 13)");
      check = core::validate_against_eigenvector(
          result.matrix, result.ranks, config.damping, 1e-6);
      std::printf("eigenvector check: %s (max |diff| = %.2e, %d solver "
                  "iterations)\n",
                  check->pass ? "PASS" : "FAIL", check->max_abs_diff,
                  check->eigensolver_iterations);
    }

    if (!args.get("json").empty()) {
      io::write_file(args.get("json"),
                     core::run_report_json(config, result, check) + "\n");
      std::printf("report written to %s\n", args.get("json").c_str());
    }
    if (check && !check->pass) return 1;
  } catch (const util::Error& e) {
    std::fprintf(stderr, "prpb: error: %s\n", e.what());
    return 1;
  }
  return 0;
}
