#include "io/edge_files.hpp"

#include <cinttypes>
#include <numeric>

#include "io/edge_batch.hpp"
#include "io/file_stream.hpp"
#include "util/error.hpp"
#include "util/fs.hpp"
#include "util/json.hpp"
#include "util/threadpool.hpp"

namespace prpb::io {

namespace fs = std::filesystem;

fs::path shard_path(const fs::path& dir, std::size_t index) {
  return dir / shard_name(index);
}

std::vector<std::uint64_t> shard_boundaries(std::uint64_t total,
                                            std::size_t shards) {
  util::require(shards >= 1, "shard_boundaries: shards must be >= 1");
  std::vector<std::uint64_t> bounds(shards + 1);
  for (std::size_t i = 0; i <= shards; ++i) {
    bounds[i] = total * i / shards;
  }
  return bounds;
}

namespace {

std::uint64_t write_edges_impl(
    StageStore& store, const std::string& stage, std::size_t shards,
    const StageCodec& codec, std::uint64_t total, obs::Hooks hooks,
    const std::function<void(std::uint64_t, std::uint64_t, gen::EdgeList&)>&
        producer) {
  EdgeBatchWriter writer(store, stage, codec, shards, total, hooks);
  gen::EdgeList batch;
  for (std::uint64_t lo = 0; lo < total; lo += kDefaultBatchEdges) {
    const std::uint64_t hi =
        std::min<std::uint64_t>(total, lo + kDefaultBatchEdges);
    batch.clear();
    producer(lo, hi, batch);
    writer.append(batch);
  }
  writer.close();
  return writer.bytes_written();
}

std::string decode_trace_args(const std::string& label) {
  return "{\"shard\":\"" + util::JsonWriter::escape(label) + "\"}";
}

/// Appends every record of one shard to `out`.
void decode_shard(StageReader& reader, const std::string& label,
                  const StageCodec& codec, obs::Hooks hooks,
                  gen::EdgeList& out) {
  const auto decoder = codec.make_decoder();
  obs::AccumulatingSpan span(hooks.trace, "codec/decode");
  // Zero-copy path: take the whole shard as one contiguous view (mmap for
  // dir stores, the owning buffer for mem stores, a buffered drain
  // elsewhere) and let the codec parse it in place.
  const auto view = reader.view();
  span.begin();
  decoder->decode(view->chars(), out, label);
  span.end();
  if (span.active()) span.flush(decode_trace_args(label));
}

void stream_shard_impl(StageReader& reader, const std::string& label,
                       const StageCodec& codec, obs::Hooks hooks,
                       const std::function<void(const gen::EdgeList&)>& sink) {
  gen::EdgeList batch;
  const auto decoder = codec.make_decoder();
  obs::AccumulatingSpan span(hooks.trace, "codec/decode");
  for (;;) {
    const auto chunk = reader.read_chunk();
    if (chunk.empty()) break;
    batch.clear();
    span.begin();
    decoder->feed(chunk, batch);
    span.end();
    if (!batch.empty()) sink(batch);
  }
  batch.clear();
  span.begin();
  decoder->finish(batch, label);
  span.end();
  if (span.active()) span.flush(decode_trace_args(label));
  if (!batch.empty()) sink(batch);
}

/// Expresses an arbitrary stage directory as a (store, stage) pair.
DirStageStore path_store() { return DirStageStore{}; }

}  // namespace

// ---- StageCodec forms ------------------------------------------------------

std::uint64_t write_generated_edges(StageStore& store,
                                    const std::string& stage,
                                    const gen::EdgeGenerator& generator,
                                    std::size_t shards,
                                    const StageCodec& codec,
                                    obs::Hooks hooks) {
  return write_edges_impl(
      store, stage, shards, codec, generator.num_edges(), hooks,
      [&generator](std::uint64_t lo, std::uint64_t hi, gen::EdgeList& out) {
        generator.generate_range(lo, hi, out);
      });
}

std::uint64_t write_edge_list(StageStore& store, const std::string& stage,
                              const gen::EdgeList& edges, std::size_t shards,
                              const StageCodec& codec, obs::Hooks hooks) {
  EdgeBatchWriter writer(store, stage, codec, shards, edges.size(), hooks);
  writer.append(edges);
  writer.close();
  return writer.bytes_written();
}

std::uint64_t write_edge_list(StageStore& store, const std::string& stage,
                              const gen::EdgeList& edges, std::size_t shards,
                              const StageCodec& codec, util::ThreadPool& pool,
                              obs::Hooks hooks) {
  // The serial form's layout: one ShardWriter per shard_boundaries slice,
  // each slice encoded by a single append, so every shard's bytes match
  // EdgeBatchWriter's one encode per shard. Empty trailing shards are
  // still opened and closed.
  store.clear_stage(stage);
  const auto bounds = shard_boundaries(edges.size(), shards);
  std::vector<std::uint64_t> bytes(shards, 0);
  util::parallel_for(pool, 0, shards, [&](std::uint64_t s) {
    ShardWriter writer(store, stage, shard_name(s, codec), codec, hooks);
    writer.append(edges.data() + bounds[s], bounds[s + 1] - bounds[s]);
    writer.close();
    bytes[s] = writer.bytes_written();
  });
  return std::accumulate(bytes.begin(), bytes.end(), std::uint64_t{0});
}

gen::EdgeList read_edge_shard(StageStore& store, const std::string& stage,
                              const std::string& shard,
                              const StageCodec& codec, obs::Hooks hooks) {
  gen::EdgeList edges;
  const auto reader = store.open_read(stage, shard);
  decode_shard(*reader, stage + "/" + shard, codec, hooks, edges);
  return edges;
}

gen::EdgeList read_all_edges(StageStore& store, const std::string& stage,
                             const StageCodec& codec, obs::Hooks hooks) {
  // Every shard decodes straight into the one list.
  gen::EdgeList edges;
  for (const auto& shard : store.list(stage)) {
    const auto reader = store.open_read(stage, shard);
    decode_shard(*reader, stage + "/" + shard, codec, hooks, edges);
  }
  return edges;
}

void stream_all_edges(StageStore& store, const std::string& stage,
                      const StageCodec& codec,
                      const std::function<void(const gen::EdgeList&)>& sink,
                      obs::Hooks hooks) {
  for (const auto& shard : store.list(stage)) {
    const auto reader = store.open_read(stage, shard);
    stream_shard_impl(*reader, stage + "/" + shard, codec, hooks, sink);
  }
}

std::uint64_t count_edges(StageStore& store, const std::string& stage,
                          const StageCodec& codec) {
  std::uint64_t total = 0;
  stream_all_edges(store, stage, codec,
                   [&total](const gen::EdgeList& batch) {
                     total += batch.size();
                   });
  return total;
}

// ---- legacy io::Codec forms ------------------------------------------------

std::uint64_t write_generated_edges(StageStore& store,
                                    const std::string& stage,
                                    const gen::EdgeGenerator& generator,
                                    std::size_t shards, Codec codec) {
  return write_generated_edges(store, stage, generator, shards,
                               tsv_codec(codec));
}

std::uint64_t write_edge_list(StageStore& store, const std::string& stage,
                              const gen::EdgeList& edges, std::size_t shards,
                              Codec codec) {
  return write_edge_list(store, stage, edges, shards, tsv_codec(codec));
}

gen::EdgeList read_edge_shard(StageStore& store, const std::string& stage,
                              const std::string& shard, Codec codec) {
  return read_edge_shard(store, stage, shard, tsv_codec(codec));
}

gen::EdgeList read_all_edges(StageStore& store, const std::string& stage,
                             Codec codec) {
  return read_all_edges(store, stage, tsv_codec(codec));
}

void stream_all_edges(StageStore& store, const std::string& stage, Codec codec,
                      const std::function<void(const gen::EdgeList&)>& sink) {
  stream_all_edges(store, stage, tsv_codec(codec), sink);
}

std::uint64_t count_edges(StageStore& store, const std::string& stage) {
  return count_edges(store, stage, tsv_codec(Codec::kFast));
}

// ---- path forms ------------------------------------------------------------

std::uint64_t write_generated_edges(const gen::EdgeGenerator& generator,
                                    const fs::path& dir, std::size_t shards,
                                    Codec codec) {
  auto store = path_store();
  return write_generated_edges(store, dir.string(), generator, shards, codec);
}

std::uint64_t write_edge_list(const gen::EdgeList& edges, const fs::path& dir,
                              std::size_t shards, Codec codec) {
  auto store = path_store();
  return write_edge_list(store, dir.string(), edges, shards, codec);
}

gen::EdgeList read_edge_file(const fs::path& path, Codec codec) {
  gen::EdgeList edges;
  FileReader reader(path);
  decode_shard(reader, path.string(), tsv_codec(codec), {}, edges);
  return edges;
}

gen::EdgeList read_all_edges(const fs::path& dir, Codec codec) {
  auto store = path_store();
  return read_all_edges(store, dir.string(), codec);
}

void stream_all_edges(const fs::path& dir, Codec codec,
                      const std::function<void(const gen::EdgeList&)>& sink) {
  auto store = path_store();
  stream_all_edges(store, dir.string(), codec, sink);
}

std::uint64_t count_edges(const fs::path& dir) {
  auto store = path_store();
  return count_edges(store, dir.string());
}

}  // namespace prpb::io
