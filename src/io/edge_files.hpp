// Sharded edge-file stages. Each pipeline kernel reads a stage of edge
// shards and writes another; "the number of files is a free parameter"
// (paper §IV.A), so the shard count is part of the stage layout.
//
// Every helper comes in three forms: the StageCodec form (the kernel seam —
// any storage, any encoding), a legacy io::Codec form that fixes the
// encoding to TSV in the given flavor (kept so TSV-era call sites read
// unchanged), and a path form that is a thin wrapper over a DirStageStore,
// preserving the historical on-disk layout byte for byte.
#pragma once

#include <cstdint>
#include <filesystem>
#include <functional>
#include <string>
#include <vector>

#include "gen/edge.hpp"
#include "gen/generator.hpp"
#include "io/stage_codec.hpp"
#include "io/stage_store.hpp"
#include "io/tsv.hpp"
#include "obs/trace.hpp"

namespace prpb::util {
class ThreadPool;
}  // namespace prpb::util

namespace prpb::io {

/// Naming scheme for shard i of a stage directory (dir / shard_name(i)).
std::filesystem::path shard_path(const std::filesystem::path& dir,
                                 std::size_t index);

/// Splits `total` items into `shards` near-equal contiguous ranges.
/// Returns shard boundaries of size shards+1 (first 0, last total).
std::vector<std::uint64_t> shard_boundaries(std::uint64_t total,
                                            std::size_t shards);

// ---- StageCodec forms (the kernel I/O seam) --------------------------------

/// Writes all edges of `generator` into `shards` shards of `stage`
/// (created if needed, cleared of stale shards first). Returns bytes
/// written. The optional hooks attribute per-shard codec time in traces.
std::uint64_t write_generated_edges(StageStore& store,
                                    const std::string& stage,
                                    const gen::EdgeGenerator& generator,
                                    std::size_t shards,
                                    const StageCodec& codec,
                                    obs::Hooks hooks = {});

/// Writes an in-memory edge list into `shards` shards of `stage`.
std::uint64_t write_edge_list(StageStore& store, const std::string& stage,
                              const gen::EdgeList& edges, std::size_t shards,
                              const StageCodec& codec, obs::Hooks hooks = {});

/// The same stage as the serial form, byte for byte, with the shards
/// encoded and written concurrently on `pool`. The store must accept
/// concurrent writes to distinct shards (all in-tree stores do).
std::uint64_t write_edge_list(StageStore& store, const std::string& stage,
                              const gen::EdgeList& edges, std::size_t shards,
                              const StageCodec& codec, util::ThreadPool& pool,
                              obs::Hooks hooks = {});

/// Reads one shard of a stage fully.
gen::EdgeList read_edge_shard(StageStore& store, const std::string& stage,
                              const std::string& shard,
                              const StageCodec& codec, obs::Hooks hooks = {});

/// Reads every shard of `stage` (sorted shard order) into one list.
gen::EdgeList read_all_edges(StageStore& store, const std::string& stage,
                             const StageCodec& codec, obs::Hooks hooks = {});

/// Streams edges from every shard of `stage` in shard order, invoking
/// `sink` with batches. Bounded memory regardless of stage size.
void stream_all_edges(StageStore& store, const std::string& stage,
                      const StageCodec& codec,
                      const std::function<void(const gen::EdgeList&)>& sink,
                      obs::Hooks hooks = {});

/// Number of decoded records in the stage.
std::uint64_t count_edges(StageStore& store, const std::string& stage,
                          const StageCodec& codec);

// ---- legacy io::Codec forms (TSV in the given flavor) ----------------------

std::uint64_t write_generated_edges(StageStore& store,
                                    const std::string& stage,
                                    const gen::EdgeGenerator& generator,
                                    std::size_t shards, Codec codec);

std::uint64_t write_edge_list(StageStore& store, const std::string& stage,
                              const gen::EdgeList& edges, std::size_t shards,
                              Codec codec);

gen::EdgeList read_edge_shard(StageStore& store, const std::string& stage,
                              const std::string& shard, Codec codec);

gen::EdgeList read_all_edges(StageStore& store, const std::string& stage,
                             Codec codec);

void stream_all_edges(StageStore& store, const std::string& stage,
                      Codec codec,
                      const std::function<void(const gen::EdgeList&)>& sink);

/// Number of edges in the stage (decodes the default TSV encoding).
std::uint64_t count_edges(StageStore& store, const std::string& stage);

// ---- path forms (DirStageStore wrappers) -----------------------------------

std::uint64_t write_generated_edges(const gen::EdgeGenerator& generator,
                                    const std::filesystem::path& dir,
                                    std::size_t shards, Codec codec);

std::uint64_t write_edge_list(const gen::EdgeList& edges,
                              const std::filesystem::path& dir,
                              std::size_t shards, Codec codec);

/// Reads one TSV shard fully.
gen::EdgeList read_edge_file(const std::filesystem::path& path, Codec codec);

gen::EdgeList read_all_edges(const std::filesystem::path& dir, Codec codec);

void stream_all_edges(const std::filesystem::path& dir, Codec codec,
                      const std::function<void(const gen::EdgeList&)>& sink);

std::uint64_t count_edges(const std::filesystem::path& dir);

}  // namespace prpb::io
