// ChunkSink: the output side of the out-of-core attack pipeline.
//
// The projection pass emits reconstructed records chunk by chunk, in
// stream order; a sink decides what happens to them — discard (metrics
// only), collect in memory (tests, small runs), or append to a CSV file
// (bounded-memory end to end).

#ifndef RANDRECON_PIPELINE_CHUNK_SINK_H_
#define RANDRECON_PIPELINE_CHUNK_SINK_H_

#include <fstream>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/column_store.h"
#include "data/shard_store.h"
#include "linalg/matrix.h"

namespace randrecon {
namespace pipeline {

/// Receives reconstructed chunks in stream order.
class ChunkSink {
 public:
  virtual ~ChunkSink() = default;

  /// `chunk`'s leading `num_rows` rows are reconstructed records starting
  /// at global record index `row_offset`.
  virtual Status Consume(size_t row_offset, const linalg::Matrix& chunk,
                         size_t num_rows) = 0;

  /// Flushes and seals whatever the sink is backed by; call once after
  /// the last Consume. The default is a no-op for sinks with nothing to
  /// flush (null, collect).
  virtual Status Close() { return Status::OK(); }
};

/// Discards every chunk (the caller only wants the report's metrics).
/// StreamingAttackPipeline recognizes it: with no reference stream it
/// skips the projection pass entirely, so Consume is never called.
class NullChunkSink final : public ChunkSink {
 public:
  Status Consume(size_t, const linalg::Matrix&, size_t) override {
    return Status::OK();
  }
};

/// Materializes the reconstructed stream — for tests and small runs
/// where comparing against an in-memory attack is the point.
class CollectChunkSink final : public ChunkSink {
 public:
  explicit CollectChunkSink(size_t num_attributes)
      : num_attributes_(num_attributes) {}

  Status Consume(size_t row_offset, const linalg::Matrix& chunk,
                 size_t num_rows) override;

  /// Everything consumed so far as one n x m matrix.
  linalg::Matrix ToMatrix() const;

  size_t num_records() const { return num_records_; }

 private:
  size_t num_attributes_;
  size_t num_records_ = 0;
  std::vector<double> values_;
};

/// Appends reconstructed records to a CSV file (header written eagerly),
/// keeping the whole pipeline at bounded memory.
class CsvChunkSink final : public ChunkSink {
 public:
  /// Opens `path` and writes a header of `attribute_names`. IoError if
  /// the file can't be created.
  static Result<CsvChunkSink> Create(
      const std::string& path, const std::vector<std::string>& attribute_names,
      int precision = 10);

  Status Consume(size_t row_offset, const linalg::Matrix& chunk,
                 size_t num_rows) override;

  /// Flushes and closes; IoError on a failed write. Called by the
  /// destructor if omitted (ignoring the status).
  Status Close() override;

 private:
  CsvChunkSink(std::ofstream file, std::string path, int precision)
      : file_(std::move(file)), path_(std::move(path)), precision_(precision) {}

  std::ofstream file_;
  std::string path_;
  int precision_;
  size_t rows_written_ = 0;
};

/// Appends reconstructed records to a binary column store
/// (data::ColumnStoreWriter) — the native-format counterpart of
/// CsvChunkSink: bitwise-exact f64 values (CSV rounds at `precision`),
/// and the output is itself attackable through ColumnStoreRecordSource
/// without a parse.
class ColumnStoreChunkSink final : public ChunkSink {
 public:
  /// Fails like data::ColumnStoreWriter::Create (unwritable path, empty
  /// or duplicate names, block_rows == 0).
  static Result<ColumnStoreChunkSink> Create(
      const std::string& path, const std::vector<std::string>& attribute_names,
      data::ColumnStoreOptions options = {});

  Status Consume(size_t row_offset, const linalg::Matrix& chunk,
                 size_t num_rows) override;

  /// Seals the store (record count + header checksum) and closes it.
  /// Called by the destructor if omitted (ignoring the status), but an
  /// unclosed store from a crashed process is rejected by readers.
  Status Close() override { return writer_.Close(); }

 private:
  explicit ColumnStoreChunkSink(data::ColumnStoreWriter writer)
      : writer_(std::move(writer)) {}

  data::ColumnStoreWriter writer_;
};

/// Appends reconstructed records to a SHARDED column store
/// (data::ShardedStoreWriter): a manifest + N `.rrcs` shards rolled at a
/// target row count and sealed in parallel. The output of an unbounded
/// streaming job is no longer capped at one file on one disk, and is
/// immediately decomposable job-per-shard by PipelineRunner.
class ShardedChunkSink final : public ChunkSink {
 public:
  /// Fails like data::ShardedStoreWriter::Create (unwritable directory,
  /// bad names, zero shard_rows/block_rows).
  static Result<ShardedChunkSink> Create(
      const std::string& manifest_path,
      const std::vector<std::string>& attribute_names,
      data::ShardedStoreOptions options = {});

  Status Consume(size_t row_offset, const linalg::Matrix& chunk,
                 size_t num_rows) override;

  /// Seals every shard and writes the manifest LAST — an unclosed or
  /// failed write leaves no manifest, so readers never see a partial
  /// store as complete. Called by the destructor if omitted (ignoring
  /// the status).
  Status Close() override { return writer_.Close(); }

  /// Every file the writer has created (shards + manifest) — what a
  /// failed conversion must remove.
  std::vector<std::string> output_paths() const {
    return writer_.output_paths();
  }

 private:
  explicit ShardedChunkSink(data::ShardedStoreWriter writer)
      : writer_(std::move(writer)) {}

  data::ShardedStoreWriter writer_;
};

}  // namespace pipeline
}  // namespace randrecon

#endif  // RANDRECON_PIPELINE_CHUNK_SINK_H_
