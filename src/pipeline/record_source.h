// RecordSource: the input side of the out-of-core attack pipeline.
//
// A source serves an ordered stream of n records (m attributes each) in
// caller-sized chunks, and can be rewound. Rewindability is the load-
// bearing contract: a covariance attack whose reconstruction is consumed
// makes two passes over Y (moments, then projection), and every pass
// must observe the byte-identical record sequence — RAPPOR-style report
// logs, CSV exports and seeded synthetic populations all satisfy it
// naturally.
//
// Adapters provided here:
//   * MatrixRecordSource      — an in-memory record matrix, chunked.
//   * CsvRecordSource         — a CSV file/string via data::CsvChunkReader,
//                               never holding the table in full.
//   * ColumnStoreRecordSource — a memory-mapped binary column store via
//                               data::ColumnStoreReader (docs/FORMAT.md);
//                               the native backend, ~10-100x CSV ingest.
//   * MvnRecordSource         — a seeded synthetic N(µ, Σ) population of
//                               fixed size, regenerated per pass.
//   * PerturbingRecordSource  — decorator turning any source X into the
//                               attacker-visible stream Y = X + R.
//
// source_factory.h opens a path as whichever file-backed source its
// leading bytes identify.
//
// Every adapter's stream is invariant to the chunk size it is read with
// (draws and parses are strictly record-ordered), which the pipeline's
// determinism contract builds on.

#ifndef RANDRECON_PIPELINE_RECORD_SOURCE_H_
#define RANDRECON_PIPELINE_RECORD_SOURCE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "data/column_store.h"
#include "data/csv.h"
#include "data/rolling_store.h"
#include "data/shard_store.h"
#include "linalg/matrix.h"
#include "perturb/schemes.h"
#include "stats/mvn.h"
#include "stats/philox.h"

namespace randrecon {
namespace pipeline {

/// Zero-copy columnar block access — the capability mmap'd store-backed
/// sources expose so columnar consumers (pass-1 moment accumulation) can
/// skip the columnar→row-major gather entirely. Blocks partition the
/// stream in record order; NextBlockColumns serves every attribute of
/// one block as a contiguous slice straight out of the mapping. The
/// block cursor is independent of the row-major NextChunk cursor.
class ColumnarBlockStream {
 public:
  virtual ~ColumnarBlockStream() = default;

  /// Rewinds the block cursor to the first block.
  virtual Status ResetBlocks() = 0;

  /// Fills `columns` (resized to m) with one pointer per attribute into
  /// the next block and returns its record count; 0 means exhausted.
  /// Pointers stay valid until the owning source is destroyed: a
  /// stats::StreamingMoments fed through AccumulateColumns keeps them
  /// (its deferred block Grams read them on the pool) until its
  /// FinalizeCovariance() or destruction, so the source must outlive
  /// that. Fails like the backing reader (e.g. a block checksum mismatch
  /// naming the block).
  virtual Result<size_t> NextBlockColumns(
      std::vector<const double*>* columns) = 0;
};

/// An ordered, rewindable stream of records.
class RecordSource {
 public:
  virtual ~RecordSource() = default;

  /// Record width m.
  virtual size_t num_attributes() const = 0;

  /// Rewinds to the first record. The re-streamed sequence must be
  /// byte-identical to the previous pass.
  virtual Status Reset() = 0;

  /// Fills the leading rows of `buffer` (shape: chunk_rows x m) with the
  /// next records and returns how many were written; 0 means the stream
  /// is exhausted.
  virtual Result<size_t> NextChunk(linalg::Matrix* buffer) = 0;

  /// The columnar fast-path capability, or null for sources that only
  /// serve row-major chunks. The returned stream serves the SAME records
  /// in the same order as NextChunk.
  virtual ColumnarBlockStream* columnar_blocks() { return nullptr; }
};

/// Streams an in-memory record matrix. Owns its copy when constructed by
/// value; the pointer constructor borrows (the matrix must outlive the
/// source) so multi-job runners don't duplicate big datasets.
class MatrixRecordSource final : public RecordSource {
 public:
  explicit MatrixRecordSource(linalg::Matrix records)
      : owned_(std::move(records)), records_(&owned_) {}
  explicit MatrixRecordSource(const linalg::Matrix* records)
      : records_(records) {}

  // records_ points into the object itself when owning, so moves must
  // rebind it; copies are disallowed (copy the matrix explicitly if you
  // really want a duplicate stream).
  MatrixRecordSource(MatrixRecordSource&& other) noexcept
      : owned_(std::move(other.owned_)),
        records_(other.records_ == &other.owned_ ? &owned_ : other.records_),
        next_row_(other.next_row_) {}
  MatrixRecordSource& operator=(MatrixRecordSource&& other) noexcept {
    const bool owning = other.records_ == &other.owned_;
    owned_ = std::move(other.owned_);
    records_ = owning ? &owned_ : other.records_;
    next_row_ = other.next_row_;
    return *this;
  }
  MatrixRecordSource(const MatrixRecordSource&) = delete;
  MatrixRecordSource& operator=(const MatrixRecordSource&) = delete;

  size_t num_attributes() const override { return records_->cols(); }
  Status Reset() override {
    next_row_ = 0;
    return Status::OK();
  }
  Result<size_t> NextChunk(linalg::Matrix* buffer) override;

 private:
  linalg::Matrix owned_;
  const linalg::Matrix* records_;
  size_t next_row_ = 0;
};

/// Streams a CSV file (or in-memory CSV text) chunk by chunk.
class CsvRecordSource final : public RecordSource {
 public:
  static Result<CsvRecordSource> Open(const std::string& path);
  static Result<CsvRecordSource> FromString(std::string text);

  const std::vector<std::string>& attribute_names() const {
    return reader_.attribute_names();
  }
  size_t num_attributes() const override { return reader_.num_attributes(); }
  Status Reset() override { return reader_.Reset(); }
  Result<size_t> NextChunk(linalg::Matrix* buffer) override {
    return reader_.ReadChunk(buffer);
  }

 private:
  explicit CsvRecordSource(data::CsvChunkReader reader)
      : reader_(std::move(reader)) {}

  data::CsvChunkReader reader_;
};

/// Streams a memory-mapped column-store file (data::ColumnStoreReader):
/// record n's bytes are at a closed-form offset, so chunking is a strided
/// gather out of the page cache and Reset() is free. Block checksums are
/// verified on first touch; a corrupt block surfaces as the reader's
/// InvalidArgument naming the block, never a crash. Also serves the
/// columnar fast path (zero-copy BlockColumn slices).
class ColumnStoreRecordSource final : public RecordSource,
                                      public ColumnarBlockStream {
 public:
  /// Fails like data::ColumnStoreReader::Open (bad magic/version,
  /// checksum or size mismatch, unreadable file). `options` enables
  /// eager whole-file verification and block-parallel reads.
  static Result<ColumnStoreRecordSource> Open(
      const std::string& path, data::ColumnStoreReadOptions options = {});

  const std::vector<std::string>& attribute_names() const {
    return reader_.attribute_names();
  }
  size_t num_records() const { return reader_.num_records(); }
  size_t num_attributes() const override { return reader_.num_attributes(); }
  Status Reset() override {
    next_row_ = 0;
    return Status::OK();
  }
  Result<size_t> NextChunk(linalg::Matrix* buffer) override;

  ColumnarBlockStream* columnar_blocks() override { return this; }
  Status ResetBlocks() override {
    next_block_ = 0;
    return Status::OK();
  }
  Result<size_t> NextBlockColumns(
      std::vector<const double*>* columns) override;

 private:
  explicit ColumnStoreRecordSource(data::ColumnStoreReader reader)
      : reader_(std::move(reader)) {}

  data::ColumnStoreReader reader_;
  size_t next_row_ = 0;
  size_t next_block_ = 0;
};

/// Streams a sharded store (manifest + N `.rrcs` shards,
/// data::ShardedStoreReader) as ONE logical record stream — shard
/// boundaries are invisible to consumers, so the attack over a manifest
/// is bitwise identical to the attack over the equivalent single file.
/// Shards open lazily; every shard-level failure (missing/truncated/
/// swapped/resealed shard, schema mismatch) surfaces as a Status naming
/// the shard. Serves the columnar fast path across shards (each shard's
/// blocks in order).
class ShardedRecordSource final : public RecordSource,
                                  public ColumnarBlockStream {
 public:
  /// Fails like data::ReadShardManifest; shard files are not touched
  /// until their rows are. `store_options` applies to every shard open.
  static Result<ShardedRecordSource> Open(
      const std::string& manifest_path,
      data::ColumnStoreReadOptions store_options = {});

  const std::vector<std::string>& attribute_names() const {
    return reader_.attribute_names();
  }
  size_t num_records() const { return reader_.num_records(); }
  size_t num_shards() const { return reader_.num_shards(); }
  size_t num_attributes() const override { return reader_.num_attributes(); }
  Status Reset() override {
    next_row_ = 0;
    return Status::OK();
  }
  Result<size_t> NextChunk(linalg::Matrix* buffer) override;

  ColumnarBlockStream* columnar_blocks() override { return this; }
  Status ResetBlocks() override {
    block_shard_ = 0;
    block_in_shard_ = 0;
    return Status::OK();
  }
  Result<size_t> NextBlockColumns(
      std::vector<const double*>* columns) override;

 private:
  explicit ShardedRecordSource(data::ShardedStoreReader reader)
      : reader_(std::move(reader)) {}

  data::ShardedStoreReader reader_;
  size_t next_row_ = 0;
  size_t block_shard_ = 0;
  size_t block_in_shard_ = 0;
};

/// Streams a PINNED rolling-store snapshot
/// (data::RollingStoreSnapshotReader) — the attack scheduler's input.
/// Serves the exact record order and block geometry ShardedRecordSource
/// serves over the same manifest, so an attack through this source is
/// bitwise identical to one through ShardedRecordSource::Open on the
/// same published snapshot — but because every shard is pinned up
/// front, a concurrent writer's rotations and retention can never fail
/// a read mid-attack. Construct from RollingStoreSnapshotReader::Open
/// (or ::Pin); takes ownership of the snapshot.
class SnapshotRecordSource final : public RecordSource,
                                   public ColumnarBlockStream {
 public:
  explicit SnapshotRecordSource(data::RollingStoreSnapshotReader snapshot)
      : snapshot_(std::move(snapshot)) {}

  const std::vector<std::string>& attribute_names() const {
    return snapshot_.attribute_names();
  }
  size_t num_records() const { return snapshot_.num_records(); }
  size_t num_shards() const { return snapshot_.num_shards(); }
  const data::ShardManifest& manifest() const { return snapshot_.manifest(); }
  size_t num_attributes() const override {
    return snapshot_.num_attributes();
  }
  Status Reset() override {
    next_row_ = 0;
    return Status::OK();
  }
  Result<size_t> NextChunk(linalg::Matrix* buffer) override;

  ColumnarBlockStream* columnar_blocks() override { return this; }
  Status ResetBlocks() override {
    block_shard_ = 0;
    block_in_shard_ = 0;
    return Status::OK();
  }
  Result<size_t> NextBlockColumns(
      std::vector<const double*>* columns) override;

 private:
  data::RollingStoreSnapshotReader snapshot_;
  size_t next_row_ = 0;
  size_t block_shard_ = 0;
  size_t block_in_shard_ = 0;
};

/// Streams `num_records` i.i.d. draws from N(mean, covariance) — the
/// §7.1 population served as a stream instead of a matrix. Reset()
/// restarts the pseudo-random draw sequence from the seed, so every pass
/// regenerates identical records without storing any of them.
///
/// Records are generated in fixed stats::kBatchBlockRows blocks on the
/// Philox substrate: full blocks inside a chunk go straight into the
/// caller's buffer in parallel, edge blocks are generated whole into a
/// one-block cache and sliced (consecutive small chunks reuse the cache).
/// Record i is a pure function of (seed, i), so the stream is bitwise
/// identical for every chunk size and thread count — and also across
/// Reset(), which costs nothing.
class MvnRecordSource final : public RecordSource {
 public:
  /// Fails like MultivariateNormalSampler::Create (asymmetric /
  /// indefinite covariance, mean length mismatch).
  static Result<MvnRecordSource> Create(
      const linalg::Vector& mean, const linalg::Matrix& covariance,
      size_t num_records, uint64_t seed);

  size_t num_attributes() const override { return sampler_.dimension(); }
  Status Reset() override {
    served_ = 0;
    return Status::OK();
  }
  Result<size_t> NextChunk(linalg::Matrix* buffer) override;

  /// Worker budget for the parallel block generation.
  void set_parallel_options(const ParallelOptions& options) {
    parallel_ = options;
  }

 private:
  MvnRecordSource(stats::MultivariateNormalSampler sampler, size_t num_records,
                  uint64_t seed)
      : sampler_(std::move(sampler)),
        num_records_(num_records),
        base_(seed, kMvnStreamTag) {}

  /// Stream-id tag separating this source's substrate streams from other
  /// consumers of the same seed (e.g. the perturbing decorator).
  static constexpr uint64_t kMvnStreamTag = 0x4D564E;  // "MVN"

  stats::MultivariateNormalSampler sampler_;
  size_t num_records_;
  stats::Philox base_;
  ParallelOptions parallel_;
  size_t served_ = 0;
  // One-block cache for chunk boundaries that straddle a block.
  linalg::Matrix block_cache_;
  uint64_t cached_block_ = ~uint64_t{0};
};

/// Decorator: serves the inner stream disguised as Y = X + R, drawing R
/// from `scheme` with its own seeded noise stream. Reset() rewinds both
/// the inner source and the noise stream, so repeated passes observe the
/// same disguised records — the attacker's view of a randomized report
/// stream. `scheme` is borrowed and must outlive the source.
///
/// The noise of record i is a pure function of (seed, i) via the
/// scheme's AddNoiseAt (vectorized fills, parallel over fixed blocks).
class PerturbingRecordSource final : public RecordSource {
 public:
  PerturbingRecordSource(std::unique_ptr<RecordSource> inner,
                         const perturb::RandomizationScheme* scheme,
                         uint64_t seed);

  size_t num_attributes() const override { return inner_->num_attributes(); }
  Status Reset() override {
    served_ = 0;
    return inner_->Reset();
  }
  Result<size_t> NextChunk(linalg::Matrix* buffer) override;

  /// Worker budget for the parallel noise generation.
  void set_parallel_options(const ParallelOptions& options) {
    parallel_ = options;
  }

 private:
  /// Stream-id tag separating the noise streams from the inner source's.
  static constexpr uint64_t kNoiseStreamTag = 0x4E4F495345;  // "NOISE"

  std::unique_ptr<RecordSource> inner_;
  const perturb::RandomizationScheme* scheme_;
  stats::Philox base_;
  ParallelOptions parallel_;
  size_t served_ = 0;
};

}  // namespace pipeline
}  // namespace randrecon

#endif  // RANDRECON_PIPELINE_RECORD_SOURCE_H_
