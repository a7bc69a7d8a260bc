#include "data/column_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/check.h"
#include "common/failpoint.h"
#include "common/metrics.h"
#include "data/csv.h"
#include "data/file_io.h"
#include "data/shard_store.h"

// The format is little-endian on disk and the reader/writer serialize
// integers and doubles with memcpy, so a little-endian host is required
// (every target this library builds for). A big-endian port would add
// byte swaps at the (de)serialization points below.
static_assert(__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__,
              "column store I/O assumes a little-endian host");

namespace randrecon {
namespace data {

const char kColumnStoreMagic[8] = {'R', 'R', 'C', 'O', 'L', 'S', 'T', 'R'};

namespace {

// Fixed header offsets (docs/FORMAT.md §2).
constexpr size_t kVersionOffset = 8;
constexpr size_t kHeaderBytesOffset = 12;
constexpr size_t kNumRecordsOffset = 16;
constexpr size_t kNumAttributesOffset = 24;
constexpr size_t kBlockRowsOffset = 32;
constexpr size_t kNamesOffset = 40;
constexpr size_t kHeaderAlignment = 64;

// RRH64 constants (docs/FORMAT.md §4).
constexpr uint64_t kHashP1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kHashP2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kHashP3 = 0x165667B19E3779F9ull;

inline uint64_t Rotl64(uint64_t v, int s) { return (v << s) | (v >> (64 - s)); }

void AppendU32(std::string* out, uint32_t value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

void AppendU64(std::string* out, uint64_t value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

void PatchU32(std::string* buffer, size_t offset, uint32_t value) {
  std::memcpy(&(*buffer)[offset], &value, sizeof(value));
}

void PatchU64(std::string* buffer, size_t offset, uint64_t value) {
  std::memcpy(&(*buffer)[offset], &value, sizeof(value));
}

uint32_t LoadU32(const uint8_t* bytes) {
  uint32_t value;
  std::memcpy(&value, bytes, sizeof(value));
  return value;
}

uint64_t LoadU64(const uint8_t* bytes) {
  uint64_t value;
  std::memcpy(&value, bytes, sizeof(value));
  return value;
}

std::string HexU64(uint64_t value) {
  char buffer[19];
  std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

std::string StorePrefix(const std::string& path) {
  return "column store '" + path + "': ";
}

// The IO seams of the single-file store (common/failpoint.h). Shards of
// a sharded store are ordinary column stores, so these fire for shard
// files too; the sharded layer adds its own shard.* / manifest.* points.
Failpoint fp_block_write("store.block_write");  ///< Before a block write.
Failpoint fp_seal("store.seal");        ///< Before the header patch write.
Failpoint fp_fsync("store.fsync");      ///< Before fsync of the temp file.
Failpoint fp_rename("store.rename");    ///< Before the temp -> final rename.
Failpoint fp_read_block("store.read_block");  ///< Before a block verify.

// Hot-path telemetry (common/metrics.h) — same registration idiom as
// the failpoints above: one relaxed atomic add per event, nothing the
// data path branches on.
metrics::Counter m_blocks_written("store.blocks_written");
metrics::Counter m_bytes_written("store.bytes_written");
metrics::Counter m_seals("store.seals");
metrics::Counter m_opens("store.opens");
metrics::Counter m_blocks_verified("store.blocks_verified");
metrics::Counter m_verify_short_circuits("store.verify_short_circuits");
metrics::Counter m_rows_read("store.rows_read");

}  // namespace

uint64_t ColumnStoreHash(const void* data, size_t size) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  uint64_t acc[4] = {kHashP1 * 1, kHashP1 * 2, kHashP1 * 3, kHashP1 * 4};
  auto mix_stripe = [&acc](const uint8_t* stripe) {
    for (int lane = 0; lane < 4; ++lane) {
      uint64_t word;
      std::memcpy(&word, stripe + 8 * lane, sizeof(word));
      acc[lane] = Rotl64(acc[lane] ^ (word * kHashP2), 27) * kHashP1;
    }
  };
  size_t offset = 0;
  for (; offset + 32 <= size; offset += 32) mix_stripe(bytes + offset);
  if (offset < size) {
    uint8_t tail[32] = {0};  // Short input is zero-padded to one stripe.
    std::memcpy(tail, bytes + offset, size - offset);
    mix_stripe(tail);
  }
  uint64_t h = Rotl64(acc[0], 1) + Rotl64(acc[1], 7) + Rotl64(acc[2], 12) +
               Rotl64(acc[3], 18);
  h ^= static_cast<uint64_t>(size);
  h ^= h >> 29;
  h *= kHashP3;
  h ^= h >> 32;
  return h;
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

Result<ColumnStoreWriter> ColumnStoreWriter::Create(
    const std::string& path, std::vector<std::string> column_names,
    ColumnStoreOptions options) {
  if (column_names.empty()) {
    return Status::InvalidArgument(StorePrefix(path) +
                                   "at least one column is required");
  }
  if (options.block_rows == 0) {
    return Status::InvalidArgument(StorePrefix(path) +
                                   "block_rows must be >= 1");
  }
  for (size_t i = 0; i < column_names.size(); ++i) {
    for (size_t j = i + 1; j < column_names.size(); ++j) {
      if (column_names[i] == column_names[j]) {
        return Status::InvalidArgument(StorePrefix(path) +
                                       "duplicate column name '" +
                                       column_names[i] + "'");
      }
    }
  }

  std::string prefix;
  prefix.append(kColumnStoreMagic, sizeof(kColumnStoreMagic));
  AppendU32(&prefix, kColumnStoreVersion);
  AppendU32(&prefix, 0);  // header_bytes, patched below.
  AppendU64(&prefix, 0);  // num_records, patched by Close().
  AppendU64(&prefix, column_names.size());
  AppendU64(&prefix, options.block_rows);
  for (const std::string& name : column_names) {
    if (name.size() > UINT32_MAX) {
      return Status::InvalidArgument(StorePrefix(path) + "column name too long");
    }
    AppendU32(&prefix, static_cast<uint32_t>(name.size()));
    prefix.append(name);
  }
  const size_t unpadded = prefix.size() + sizeof(uint64_t);
  const size_t header_bytes =
      (unpadded + kHeaderAlignment - 1) / kHeaderAlignment * kHeaderAlignment;
  if (header_bytes > UINT32_MAX) {
    return Status::InvalidArgument(StorePrefix(path) +
                                   "column names exceed the 4 GiB header limit");
  }
  PatchU32(&prefix, kHeaderBytesOffset, static_cast<uint32_t>(header_bytes));

  // All bytes stream into the temp file; Close() renames it over `path`
  // (docs/FORMAT.md §8), so the final name never holds a partial store.
  std::ofstream file(TempPathFor(path), std::ios::binary | std::ios::trunc);
  if (!file.is_open()) {
    return Status::IoError(StorePrefix(path) + "cannot open temp file '" +
                           TempPathFor(path) + "' for writing");
  }
  // Deliberately write a MISMATCHED header hash (bitwise NOT of the real
  // one): a file from a writer that crashed before Close() must fail the
  // reader's header-checksum validation instead of passing as a sealed
  // empty store. Close() patches in the real hash (docs/FORMAT.md §2.2).
  const uint64_t unsealed_hash =
      ~ColumnStoreHash(prefix.data(), prefix.size());
  file.write(prefix.data(), static_cast<std::streamsize>(prefix.size()));
  file.write(reinterpret_cast<const char*>(&unsealed_hash),
             sizeof(unsealed_hash));
  const std::string padding(header_bytes - unpadded, '\0');
  file.write(padding.data(), static_cast<std::streamsize>(padding.size()));
  if (!file) {
    return Status::IoError(StorePrefix(path) + "header write failed");
  }
  return ColumnStoreWriter(std::move(file), path, std::move(column_names),
                           options.block_rows, header_bytes, std::move(prefix));
}

ColumnStoreWriter::ColumnStoreWriter(std::ofstream file, std::string path,
                                     std::vector<std::string> names,
                                     size_t block_rows, size_t header_bytes,
                                     std::string header_prefix)
    : file_(std::move(file)),
      path_(std::move(path)),
      temp_path_(TempPathFor(path_)),
      names_(std::move(names)),
      block_rows_(block_rows),
      header_bytes_(header_bytes),
      header_prefix_(std::move(header_prefix)),
      block_(names_.size() * block_rows, 0.0) {}

ColumnStoreWriter::ColumnStoreWriter(ColumnStoreWriter&& other) noexcept
    : file_(std::move(other.file_)),
      path_(std::move(other.path_)),
      temp_path_(std::move(other.temp_path_)),
      names_(std::move(other.names_)),
      block_rows_(other.block_rows_),
      header_bytes_(other.header_bytes_),
      header_prefix_(std::move(other.header_prefix_)),
      block_(std::move(other.block_)),
      rows_in_block_(other.rows_in_block_),
      rows_written_(other.rows_written_),
      deferred_error_(std::move(other.deferred_error_)),
      closed_(other.closed_) {
  other.closed_ = true;  // The hollowed-out source must not try to seal.
}

ColumnStoreWriter& ColumnStoreWriter::operator=(
    ColumnStoreWriter&& other) noexcept {
  if (this == &other) return *this;
  // Seal the store this writer was building before abandoning it: a
  // member-wise move would close the old ofstream without flushing the
  // partial block or patching the header, silently losing the file.
  if (!closed_) Close();  // Best-effort; errors surface via explicit Close().
  file_ = std::move(other.file_);
  path_ = std::move(other.path_);
  temp_path_ = std::move(other.temp_path_);
  names_ = std::move(other.names_);
  block_rows_ = other.block_rows_;
  header_bytes_ = other.header_bytes_;
  header_prefix_ = std::move(other.header_prefix_);
  block_ = std::move(other.block_);
  rows_in_block_ = other.rows_in_block_;
  rows_written_ = other.rows_written_;
  deferred_error_ = std::move(other.deferred_error_);
  closed_ = other.closed_;
  other.closed_ = true;
  return *this;
}

ColumnStoreWriter::~ColumnStoreWriter() {
  if (!closed_) Close();  // Best-effort; errors surface via explicit Close().
}

Status ColumnStoreWriter::Append(const linalg::Matrix& chunk, size_t num_rows) {
  if (chunk.cols() != names_.size()) {
    return Status::InvalidArgument(
        StorePrefix(path_) + "chunk has " + std::to_string(chunk.cols()) +
        " columns, store has " + std::to_string(names_.size()));
  }
  RR_CHECK(num_rows <= chunk.rows())
      << "ColumnStoreWriter::Append: num_rows exceeds chunk";
  return Append(chunk.data(), num_rows);
}

Status ColumnStoreWriter::Append(const double* rows, size_t num_rows) {
  if (closed_) {
    return Status::FailedPrecondition(StorePrefix(path_) +
                                      "Append after Close");
  }
  if (!deferred_error_.ok()) return deferred_error_;
  const size_t m = names_.size();
  size_t consumed = 0;
  while (consumed < num_rows) {
    const size_t take =
        std::min(block_rows_ - rows_in_block_, num_rows - consumed);
    // Row-major rows scatter into block-local columns (FORMAT.md §3).
    for (size_t j = 0; j < m; ++j) {
      double* column = block_.data() + j * block_rows_ + rows_in_block_;
      const double* source = rows + consumed * m + j;
      for (size_t r = 0; r < take; ++r) column[r] = source[r * m];
    }
    rows_in_block_ += take;
    consumed += take;
    if (rows_in_block_ == block_rows_) RR_RETURN_NOT_OK(FlushBlock());
  }
  rows_written_ += num_rows;
  return Status::OK();
}

Status ColumnStoreWriter::FlushBlock() {
  if (rows_in_block_ == 0) return Status::OK();
  if (rows_in_block_ < block_rows_) {
    // Final partial block: each column's tail rows still hold the
    // previous block's data and must go out as zeros (FORMAT.md §3).
    // Full blocks are overwritten whole, so only this flush pays.
    for (size_t j = 0; j < names_.size(); ++j) {
      double* column = block_.data() + j * block_rows_;
      std::fill(column + rows_in_block_, column + block_rows_, 0.0);
    }
  }
  const size_t payload_bytes = block_.size() * sizeof(double);
  const uint64_t block_hash = ColumnStoreHash(block_.data(), payload_bytes);
  Status status = [&]() -> Status {
    RR_FAILPOINT(fp_block_write);
    file_.write(reinterpret_cast<const char*>(block_.data()),
                static_cast<std::streamsize>(payload_bytes));
    file_.write(reinterpret_cast<const char*>(&block_hash),
                sizeof(block_hash));
    if (!file_) {
      return Status::IoError(StorePrefix(path_) + "block write failed after " +
                             std::to_string(rows_written_) + " records");
    }
    return Status::OK();
  }();
  if (!status.ok()) {
    deferred_error_ = status;  // A lost block must never seal.
    return status;
  }
  m_blocks_written.Add(1);
  m_bytes_written.Add(payload_bytes + sizeof(block_hash));
  rows_in_block_ = 0;
  return Status::OK();
}

Status ColumnStoreWriter::Close() {
  if (closed_) return Status::OK();
  closed_ = true;
  const Status sealed = Seal();
  if (!sealed.ok()) {
    // The store never reached its final name; don't leave the temp file
    // masquerading as work in progress (best-effort — a crash-grade
    // failure leaves it for RecoverShardedStore's orphan sweep).
    if (file_.is_open()) file_.close();
    std::remove(temp_path_.c_str());
  }
  return sealed;
}

Status ColumnStoreWriter::Seal() {
  if (!deferred_error_.ok()) return deferred_error_;
  if (!file_.is_open()) {
    return Status::IoError(StorePrefix(path_) + "file is not open");
  }
  RR_RETURN_NOT_OK(FlushBlock());
  RR_FAILPOINT(fp_seal);
  // Patch the record count and re-seal the header (docs/FORMAT.md §2).
  PatchU64(&header_prefix_, kNumRecordsOffset, rows_written_);
  const uint64_t header_hash =
      ColumnStoreHash(header_prefix_.data(), header_prefix_.size());
  file_.seekp(0);
  file_.write(header_prefix_.data(),
              static_cast<std::streamsize>(header_prefix_.size()));
  file_.write(reinterpret_cast<const char*>(&header_hash), sizeof(header_hash));
  file_.close();
  if (file_.fail()) {
    return Status::IoError(StorePrefix(path_) + "closing write failed");
  }
  // Durable finalization (docs/FORMAT.md §8): the sealed bytes reach the
  // platters before the rename publishes them, and the rename reaches
  // the directory before anyone trusts the final name.
  RR_FAILPOINT(fp_fsync);
  RR_RETURN_NOT_OK(FsyncFile(temp_path_));
  RR_FAILPOINT(fp_rename);
  RR_RETURN_NOT_OK(AtomicRename(temp_path_, path_));
  RR_RETURN_NOT_OK(FsyncParentDirectory(path_));
  m_seals.Add(1);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

Result<ColumnStoreReader> ColumnStoreReader::Open(const std::string& path,
                                                  ColumnStoreReadOptions options) {
  const std::string prefix = StorePrefix(path);
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IoError(prefix + "cannot open: " + std::strerror(errno));
  }
  struct stat file_stat;
  if (::fstat(fd, &file_stat) != 0) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return Status::IoError(prefix + "cannot stat: " + detail);
  }
  const size_t file_size = static_cast<size_t>(file_stat.st_size);
  if (file_size < kHeaderAlignment) {
    ::close(fd);
    return Status::InvalidArgument(
        prefix + "file is " + std::to_string(file_size) +
        " bytes, smaller than the minimum " +
        std::to_string(kHeaderAlignment) + "-byte header");
  }
  void* raw_mapping = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  if (raw_mapping == MAP_FAILED) {
    const std::string detail = std::strerror(errno);
    ::close(fd);
    return Status::IoError(prefix + "mmap failed: " + detail);
  }

  ColumnStoreReader reader;
  reader.path_ = path;
  reader.fd_ = fd;
  reader.mapping_ = static_cast<const uint8_t*>(raw_mapping);
  reader.file_size_ = file_size;
  reader.options_ = options;
  const uint8_t* bytes = reader.mapping_;

  // From here every failure path destroys `reader`, which unmaps/closes.
  if (std::memcmp(bytes, kColumnStoreMagic, sizeof(kColumnStoreMagic)) != 0) {
    return Status::InvalidArgument(
        prefix + "bad magic at offset 0 — not a column-store file");
  }
  const uint32_t version = LoadU32(bytes + kVersionOffset);
  if (version == 0 || version > kColumnStoreVersion) {
    return Status::InvalidArgument(
        prefix + "unsupported format version " + std::to_string(version) +
        " (this build reads versions 1.." +
        std::to_string(kColumnStoreVersion) + ")");
  }
  reader.header_bytes_ = LoadU32(bytes + kHeaderBytesOffset);
  reader.num_records_ = LoadU64(bytes + kNumRecordsOffset);
  const uint64_t num_attributes = LoadU64(bytes + kNumAttributesOffset);
  reader.block_rows_ = LoadU64(bytes + kBlockRowsOffset);
  if (num_attributes == 0 || reader.block_rows_ == 0) {
    return Status::InvalidArgument(
        prefix + "header declares num_attributes " +
        std::to_string(num_attributes) + ", block_rows " +
        std::to_string(reader.block_rows_) + " (both must be >= 1)");
  }
  if (reader.header_bytes_ < kNamesOffset + sizeof(uint64_t) ||
      reader.header_bytes_ > file_size) {
    return Status::InvalidArgument(
        prefix + "header_bytes " + std::to_string(reader.header_bytes_) +
        " outside the valid range [" +
        std::to_string(kNamesOffset + sizeof(uint64_t)) + ", " +
        std::to_string(file_size) + "]");
  }

  // Column names: u32 length + bytes each, all inside the header region
  // and leaving room for the trailing header checksum. Bound the count
  // BEFORE reserving: num_attributes is still unverified here (the
  // header hash sits after the names), and a corrupt count must fail as
  // a Status, not as a length_error/bad_alloc from reserve().
  if (num_attributes > (reader.header_bytes_ - kNamesOffset) / sizeof(uint32_t)) {
    return Status::InvalidArgument(
        prefix + "header declares " + std::to_string(num_attributes) +
        " columns, more than its " + std::to_string(reader.header_bytes_) +
        "-byte header could possibly name");
  }
  size_t offset = kNamesOffset;
  reader.names_.reserve(num_attributes);
  for (uint64_t j = 0; j < num_attributes; ++j) {
    if (offset + sizeof(uint32_t) + sizeof(uint64_t) > reader.header_bytes_) {
      return Status::InvalidArgument(
          prefix + "column name " + std::to_string(j) +
          " overruns the header at offset " + std::to_string(offset));
    }
    const uint32_t length = LoadU32(bytes + offset);
    offset += sizeof(uint32_t);
    if (offset + length + sizeof(uint64_t) > reader.header_bytes_) {
      return Status::InvalidArgument(
          prefix + "column name " + std::to_string(j) + " (length " +
          std::to_string(length) + ") overruns the header at offset " +
          std::to_string(offset));
    }
    reader.names_.emplace_back(reinterpret_cast<const char*>(bytes + offset),
                               length);
    offset += length;
  }
  const uint64_t stored_header_hash = LoadU64(bytes + offset);
  const uint64_t computed_header_hash = ColumnStoreHash(bytes, offset);
  if (stored_header_hash != computed_header_hash) {
    return Status::InvalidArgument(
        prefix + "header checksum mismatch over bytes [0, " +
        std::to_string(offset) + ") — stored " + HexU64(stored_header_hash) +
        ", computed " + HexU64(computed_header_hash));
  }
  reader.header_hash_ = stored_header_hash;

  // Geometry, overflow-checked: a hostile header must fail cleanly.
  uint64_t payload_values = 0;
  uint64_t payload_bytes = 0;
  if (__builtin_mul_overflow(num_attributes, reader.block_rows_,
                             &payload_values) ||
      __builtin_mul_overflow(payload_values, sizeof(double), &payload_bytes)) {
    return Status::InvalidArgument(
        prefix + "block geometry overflows (" +
        std::to_string(num_attributes) + " columns x " +
        std::to_string(reader.block_rows_) + " rows)");
  }
  reader.block_stride_ = payload_bytes + sizeof(uint64_t);
  // Ceil-div spelled without `num_records + block_rows - 1`, which wraps
  // for a hostile num_records near UINT64_MAX: a wrapped num_blocks_ of 0
  // would let a resealed header-only file pass the size cross-check below
  // and send ReadRows past the mapping. This form cannot overflow, so the
  // lie is caught as a size disagreement like any other.
  reader.num_blocks_ = reader.num_records_ / reader.block_rows_ +
                       (reader.num_records_ % reader.block_rows_ != 0 ? 1 : 0);
  uint64_t blocks_bytes = 0;
  uint64_t expected_size = 0;
  if (__builtin_mul_overflow(reader.num_blocks_, reader.block_stride_,
                             &blocks_bytes) ||
      __builtin_add_overflow(blocks_bytes, reader.header_bytes_,
                             &expected_size) ||
      expected_size != file_size) {
    return Status::InvalidArgument(
        prefix + "header declares " + std::to_string(reader.num_records_) +
        " records in " + std::to_string(reader.num_blocks_) + " blocks of " +
        std::to_string(reader.block_rows_) + " rows = " +
        std::to_string(expected_size) + " bytes, but the file is " +
        std::to_string(file_size) +
        " bytes — truncated file or record-count disagreement");
  }
  reader.block_verified_.assign(reader.num_blocks_, 0);
  // About two blocks per worker keeps every worker busy through one
  // look-ahead wave; a serial reader hashes each block as it arrives.
  const size_t threads =
      EffectiveThreadCount(options.parallel, reader.num_blocks_);
  reader.lookahead_blocks_ = threads > 1 ? 2 * threads : 1;
  if (options.eager_verify) {
    // Archival mode: verify the whole data section up front (block-
    // parallel; per-block work is disjoint) so later reads serve from an
    // already-proven mapping and a corrupt tail fails at Open, not
    // mid-stream.
    RR_RETURN_NOT_OK(reader.VerifyBlocksInRange(0, reader.num_blocks_));
  }
  m_opens.Add(1);
  return reader;
}

ColumnStoreReader::ColumnStoreReader(ColumnStoreReader&& other) noexcept {
  *this = std::move(other);
}

ColumnStoreReader& ColumnStoreReader::operator=(
    ColumnStoreReader&& other) noexcept {
  if (this == &other) return *this;
  ReleaseMapping();
  path_ = std::move(other.path_);
  fd_ = other.fd_;
  mapping_ = other.mapping_;
  file_size_ = other.file_size_;
  header_bytes_ = other.header_bytes_;
  num_records_ = other.num_records_;
  block_rows_ = other.block_rows_;
  num_blocks_ = other.num_blocks_;
  block_stride_ = other.block_stride_;
  header_hash_ = other.header_hash_;
  options_ = other.options_;
  names_ = std::move(other.names_);
  block_verified_ = std::move(other.block_verified_);
  other.next_task_.Wait();
  lookahead_blocks_ = other.lookahead_blocks_;
  ahead_begin_ = other.ahead_begin_;
  ahead_hashes_ = std::move(other.ahead_hashes_);
  next_begin_ = other.next_begin_;
  next_hashes_ = std::move(other.next_hashes_);
  other.fd_ = -1;
  other.mapping_ = nullptr;
  return *this;
}

ColumnStoreReader::~ColumnStoreReader() { ReleaseMapping(); }

void ColumnStoreReader::ReleaseMapping() {
  next_task_.Wait();  // Its hashers read the mapping.
  if (mapping_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(mapping_), file_size_);
    mapping_ = nullptr;
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

size_t ColumnStoreReader::rows_in_block(size_t block) const {
  RR_CHECK(block < num_blocks_) << "rows_in_block: block out of range";
  const size_t begin = block * block_rows_;
  return std::min(block_rows_, num_records_ - begin);
}

uint64_t ColumnStoreReader::ComputeBlockHash(size_t block) const {
  return ColumnStoreHash(block_payload(block),
                         block_stride_ - sizeof(uint64_t));
}

bool ColumnStoreReader::HashedAhead(size_t block) const {
  return block >= ahead_begin_ && block - ahead_begin_ < ahead_hashes_.size();
}

void ColumnStoreReader::HashAhead(size_t block) {
  next_task_.Wait();
  if (block >= next_begin_ && block - next_begin_ < next_hashes_.size()) {
    ahead_begin_ = next_begin_;
    ahead_hashes_.swap(next_hashes_);
  } else {
    ahead_begin_ = block;
    ahead_hashes_.resize(std::min(lookahead_blocks_, num_blocks_ - block));
    // Each task hashes distinct blocks into its own slots; nothing
    // observable happens here — VerifyBlock reports each block in order.
    ParallelFor(
        0, ahead_hashes_.size(),
        [&](size_t begin, size_t end) {
          for (size_t slot = begin; slot < end; ++slot) {
            if (!block_verified_[block + slot]) {
              ahead_hashes_[slot] = ComputeBlockHash(block + slot);
            }
          }
        },
        options_.parallel);
  }
  next_begin_ = ahead_begin_ + ahead_hashes_.size();
  next_hashes_.clear();
  if (lookahead_blocks_ == 1 || next_begin_ == num_blocks_) return;
  // The next window is hashed while the caller consumes this one. The
  // wave captures plain pointers, not `this`; every move, unmap and
  // destruction of the reader joins it first.
  next_hashes_.resize(std::min(lookahead_blocks_, num_blocks_ - next_begin_));
  const uint8_t* first_payload = block_payload(next_begin_);
  const size_t stride = block_stride_;
  uint64_t* slots = next_hashes_.data();
  next_task_ = StartParallelFor(
      0, next_hashes_.size(),
      [first_payload, stride, slots](size_t begin, size_t end) {
        for (size_t slot = begin; slot < end; ++slot) {
          slots[slot] = ColumnStoreHash(first_payload + slot * stride,
                                        stride - sizeof(uint64_t));
        }
      },
      options_.parallel);
}

Status ColumnStoreReader::VerifyBlock(size_t block) {
  if (block_verified_[block]) {
    m_verify_short_circuits.Add(1);
    return Status::OK();
  }
  RR_FAILPOINT(fp_read_block);
  const uint8_t* payload = block_payload(block);
  const size_t payload_bytes = block_stride_ - sizeof(uint64_t);
  const uint64_t stored = LoadU64(payload + payload_bytes);
  const uint64_t computed = HashedAhead(block)
                                ? ahead_hashes_[block - ahead_begin_]
                                : ComputeBlockHash(block);
  if (stored != computed) {
    return Status::InvalidArgument(
        StorePrefix(path_) + "block " + std::to_string(block) +
        " checksum mismatch at offset " +
        std::to_string(header_bytes_ + block * block_stride_) + " — stored " +
        HexU64(stored) + ", computed " + HexU64(computed) +
        " (see docs/FORMAT.md)");
  }
  block_verified_[block] = 1;
  m_blocks_verified.Add(1);
  return Status::OK();
}

Status ColumnStoreReader::VerifyBlocksInRange(size_t block_begin,
                                              size_t block_end) {
  if (block_begin >= block_end) return Status::OK();
  // Hot-path short circuit: chunked streaming re-reads ranges whose
  // blocks were all verified on an earlier pass — skip the status
  // vector and the pool dispatch entirely then (a byte scan is ~free
  // next to the gather that follows).
  bool all_verified = true;
  for (size_t block = block_begin; block < block_end && all_verified;
       ++block) {
    all_verified = block_verified_[block] != 0;
  }
  if (all_verified) {
    m_verify_short_circuits.Add(block_end - block_begin);
    return Status::OK();
  }
  // Each task verifies a distinct block and writes only its own bitmap
  // byte and status slot, so the pass is thread-safe and the surviving
  // diagnostic (lowest failing block) is thread-count independent.
  std::vector<Status> statuses(block_end - block_begin);
  ParallelFor(
      block_begin, block_end,
      [&](size_t begin, size_t end) {
        for (size_t block = begin; block < end; ++block) {
          statuses[block - block_begin] = VerifyBlock(block);
        }
      },
      options_.parallel);
  for (Status& status : statuses) {
    if (!status.ok()) return std::move(status);
  }
  return Status::OK();
}

Status ColumnStoreReader::ReadRows(size_t row_begin, size_t num_rows,
                                   linalg::Matrix* buffer) {
  RR_CHECK_EQ(buffer->cols(), names_.size())
      << "ColumnStoreReader: buffer width mismatch";
  RR_CHECK(num_rows <= buffer->rows())
      << "ColumnStoreReader: num_rows exceeds buffer";
  return ReadRowsInto(row_begin, num_rows, buffer->data());
}

Status ColumnStoreReader::ReadRowsInto(size_t row_begin, size_t num_rows,
                                       double* rows) {
  const size_t m = names_.size();
  if (row_begin + num_rows > num_records_ || row_begin + num_rows < row_begin) {
    return Status::InvalidArgument(
        StorePrefix(path_) + "row range [" + std::to_string(row_begin) + ", " +
        std::to_string(row_begin + num_rows) + ") exceeds the " +
        std::to_string(num_records_) + "-record store");
  }
  if (num_rows == 0) return Status::OK();
  const size_t block_begin = row_begin / block_rows_;
  const size_t block_end = (row_begin + num_rows - 1) / block_rows_ + 1;
  // Verify first (the parallel sweep collects the lowest failing block),
  // then gather. A multi-block read gathers block-parallel: every block's
  // rows land in a disjoint slice of the caller's buffer and each copy is
  // value-preserving, so the filled bytes are identical for any thread
  // count (determinism contract 1's "self-contained index" case).
  RR_RETURN_NOT_OK(VerifyBlocksInRange(block_begin, block_end));
  ParallelFor(
      block_begin, block_end,
      [&](size_t begin, size_t end) {
        for (size_t block = begin; block < end; ++block) {
          const size_t first_row = std::max(row_begin, block * block_rows_);
          const size_t local = first_row - block * block_rows_;
          const size_t take = std::min((block + 1) * block_rows_,
                                       row_begin + num_rows) -
                              first_row;
          const size_t out_row = first_row - row_begin;
          const double* payload =
              reinterpret_cast<const double*>(block_payload(block));
          // Mapped block-local columns gather into the caller's row-major
          // rows: contiguous reads, m-strided writes.
          for (size_t j = 0; j < m; ++j) {
            const double* column = payload + j * block_rows_ + local;
            double* destination = rows + out_row * m + j;
            for (size_t r = 0; r < take; ++r) destination[r * m] = column[r];
          }
        }
      },
      options_.parallel);
  m_rows_read.Add(num_rows);
  return Status::OK();
}

uint64_t ColumnStoreReader::stored_block_hash(size_t block) const {
  RR_CHECK(block < num_blocks_) << "stored_block_hash: block out of range";
  return LoadU64(block_payload(block) + block_stride_ - sizeof(uint64_t));
}

Result<const double*> ColumnStoreReader::BlockColumn(size_t block,
                                                     size_t column) {
  RR_CHECK(block < num_blocks_ && column < names_.size())
      << "BlockColumn: index out of range";
  if (!block_verified_[block] && !HashedAhead(block)) HashAhead(block);
  RR_RETURN_NOT_OK(VerifyBlock(block));
  return reinterpret_cast<const double*>(block_payload(block)) +
         column * block_rows_;
}

// ---------------------------------------------------------------------------
// Dataset convenience + format detection.
// ---------------------------------------------------------------------------

Status WriteColumnStore(const Dataset& dataset, const std::string& path,
                        ColumnStoreOptions options) {
  RR_ASSIGN_OR_RETURN(
      ColumnStoreWriter writer,
      ColumnStoreWriter::Create(path, dataset.attribute_names(), options));
  RR_RETURN_NOT_OK(writer.Append(dataset.records(), dataset.num_records()));
  return writer.Close();
}

Result<Dataset> ReadColumnStoreDataset(const std::string& path) {
  RR_ASSIGN_OR_RETURN(ColumnStoreReader reader, ColumnStoreReader::Open(path));
  linalg::Matrix records(reader.num_records(), reader.num_attributes());
  RR_RETURN_NOT_OK(reader.ReadRows(0, reader.num_records(), &records));
  return Dataset::Create(std::move(records), reader.attribute_names());
}

Result<RecordFileFormat> DetectRecordFileFormat(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file.is_open()) {
    return Status::IoError("cannot open '" + path + "'");
  }
  char magic[sizeof(kColumnStoreMagic)];
  file.read(magic, sizeof(magic));
  if (file.gcount() == sizeof(magic)) {
    if (std::memcmp(magic, kColumnStoreMagic, sizeof(magic)) == 0) {
      return RecordFileFormat::kColumnStore;
    }
    if (std::memcmp(magic, kShardManifestMagic, sizeof(magic)) == 0) {
      return RecordFileFormat::kShardManifest;
    }
  }
  return RecordFileFormat::kCsv;  // CSV has no magic; it is the fallback.
}

Result<Dataset> ReadRecords(const std::string& path) {
  RR_ASSIGN_OR_RETURN(const RecordFileFormat format,
                      DetectRecordFileFormat(path));
  switch (format) {
    case RecordFileFormat::kColumnStore:
      return ReadColumnStoreDataset(path);
    case RecordFileFormat::kShardManifest:
      return ReadShardedStoreDataset(path);
    case RecordFileFormat::kCsv:
      break;
  }
  return ReadCsv(path);
}

}  // namespace data
}  // namespace randrecon
