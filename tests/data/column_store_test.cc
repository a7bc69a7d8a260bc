// Tests for the binary column store (src/data/column_store.h).
//
// The on-disk layout under test is specified byte-by-byte in
// docs/FORMAT.md; the corruption tests below patch files at the offsets
// that document defines (magic at 0, version at 8, num_records at 16,
// names at 40, per-block trailing checksums) and expect a Status naming
// the offending field, block, or byte offset — never a crash.

#include "data/column_store.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "common/failpoint.h"
#include "common/metrics.h"
#include "data/csv.h"
#include "data/shard_store.h"
#include "linalg/matrix_util.h"
#include "stats/rng.h"
#include "stats/streaming_moments.h"

namespace randrecon {
namespace data {
namespace {

using linalg::Matrix;

/// Unique-per-test scratch path, removed on destruction.
class ScratchFile {
 public:
  explicit ScratchFile(const std::string& name)
      : path_("column_store_test_" + name) {}
  ~ScratchFile() { std::remove(path_.c_str()); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.is_open()) << path;
  std::string bytes((std::istreambuf_iterator<char>(file)),
                    std::istreambuf_iterator<char>());
  return bytes;
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(file.is_open()) << path;
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Offset of the trailing header checksum = end of the names section
/// (docs/FORMAT.md §2): fixed fields are 40 bytes, then u32 length +
/// bytes per name.
size_t HeaderHashOffset(const std::vector<std::string>& names) {
  size_t offset = 40;
  for (const std::string& name : names) offset += 4 + name.size();
  return offset;
}

/// Re-seals the header after a test patches a header field, exactly as
/// the writer does (hash over every byte before the checksum field).
void ResealHeader(std::string* bytes, const std::vector<std::string>& names) {
  const size_t hash_offset = HeaderHashOffset(names);
  const uint64_t hash = ColumnStoreHash(bytes->data(), hash_offset);
  std::memcpy(&(*bytes)[hash_offset], &hash, sizeof(hash));
}

std::vector<std::string> Names(size_t m) {
  std::vector<std::string> names;
  for (size_t j = 0; j < m; ++j) names.push_back("a" + std::to_string(j));
  return names;
}

/// Writes `records` through the streaming writer in uneven chunk sizes,
/// exercising block-boundary straddles.
void WriteStore(const std::string& path, const Matrix& records,
                size_t block_rows) {
  ColumnStoreOptions options;
  options.block_rows = block_rows;
  auto writer = ColumnStoreWriter::Create(path, Names(records.cols()), options);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  ColumnStoreWriter store_writer = std::move(writer).value();
  size_t row = 0;
  size_t chunk_rows = 1;
  while (row < records.rows()) {
    const size_t take = std::min(chunk_rows, records.rows() - row);
    Matrix chunk = records.Block(row, row + take, 0, records.cols());
    ASSERT_TRUE(store_writer.Append(chunk, take).ok());
    row += take;
    chunk_rows = chunk_rows * 2 + 1;  // 1, 3, 7, ... uneven on purpose.
  }
  EXPECT_EQ(store_writer.rows_written(), records.rows());
  ASSERT_TRUE(store_writer.Close().ok());
}

Matrix ReadAll(const std::string& path) {
  auto reader = ColumnStoreReader::Open(path);
  EXPECT_TRUE(reader.ok()) << reader.status().ToString();
  ColumnStoreReader store_reader = std::move(reader).value();
  Matrix records(store_reader.num_records(), store_reader.num_attributes());
  EXPECT_TRUE(
      store_reader.ReadRows(0, store_reader.num_records(), &records).ok());
  return records;
}

TEST(ColumnStoreTest, WriteReadRoundTripIsBitwise) {
  ScratchFile file("roundtrip.rrcs");
  stats::Rng rng(11);
  const Matrix records = rng.GaussianMatrix(1000, 5);
  WriteStore(file.path(), records, /*block_rows=*/64);

  auto reader = ColumnStoreReader::Open(file.path());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  ColumnStoreReader store = std::move(reader).value();
  EXPECT_EQ(store.num_records(), 1000u);
  EXPECT_EQ(store.num_attributes(), 5u);
  EXPECT_EQ(store.block_rows(), 64u);
  EXPECT_EQ(store.num_blocks(), 16u);  // ceil(1000 / 64)
  EXPECT_EQ(store.attribute_names(), Names(5));
  EXPECT_EQ(store.rows_in_block(15), 1000u - 15u * 64u);

  EXPECT_TRUE(ReadAll(file.path()) == records);  // operator== is bitwise.
}

TEST(ColumnStoreTest, ExactBlockMultipleAndSingleRowBlocks) {
  stats::Rng rng(12);
  for (const size_t block_rows : {size_t{1}, size_t{64}}) {
    ScratchFile file("blocks_" + std::to_string(block_rows) + ".rrcs");
    const Matrix records = rng.GaussianMatrix(128, 3);
    WriteStore(file.path(), records, block_rows);
    EXPECT_TRUE(ReadAll(file.path()) == records);
  }
}

TEST(ColumnStoreTest, EmptyStoreRoundTrips) {
  ScratchFile file("empty.rrcs");
  auto writer = ColumnStoreWriter::Create(file.path(), Names(4));
  ASSERT_TRUE(writer.ok());
  ColumnStoreWriter store_writer = std::move(writer).value();
  ASSERT_TRUE(store_writer.Close().ok());

  auto reader = ColumnStoreReader::Open(file.path());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader.value().num_records(), 0u);
  EXPECT_EQ(reader.value().num_blocks(), 0u);
}

TEST(ColumnStoreTest, ReadRowsServesRandomSlices) {
  ScratchFile file("slices.rrcs");
  stats::Rng rng(13);
  const Matrix records = rng.GaussianMatrix(300, 4);
  WriteStore(file.path(), records, /*block_rows=*/32);
  auto reader = ColumnStoreReader::Open(file.path());
  ASSERT_TRUE(reader.ok());
  ColumnStoreReader store = std::move(reader).value();

  // A slice straddling three blocks, starting mid-block.
  Matrix slice(70, 4);
  ASSERT_TRUE(store.ReadRows(45, 70, &slice).ok());
  EXPECT_TRUE(slice == records.Block(45, 115, 0, 4));

  // Reading past the end is a clean error naming the range.
  const Status overrun = store.ReadRows(290, 20, &slice);
  EXPECT_FALSE(overrun.ok());
  EXPECT_NE(overrun.message().find("[290, 310)"), std::string::npos)
      << overrun.ToString();
}

TEST(ColumnStoreTest, BlockColumnIsTheMappedColumn) {
  ScratchFile file("column.rrcs");
  stats::Rng rng(14);
  const Matrix records = rng.GaussianMatrix(100, 3);
  WriteStore(file.path(), records, /*block_rows=*/40);
  auto reader = ColumnStoreReader::Open(file.path());
  ASSERT_TRUE(reader.ok());
  ColumnStoreReader store = std::move(reader).value();

  auto column = store.BlockColumn(/*block=*/1, /*column=*/2);
  ASSERT_TRUE(column.ok()) << column.status().ToString();
  for (size_t r = 0; r < store.rows_in_block(1); ++r) {
    EXPECT_EQ(column.value()[r], records(40 + r, 2));
  }
}

TEST(ColumnStoreTest, DatasetHelpersRoundTrip) {
  ScratchFile file("dataset.rrcs");
  stats::Rng rng(15);
  auto dataset = Dataset::Create(rng.GaussianMatrix(77, 3),
                                 {"age", "income", "score"});
  ASSERT_TRUE(dataset.ok());
  ASSERT_TRUE(WriteColumnStore(dataset.value(), file.path()).ok());
  auto read_back = ReadColumnStoreDataset(file.path());
  ASSERT_TRUE(read_back.ok()) << read_back.status().ToString();
  EXPECT_TRUE(read_back.value().records() == dataset.value().records());
  EXPECT_EQ(read_back.value().attribute_names(),
            dataset.value().attribute_names());
}

TEST(ColumnStoreTest, DetectsFormatBySniffingNotExtension) {
  ScratchFile store_file("detect.not_an_extension");
  ScratchFile csv_file("detect.csv");
  stats::Rng rng(16);
  const Dataset dataset{Dataset(rng.GaussianMatrix(10, 2))};
  ASSERT_TRUE(WriteColumnStore(dataset, store_file.path()).ok());
  ASSERT_TRUE(WriteCsv(dataset, csv_file.path()).ok());

  auto store_format = DetectRecordFileFormat(store_file.path());
  auto csv_format = DetectRecordFileFormat(csv_file.path());
  ASSERT_TRUE(store_format.ok());
  ASSERT_TRUE(csv_format.ok());
  EXPECT_EQ(store_format.value(), RecordFileFormat::kColumnStore);
  EXPECT_EQ(csv_format.value(), RecordFileFormat::kCsv);

  // ReadRecords loads either transparently; the store copy is bitwise,
  // the CSV copy went through precision-10 text.
  auto from_store = ReadRecords(store_file.path());
  ASSERT_TRUE(from_store.ok());
  EXPECT_TRUE(from_store.value().records() == dataset.records());
  EXPECT_TRUE(ReadRecords(csv_file.path()).ok());
}

// CSV -> store -> CSV property test (ISSUE 4): once values have passed
// through CSV text one time, the store must carry them bitwise — both
// back into memory and through a second, lossless CSV hop.
TEST(ColumnStoreTest, CsvStoreCsvRoundTripIsBitwise) {
  ScratchFile store_file("csv_roundtrip.rrcs");
  stats::Rng rng(17);
  Matrix raw = rng.GaussianMatrix(200, 4);
  // Salt in awkward values: exact zeros, huge/tiny magnitudes, negatives.
  raw(0, 0) = 0.0;
  raw(1, 1) = 1e300;
  raw(2, 2) = -4.9406564584124654e-324;  // Smallest denormal.
  raw(3, 3) = -1234567.89012345678;

  // Hop 1: through CSV text at default precision (lossy vs `raw`).
  const std::string csv_text = ToCsvString(Dataset(raw));
  auto parsed = FromCsvString(csv_text);
  ASSERT_TRUE(parsed.ok());

  // Hop 2: the parsed values through the store — must be bitwise.
  ASSERT_TRUE(WriteColumnStore(parsed.value(), store_file.path()).ok());
  auto from_store = ReadColumnStoreDataset(store_file.path());
  ASSERT_TRUE(from_store.ok());
  EXPECT_TRUE(from_store.value().records() == parsed.value().records());

  // Hop 3: store -> CSV at precision 17 -> parse; still bitwise.
  auto reparsed =
      FromCsvString(ToCsvString(from_store.value(), /*precision=*/17));
  ASSERT_TRUE(reparsed.ok());
  EXPECT_TRUE(reparsed.value().records() == parsed.value().records());
}

// ---------------------------------------------------------------------------
// Corruption paths: every failure is a Status naming the damage.
// ---------------------------------------------------------------------------

/// One sealed store for the corruption tests: 130 records of 3 columns
/// in 64-row blocks -> 3 blocks, last one partial.
class ColumnStoreCorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    stats::Rng rng(18);
    records_ = rng.GaussianMatrix(130, 3);
    WriteStore(file_.path(), records_, /*block_rows=*/64);
    bytes_ = ReadFileBytes(file_.path());
    ASSERT_GE(bytes_.size(), 64u);
  }

  Status OpenWith(const std::string& bytes) {
    WriteFileBytes(file_.path(), bytes);
    return ColumnStoreReader::Open(file_.path()).status();
  }

  ScratchFile file_{"corrupt.rrcs"};
  Matrix records_;
  std::string bytes_;
};

TEST_F(ColumnStoreCorruptionTest, BadMagicIsNamed) {
  std::string bytes = bytes_;
  bytes[0] = 'X';
  const Status status = OpenWith(bytes);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("magic"), std::string::npos)
      << status.ToString();
}

TEST_F(ColumnStoreCorruptionTest, CsvFileIsRejectedAsNotAStore) {
  const Status status = OpenWith("a,b\n1,2\n3,4\n" + std::string(64, ' '));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("magic"), std::string::npos);
}

TEST_F(ColumnStoreCorruptionTest, UnsupportedVersionIsNamed) {
  std::string bytes = bytes_;
  bytes[8] = 7;  // docs/FORMAT.md §2: u32 version at offset 8.
  const Status status = OpenWith(bytes);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("version 7"), std::string::npos)
      << status.ToString();
}

TEST_F(ColumnStoreCorruptionTest, TruncatedFileReportsByteCounts) {
  const Status status = OpenWith(bytes_.substr(0, bytes_.size() - 10));
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("truncated"), std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find(std::to_string(bytes_.size())),
            std::string::npos)
      << "expected size missing: " << status.ToString();
}

TEST_F(ColumnStoreCorruptionTest, TinyFileIsRejected) {
  const Status status = OpenWith("RRCOLSTR");
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("smaller than the minimum"),
            std::string::npos)
      << status.ToString();
}

TEST_F(ColumnStoreCorruptionTest, HeaderChecksumMismatchIsNamed) {
  std::string bytes = bytes_;
  // Flip a bit inside the first column name's BYTES (offset 44: names
  // start at 40 with a u32 length first) — the structure still parses,
  // so only the header checksum can object.
  bytes[44] ^= 0x20;
  const Status status = OpenWith(bytes);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("header checksum mismatch"),
            std::string::npos)
      << status.ToString();
}

TEST_F(ColumnStoreCorruptionTest, RowCountDisagreementIsDetected) {
  std::string bytes = bytes_;
  // Patch num_records (offset 16) from 130 to 30 (1 block instead of 3)
  // and re-seal the header so ONLY the size cross-check can object.
  const uint64_t lying_count = 30;
  std::memcpy(&bytes[16], &lying_count, sizeof(lying_count));
  ResealHeader(&bytes, Names(3));
  const Status status = OpenWith(bytes);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("record-count disagreement"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("30 records"), std::string::npos)
      << status.ToString();
}

TEST_F(ColumnStoreCorruptionTest, RecordCountNearUint64MaxIsRejected) {
  // The ceil-div wrap attack: with the naive (n + block_rows - 1) /
  // block_rows, num_records = 2^64-1 wraps num_blocks to 0, so a
  // header-only file resealed with the public hash passes the
  // expected-size cross-check and ReadRows runs past the mapping. Both
  // the fixture's 3-block file and a header-only file must be rejected.
  const uint64_t hostile_count = UINT64_MAX;
  std::string bytes = bytes_;
  std::memcpy(&bytes[16], &hostile_count, sizeof(hostile_count));
  ResealHeader(&bytes, Names(3));
  Status status = OpenWith(bytes);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();

  // Header-only variant: exactly the file the wrap would wave through.
  std::string header_only = bytes_;
  const size_t block_stride = 3 * 64 * 8 + 8;
  header_only.resize(header_only.size() - 3 * block_stride);
  std::memcpy(&header_only[16], &hostile_count, sizeof(hostile_count));
  ResealHeader(&header_only, Names(3));
  status = OpenWith(header_only);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status.ToString();
}

TEST_F(ColumnStoreCorruptionTest, AbsurdColumnCountIsRejectedNotAllocated) {
  std::string bytes = bytes_;
  // A hostile num_attributes (offset 24) must fail as a Status before
  // any allocation sized by it — not throw bad_alloc from reserve().
  const uint64_t absurd = uint64_t{1} << 60;
  std::memcpy(&bytes[24], &absurd, sizeof(absurd));
  const Status status = OpenWith(bytes);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("could possibly name"), std::string::npos)
      << status.ToString();
}

TEST_F(ColumnStoreCorruptionTest, BlockChecksumMismatchNamesBlockAndOffset) {
  std::string bytes = bytes_;
  // Damage one payload byte in block 1. Header: 40 fixed + 3*(4+2) names
  // + 8 checksum = 66, padded to 128; block stride = 3*64*8 + 8 = 1544.
  const size_t block_stride = 3 * 64 * 8 + 8;
  const size_t header_bytes = bytes.size() - 3 * block_stride;
  const size_t block1_offset = header_bytes + block_stride;
  bytes[block1_offset + 5] ^= 0xFF;
  WriteFileBytes(file_.path(), bytes);

  auto reader = ColumnStoreReader::Open(file_.path());
  ASSERT_TRUE(reader.ok()) << "damage is inside a block, Open must succeed: "
                           << reader.status().ToString();
  ColumnStoreReader store = std::move(reader).value();

  // Block 0 is intact and must still serve.
  Matrix buffer(64, 3);
  EXPECT_TRUE(store.ReadRows(0, 64, &buffer).ok());

  // Touching block 1 surfaces the mismatch, naming block and offset.
  const Status status = store.ReadRows(64, 64, &buffer);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("block 1 checksum mismatch"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find(std::to_string(block1_offset)),
            std::string::npos)
      << status.ToString();
}

TEST_F(ColumnStoreCorruptionTest, EagerVerifyFailsAtOpenNamingTheBlock) {
  std::string bytes = bytes_;
  const size_t block_stride = 3 * 64 * 8 + 8;
  const size_t header_bytes = bytes.size() - 3 * block_stride;
  bytes[header_bytes + 2 * block_stride + 9] ^= 0xFF;  // Damage block 2.
  WriteFileBytes(file_.path(), bytes);

  // Lazy open still succeeds (the damage sits in an untouched block)...
  ASSERT_TRUE(ColumnStoreReader::Open(file_.path()).ok());

  // ...but the archival eager mode proves the whole file at Open and
  // fails there, naming the block — at any thread count.
  for (const int threads : {1, 4}) {
    ColumnStoreReadOptions options;
    options.eager_verify = true;
    options.parallel.num_threads = threads;
    const Status status =
        ColumnStoreReader::Open(file_.path(), options).status();
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(status.message().find("block 2 checksum mismatch"),
              std::string::npos)
        << status.ToString();
  }
}

/// store.blocks_verified as the metrics registry reads it now.
uint64_t BlocksVerified() {
  for (const metrics::CounterSnapshot& counter : metrics::Snapshot().counters) {
    if (counter.name == "store.blocks_verified") return counter.value;
  }
  return 0;
}

/// Fetches every column of blocks 0, 1, ... in order through BlockColumn
/// until one fails, checking each served column against `records`.
/// Returns the failing block (num_blocks() if none) and its Status.
std::pair<size_t, Status> ReadBlocksInOrder(ColumnStoreReader* store,
                                            const Matrix& records) {
  for (size_t block = 0; block < store->num_blocks(); ++block) {
    for (size_t j = 0; j < store->num_attributes(); ++j) {
      auto column = store->BlockColumn(block, j);
      if (!column.ok()) return {block, column.status()};
      for (size_t r = 0; r < store->rows_in_block(block); ++r) {
        EXPECT_EQ(column.value()[r],
                  records(block * store->block_rows() + r, j))
            << "block " << block << " column " << j << " row " << r;
      }
    }
  }
  return {store->num_blocks(), Status::OK()};
}

TEST(ColumnStoreTest, LookAheadVerifyServesBlocksInOrderUpToTheCorruptOne) {
  // BlockColumn hashes several blocks ahead in parallel, but a corrupt
  // block must still surface in block order: every earlier block serves,
  // the corrupt one fails with exactly the serial reader's Status, and
  // only the served blocks count as verified.
  ScratchFile file("lookahead.rrcs");
  stats::Rng rng(21);
  const Matrix records = rng.GaussianMatrix(40 * 64 + 17, 3);
  WriteStore(file.path(), records, /*block_rows=*/64);
  std::string bytes = ReadFileBytes(file.path());
  const size_t block_stride = 3 * 64 * 8 + 8;
  const size_t header_bytes = bytes.size() - 41 * block_stride;
  for (const size_t corrupt : {size_t{0}, size_t{13}, size_t{40}}) {
    std::string damaged = bytes;
    damaged[header_bytes + corrupt * block_stride + 100] ^= 0x10;
    WriteFileBytes(file.path(), damaged);
    std::string serial_message;
    for (const int threads : {1, 4}) {
      ColumnStoreReadOptions options;
      options.parallel.num_threads = threads;
      auto reader = ColumnStoreReader::Open(file.path(), options);
      ASSERT_TRUE(reader.ok()) << reader.status().ToString();
      ColumnStoreReader store = std::move(reader).value();
      const uint64_t verified_before = BlocksVerified();
      const auto [failed_block, status] = ReadBlocksInOrder(&store, records);
      EXPECT_EQ(failed_block, corrupt) << "threads=" << threads;
      EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
      EXPECT_NE(status.message().find("block " + std::to_string(corrupt) +
                                      " checksum mismatch at offset " +
                                      std::to_string(header_bytes +
                                                     corrupt * block_stride)),
                std::string::npos)
          << status.ToString();
      EXPECT_EQ(BlocksVerified() - verified_before, corrupt)
          << "threads=" << threads;
      if (threads == 1) {
        serial_message = status.ToString();
      } else {
        EXPECT_EQ(status.ToString(), serial_message);
      }
    }
  }
}

TEST(ColumnStoreTest, LookAheadVerifyKeepsFailpointHitsInBlockOrder) {
  // store.read_block fires when a block arrives, not when it is hashed
  // ahead, so error@N fails block N-1 at any thread count, every time.
  ScratchFile file("lookahead_failpoint.rrcs");
  stats::Rng rng(22);
  const Matrix records = rng.GaussianMatrix(30 * 64, 2);
  WriteStore(file.path(), records, /*block_rows=*/64);
  for (const uint64_t hit : {1, 2, 8, 9, 17, 30}) {
    for (int repeat = 0; repeat < 3; ++repeat) {
      ColumnStoreReadOptions options;
      options.parallel.num_threads = 4;
      auto reader = ColumnStoreReader::Open(file.path(), options);
      ASSERT_TRUE(reader.ok()) << reader.status().ToString();
      ColumnStoreReader store = std::move(reader).value();
      ASSERT_TRUE(ArmFailpointsFromSpec("store.read_block=error@" +
                                        std::to_string(hit))
                      .ok());
      const auto [failed_block, status] = ReadBlocksInOrder(&store, records);
      DisarmAllFailpoints();
      EXPECT_EQ(failed_block, hit - 1) << "error@" << hit;
      EXPECT_EQ(status.code(), StatusCode::kIoError) << status.ToString();
    }
  }
}

TEST(ColumnStoreTest, LookAheadVerifyFailsAtBackgroundWindowEdges) {
  // At 4 threads the look-ahead window is 8 blocks: block 8 is the first
  // block hashed in the background, block 16 the first of the second
  // background window, block 40 the final partial block. Each must fail
  // exactly as the serial reader does, after every earlier block served.
  ScratchFile file("lookahead_edges.rrcs");
  stats::Rng rng(23);
  const Matrix records = rng.GaussianMatrix(40 * 64 + 17, 3);
  WriteStore(file.path(), records, /*block_rows=*/64);
  const std::string bytes = ReadFileBytes(file.path());
  const size_t block_stride = 3 * 64 * 8 + 8;
  const size_t header_bytes = bytes.size() - 41 * block_stride;
  for (const size_t corrupt : {size_t{8}, size_t{16}, size_t{40}}) {
    std::string damaged = bytes;
    damaged[header_bytes + corrupt * block_stride + 8] ^= 0x01;
    WriteFileBytes(file.path(), damaged);
    std::string serial_message;
    for (const int threads : {1, 4}) {
      ColumnStoreReadOptions options;
      options.parallel.num_threads = threads;
      auto reader = ColumnStoreReader::Open(file.path(), options);
      ASSERT_TRUE(reader.ok()) << reader.status().ToString();
      ColumnStoreReader store = std::move(reader).value();
      const uint64_t verified_before = BlocksVerified();
      const auto [failed_block, status] = ReadBlocksInOrder(&store, records);
      EXPECT_EQ(failed_block, corrupt) << "threads=" << threads;
      EXPECT_EQ(BlocksVerified() - verified_before, corrupt)
          << "threads=" << threads;
      if (threads == 1) {
        serial_message = status.ToString();
        EXPECT_NE(serial_message.find("block " + std::to_string(corrupt) +
                                      " checksum mismatch at offset " +
                                      std::to_string(header_bytes +
                                                     corrupt * block_stride)),
                  std::string::npos)
            << serial_message;
      } else {
        EXPECT_EQ(status.ToString(), serial_message);
      }
    }
  }
}

TEST(ColumnStoreTest, ReaderJoinsItsBackgroundWindowWhenDestroyedOrMoved) {
  // Right after the first BlockColumn the next window is being hashed in
  // the background over the reader's mapping. Destroying the reader, or
  // moving it in either direction, must join that wave first (ASan and
  // TSan runs of this test catch a use after unmap or a racy move), and
  // a moved-to reader must go on serving every block.
  ScratchFile file("lookahead_lifetime.rrcs");
  stats::Rng rng(24);
  const Matrix records = rng.GaussianMatrix(40 * 1024 + 5, 8);
  WriteStore(file.path(), records, /*block_rows=*/1024);
  ColumnStoreReadOptions options;
  options.parallel.num_threads = 4;
  auto open = [&] {
    auto reader = ColumnStoreReader::Open(file.path(), options);
    EXPECT_TRUE(reader.ok()) << reader.status().ToString();
    return std::move(reader).value();
  };
  for (int repeat = 0; repeat < 20; ++repeat) {
    {
      ColumnStoreReader doomed = open();
      ASSERT_TRUE(doomed.BlockColumn(0, 0).ok());
    }  // Destroyed with the window [8, 16) in flight.

    ColumnStoreReader source = open();
    ASSERT_TRUE(source.BlockColumn(0, 0).ok());
    ColumnStoreReader target = open();
    ASSERT_TRUE(target.BlockColumn(0, 0).ok());
    target = std::move(source);  // Both sides have a window in flight.
    const auto [failed_block, status] = ReadBlocksInOrder(&target, records);
    EXPECT_EQ(failed_block, target.num_blocks()) << status.ToString();
  }
}

TEST(ColumnStoreTest, WideMomentsOverShardsMatchSerialWhileWindowsAreInFlight) {
  // Columnar StreamingMoments at m > kNarrowGramWidth flushes each 4096-
  // record block through the packed Gram driver, which issues its own
  // ParallelFor while the reader's next window may still be hashing in
  // the background. Over a sharded store whose shards each span several
  // windows, a 4-thread sweep must give the serial sweep's bits.
  for (const size_t m : {size_t{80}, size_t{200}}) {
    const std::string manifest =
        "column_store_test_wide_moments_" + std::to_string(m) + ".rrcm";
    stats::Rng rng(25);
    Matrix records = rng.GaussianMatrix(3 * 3000, m);
    for (size_t i = 0; i < records.rows(); ++i) {
      for (size_t j = 0; j < m; ++j) records(i, j) += 10.0 * j;
    }
    ShardedStoreOptions write_options;
    write_options.shard_rows = 3000;
    write_options.block_rows = 64;
    {
      auto writer =
          ShardedStoreWriter::Create(manifest, Names(m), write_options);
      ASSERT_TRUE(writer.ok()) << writer.status().ToString();
      ShardedStoreWriter store_writer = std::move(writer).value();
      ASSERT_TRUE(store_writer.Append(records, records.rows()).ok());
      ASSERT_TRUE(store_writer.Close().ok());
    }
    std::vector<linalg::Vector> means;
    std::vector<Matrix> covariances;
    for (const int threads : {1, 4}) {
      ParallelOptions parallel;
      parallel.num_threads = threads;
      ColumnStoreReadOptions read_options;
      read_options.parallel = parallel;
      auto opened = ShardedStoreReader::Open(manifest, read_options);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      ShardedStoreReader reader = std::move(opened).value();
      ASSERT_EQ(reader.num_shards(), 3u);
      stats::StreamingMoments moments(m, parallel);
      std::vector<const double*> columns(m);
      for (size_t shard = 0; shard < reader.num_shards(); ++shard) {
        auto store = reader.shard(shard);
        ASSERT_TRUE(store.ok()) << store.status().ToString();
        for (size_t block = 0; block < store.value()->num_blocks(); ++block) {
          for (size_t j = 0; j < m; ++j) {
            auto column = store.value()->BlockColumn(block, j);
            ASSERT_TRUE(column.ok()) << column.status().ToString();
            columns[j] = column.value();
          }
          moments.AccumulateColumns(columns.data(),
                                    store.value()->rows_in_block(block));
        }
      }
      ASSERT_EQ(moments.num_records(), records.rows());
      means.push_back(moments.means());
      covariances.push_back(moments.FinalizeCovariance());
    }
    EXPECT_EQ(std::memcmp(means[0].data(), means[1].data(),
                          m * sizeof(double)),
              0)
        << "m=" << m;
    EXPECT_EQ(std::memcmp(covariances[0].data(), covariances[1].data(),
                          m * m * sizeof(double)),
              0)
        << "m=" << m;
    EXPECT_TRUE(RemoveShardedStoreFiles(manifest).ok());
  }
}

TEST(ColumnStoreTest, ParallelReadRowsMatchesSerialBitwise) {
  // A multi-block ReadRows verifies and gathers block-parallel; the
  // filled buffer must be bitwise identical for every thread count, for
  // aligned and misaligned ranges.
  ScratchFile file("parallel_read.rrcs");
  stats::Rng rng(19);
  const Matrix records = rng.GaussianMatrix(1000, 4);
  WriteStore(file.path(), records, /*block_rows=*/64);

  for (const int threads : {1, 2, 8}) {
    ColumnStoreReadOptions options;
    options.parallel.num_threads = threads;
    auto reader = ColumnStoreReader::Open(file.path(), options);
    ASSERT_TRUE(reader.ok()) << reader.status().ToString();
    ColumnStoreReader store = std::move(reader).value();
    for (const auto range : {std::pair<size_t, size_t>{0, 1000},
                             {3, 997},     // misaligned on both ends
                             {64, 128},    // exactly one block
                             {100, 101}}) {
      const size_t rows = range.second - range.first;
      Matrix buffer(rows, 4);
      ASSERT_TRUE(store.ReadRows(range.first, rows, &buffer).ok());
      EXPECT_TRUE(buffer == records.Block(range.first, range.second, 0, 4))
          << "threads=" << threads << " range [" << range.first << ", "
          << range.second << ")";
    }
  }
}

TEST(ColumnStoreWriterTest, RejectsBadConfigurations) {
  ScratchFile file("bad_config.rrcs");
  EXPECT_EQ(ColumnStoreWriter::Create(file.path(), {}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ColumnStoreWriter::Create(file.path(), {"a", "a"}).status().code(),
      StatusCode::kInvalidArgument);
  ColumnStoreOptions zero_block;
  zero_block.block_rows = 0;
  EXPECT_EQ(ColumnStoreWriter::Create(file.path(), {"a"}, zero_block)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ColumnStoreWriterTest, RejectsWidthMismatchAndAppendAfterClose) {
  ScratchFile file("bad_append.rrcs");
  auto writer = ColumnStoreWriter::Create(file.path(), Names(3));
  ASSERT_TRUE(writer.ok());
  ColumnStoreWriter store_writer = std::move(writer).value();
  Matrix wrong_width(4, 2);
  EXPECT_EQ(store_writer.Append(wrong_width, 4).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(store_writer.Close().ok());
  Matrix chunk(4, 3);
  EXPECT_EQ(store_writer.Append(chunk, 4).code(),
            StatusCode::kFailedPrecondition);
}

TEST(ColumnStoreWriterTest, UnsealedStoreIsRejectedByReaders) {
  // A writer that crashes before Close() leaves the header with the
  // bitwise-NOT of the real hash (docs/FORMAT.md §2.2) — only Close()
  // seals it. Reconstruct that on-disk state from a sealed empty store
  // and confirm readers refuse to treat it as a valid (empty) store.
  ScratchFile file("unsealed.rrcs");
  auto writer = ColumnStoreWriter::Create(file.path(), Names(2));
  ASSERT_TRUE(writer.ok());
  ColumnStoreWriter store_writer = std::move(writer).value();
  ASSERT_TRUE(store_writer.Close().ok());

  std::string bytes = ReadFileBytes(file.path());
  const size_t hash_offset = HeaderHashOffset(Names(2));
  uint64_t sealed_hash;
  std::memcpy(&sealed_hash, &bytes[hash_offset], sizeof(sealed_hash));
  const uint64_t unsealed_hash = ~sealed_hash;
  std::memcpy(&bytes[hash_offset], &unsealed_hash, sizeof(unsealed_hash));
  WriteFileBytes(file.path(), bytes);

  const Status status = ColumnStoreReader::Open(file.path()).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("header checksum mismatch"),
            std::string::npos)
      << status.ToString();
}

TEST(ColumnStoreWriterTest, MoveAssignmentSealsTheAbandonedStore) {
  // Assigning onto an active writer must Close() the store it was
  // building (as the destructor would), not drop the half-written file
  // unsealed; the adopted writer keeps serving its own store.
  ScratchFile first("move_assign_a.rrcs");
  ScratchFile second("move_assign_b.rrcs");
  stats::Rng rng(20);
  const Matrix chunk = rng.GaussianMatrix(3, 2);

  auto a = ColumnStoreWriter::Create(first.path(), Names(2));
  ASSERT_TRUE(a.ok());
  ColumnStoreWriter writer = std::move(a).value();
  ASSERT_TRUE(writer.Append(chunk, 3).ok());

  auto b = ColumnStoreWriter::Create(second.path(), Names(2));
  ASSERT_TRUE(b.ok());
  writer = std::move(b).value();

  auto first_back = ReadColumnStoreDataset(first.path());
  ASSERT_TRUE(first_back.ok()) << first_back.status().ToString();
  EXPECT_TRUE(first_back.value().records() == chunk);

  ASSERT_TRUE(writer.Append(chunk, 3).ok());
  ASSERT_TRUE(writer.Close().ok());
  auto second_back = ReadColumnStoreDataset(second.path());
  ASSERT_TRUE(second_back.ok()) << second_back.status().ToString();
  EXPECT_TRUE(second_back.value().records() == chunk);
}

TEST(ColumnStoreReaderTest, MoveAssignmentReleasesTheOldMapping) {
  ScratchFile first_file("move_a.rrcs");
  ScratchFile second_file("move_b.rrcs");
  stats::Rng rng(19);
  const Matrix first = rng.GaussianMatrix(50, 2);
  const Matrix second = rng.GaussianMatrix(60, 2);
  WriteStore(first_file.path(), first, /*block_rows=*/16);
  WriteStore(second_file.path(), second, /*block_rows=*/16);

  auto opened = ColumnStoreReader::Open(first_file.path());
  ASSERT_TRUE(opened.ok());
  ColumnStoreReader reader = std::move(opened).value();
  Matrix buffer(50, 2);
  ASSERT_TRUE(reader.ReadRows(0, 50, &buffer).ok());

  // Re-point the same reader at the second store (the sharded-scan
  // pattern); the first mapping must be released, not leaked or doubly
  // freed, and reads must serve the new file.
  auto reopened = ColumnStoreReader::Open(second_file.path());
  ASSERT_TRUE(reopened.ok());
  reader = std::move(reopened).value();
  EXPECT_EQ(reader.num_records(), 60u);
  Matrix second_buffer(60, 2);
  ASSERT_TRUE(reader.ReadRows(0, 60, &second_buffer).ok());
  EXPECT_TRUE(second_buffer == second);
}

TEST(ColumnStoreHashTest, MatchesPinnedVectors) {
  // Golden values pin the RRH64 definition of docs/FORMAT.md §4: any
  // change to the hash is a format break and must bump the version.
  EXPECT_EQ(ColumnStoreHash("", 0), 0x627d7c31b2dc9d71ull);
  const char msg[] = "randrecon column store";
  EXPECT_EQ(ColumnStoreHash(msg, sizeof(msg) - 1), 0xe163d36f8793360bull);
  const uint64_t word = 0x0123456789abcdefull;
  EXPECT_EQ(ColumnStoreHash(&word, sizeof(word)), 0x279fd5b6003dec95ull);
}

}  // namespace
}  // namespace data
}  // namespace randrecon
