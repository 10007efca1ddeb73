#include "storage/op_log.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "storage/snapshot_format.h"

namespace fairtopk {
namespace storage {

namespace {

constexpr uint64_t kMaxEditsPerRecord = uint64_t{1} << 24;
constexpr uint64_t kMaxRowsPerRecord = uint64_t{1} << 24;
constexpr uint64_t kMaxCellsPerRow = 4096;
constexpr uint32_t kMaxPayloadBytes = 1u << 30;
constexpr size_t kFrameHeaderBytes = 8;  // payload length + payload CRC

std::string EncodeLogHeader(uint64_t generation) {
  std::string out;
  Encoder enc(&out);
  enc.Raw(kOpLogMagic, sizeof kOpLogMagic);
  enc.U32(kOpLogVersion);
  enc.U64(generation);
  enc.U32(0);  // reserved
  enc.U32(Crc32(reinterpret_cast<const uint8_t*>(out.data()), out.size()));
  return out;
}

Status WriteAll(int fd, const char* data, size_t size,
                const std::string& path) {
  size_t written = 0;
  while (written < size) {
    ssize_t n = ::write(fd, data + written, size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError("write to " + path + " failed: " +
                             std::strerror(errno));
    }
    written += static_cast<size_t>(n);
  }
  return Status::OK();
}

// Parses and validates the 28-byte log header against `generation`.
// generation_matches=false (with OK status) means a well-formed log for
// a different snapshot generation — stale, to be discarded.
Status CheckLogHeader(const uint8_t* data, size_t size, uint64_t generation,
                      bool* generation_matches) {
  if (size < kOpLogHeaderBytes) {
    return Status::Truncated("op log shorter than its header (" +
                             std::to_string(size) + " bytes)");
  }
  if (std::memcmp(data, kOpLogMagic, sizeof kOpLogMagic) != 0) {
    return Status::Corruption("not a fairtopk op log (bad magic)");
  }
  Decoder dec(data, kOpLogHeaderBytes);
  uint32_t version = 0;
  uint32_t reserved = 0;
  uint32_t stored_crc = 0;
  uint64_t log_generation = 0;
  FAIRTOPK_RETURN_IF_ERROR(dec.Skip(sizeof kOpLogMagic));
  FAIRTOPK_RETURN_IF_ERROR(dec.U32(&version));
  FAIRTOPK_RETURN_IF_ERROR(dec.U64(&log_generation));
  FAIRTOPK_RETURN_IF_ERROR(dec.U32(&reserved));
  FAIRTOPK_RETURN_IF_ERROR(dec.U32(&stored_crc));
  if (Crc32(data, kOpLogHeaderBytes - sizeof(uint32_t)) != stored_crc) {
    return Status::ChecksumMismatch("op log header checksum mismatch");
  }
  if (version != kOpLogVersion) {
    return Status::VersionMismatch(
        "op log format version " + std::to_string(version) +
        ", this build reads version " + std::to_string(kOpLogVersion));
  }
  if (reserved != 0) {
    return Status::Corruption("op log header reserved field is non-zero");
  }
  *generation_matches = log_generation == generation;
  return Status::OK();
}

}  // namespace

std::string OpLog::EncodePayload(const LogRecord& record) {
  std::string out;
  Encoder enc(&out);
  enc.U8(static_cast<uint8_t>(record.kind));
  if (record.kind == LogRecord::Kind::kUpdate) {
    enc.U32(static_cast<uint32_t>(record.edits.size()));
    for (const ScoreEdit& e : record.edits) {
      enc.U32(e.row);
      enc.F64(e.score);
    }
  } else {
    enc.U32(static_cast<uint32_t>(record.rows.size()));
    for (const std::vector<Cell>& row : record.rows) {
      enc.U32(static_cast<uint32_t>(row.size()));
      for (const Cell& cell : row) {
        enc.U8(cell.is_code ? 1 : 0);
        if (cell.is_code) {
          enc.I16(cell.code);
        } else {
          enc.F64(cell.value);
        }
      }
    }
    enc.U8(record.scores.empty() ? 0 : 1);
    if (!record.scores.empty()) {
      enc.U32(static_cast<uint32_t>(record.scores.size()));
      for (double s : record.scores) enc.F64(s);
    }
  }
  return out;
}

Result<LogRecord> OpLog::DecodePayload(const uint8_t* data, size_t size) {
  Decoder dec(data, size);
  LogRecord record;
  uint8_t kind;
  FAIRTOPK_RETURN_IF_ERROR(dec.U8(&kind));
  if (kind == static_cast<uint8_t>(LogRecord::Kind::kUpdate)) {
    record.kind = LogRecord::Kind::kUpdate;
    uint32_t count;
    FAIRTOPK_RETURN_IF_ERROR(dec.Count(&count, kMaxEditsPerRecord));
    record.edits.resize(count);
    for (uint32_t i = 0; i < count; ++i) {
      FAIRTOPK_RETURN_IF_ERROR(dec.U32(&record.edits[i].row));
      FAIRTOPK_RETURN_IF_ERROR(dec.F64(&record.edits[i].score));
    }
  } else if (kind == static_cast<uint8_t>(LogRecord::Kind::kAppend)) {
    record.kind = LogRecord::Kind::kAppend;
    uint32_t num_rows;
    FAIRTOPK_RETURN_IF_ERROR(dec.Count(&num_rows, kMaxRowsPerRecord));
    record.rows.resize(num_rows);
    for (uint32_t r = 0; r < num_rows; ++r) {
      uint32_t num_cells;
      FAIRTOPK_RETURN_IF_ERROR(dec.Count(&num_cells, kMaxCellsPerRow));
      record.rows[r].resize(num_cells);
      for (uint32_t c = 0; c < num_cells; ++c) {
        uint8_t is_code;
        FAIRTOPK_RETURN_IF_ERROR(dec.U8(&is_code));
        if (is_code > 1) {
          return Status::Corruption("op log cell tag is not 0/1");
        }
        if (is_code == 1) {
          int16_t code;
          FAIRTOPK_RETURN_IF_ERROR(dec.I16(&code));
          record.rows[r][c] = Cell::Code(code);
        } else {
          double value;
          FAIRTOPK_RETURN_IF_ERROR(dec.F64(&value));
          record.rows[r][c] = Cell::Value(value);
        }
      }
    }
    uint8_t has_scores;
    FAIRTOPK_RETURN_IF_ERROR(dec.U8(&has_scores));
    if (has_scores > 1) {
      return Status::Corruption("op log score tag is not 0/1");
    }
    if (has_scores == 1) {
      uint32_t count;
      FAIRTOPK_RETURN_IF_ERROR(dec.Count(&count, kMaxRowsPerRecord));
      if (count != num_rows) {
        return Status::Corruption(
            "op log append carries " + std::to_string(count) +
            " scores for " + std::to_string(num_rows) + " rows");
      }
      record.scores.resize(count);
      for (uint32_t i = 0; i < count; ++i) {
        FAIRTOPK_RETURN_IF_ERROR(dec.F64(&record.scores[i]));
      }
    }
  } else {
    return Status::Corruption("op log record has unknown kind " +
                              std::to_string(kind));
  }
  if (dec.remaining() != 0) {
    return Status::Corruption("trailing bytes in op log record");
  }
  return record;
}

OpLog::~OpLog() {
  if (fd_ >= 0) ::close(fd_);
}

OpLog::OpLog(OpLog&& other) noexcept
    : fd_(other.fd_),
      path_(std::move(other.path_)),
      generation_(other.generation_),
      fsync_(other.fsync_),
      record_count_(other.record_count_),
      bytes_(other.bytes_) {
  other.fd_ = -1;
}

OpLog& OpLog::operator=(OpLog&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    generation_ = other.generation_;
    fsync_ = other.fsync_;
    record_count_ = other.record_count_;
    bytes_ = other.bytes_;
    other.fd_ = -1;
  }
  return *this;
}

Result<OpLog> OpLog::Create(const std::string& path, uint64_t generation,
                            FsyncPolicy fsync) {
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create " + path + ": " +
                           std::strerror(errno));
  }
  const std::string header = EncodeLogHeader(generation);
  Status written = WriteAll(fd, header.data(), header.size(), path);
  if (!written.ok()) {
    ::close(fd);
    return written;
  }
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    return Status::IoError("fsync of " + path + " failed: " +
                           std::strerror(err));
  }
  OpLog log;
  log.fd_ = fd;
  log.path_ = path;
  log.generation_ = generation;
  log.fsync_ = fsync;
  log.bytes_ = header.size();
  return log;
}

Result<OpLog> OpLog::Open(const std::string& path, uint64_t generation,
                          FsyncPolicy fsync, Recovered* recovered) {
  *recovered = Recovered{};
  bool exists = false;
  FAIRTOPK_ASSIGN_OR_RETURN(std::string bytes, ReadWholeFile(path, &exists));
  if (!exists) {
    return Create(path, generation, fsync);
  }
  const uint8_t* data = reinterpret_cast<const uint8_t*>(bytes.data());
  bool generation_matches = false;
  FAIRTOPK_RETURN_IF_ERROR(
      CheckLogHeader(data, bytes.size(), generation, &generation_matches));
  if (!generation_matches) {
    // A log for another snapshot generation: the tail of an interrupted
    // compaction. Its ops are already baked into the newer snapshot (or
    // belong to a snapshot that no longer exists), so start fresh.
    recovered->discarded_stale = true;
    return Create(path, generation, fsync);
  }

  size_t pos = kOpLogHeaderBytes;
  size_t good_end = pos;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kFrameHeaderBytes) {
      recovered->dropped_torn_tail = true;
      break;
    }
    uint32_t payload_bytes, payload_crc;
    std::memcpy(&payload_bytes, data + pos, sizeof payload_bytes);
    std::memcpy(&payload_crc, data + pos + 4, sizeof payload_crc);
    if (payload_bytes > kMaxPayloadBytes) {
      return Status::Corruption("op log frame claims " +
                                std::to_string(payload_bytes) + " bytes");
    }
    if (bytes.size() - pos - kFrameHeaderBytes < payload_bytes) {
      // A partial frame at the tail: the crash-mid-append signature.
      recovered->dropped_torn_tail = true;
      break;
    }
    const uint8_t* payload = data + pos + kFrameHeaderBytes;
    if (Crc32(payload, payload_bytes) != payload_crc) {
      return Status::ChecksumMismatch(
          "op log record " + std::to_string(recovered->records.size() + 1) +
          " failed its checksum");
    }
    FAIRTOPK_ASSIGN_OR_RETURN(LogRecord record,
                              DecodePayload(payload, payload_bytes));
    recovered->records.push_back(std::move(record));
    pos += kFrameHeaderBytes + payload_bytes;
    good_end = pos;
  }

  int fd = ::open(path.c_str(), O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IoError("cannot reopen " + path + ": " +
                           std::strerror(errno));
  }
  if (recovered->dropped_torn_tail) {
    if (::ftruncate(fd, static_cast<off_t>(good_end)) != 0) {
      int err = errno;
      ::close(fd);
      return Status::IoError("truncate of " + path + " failed: " +
                             std::strerror(err));
    }
  }
  if (::lseek(fd, static_cast<off_t>(good_end), SEEK_SET) < 0) {
    int err = errno;
    ::close(fd);
    return Status::IoError("seek in " + path + " failed: " +
                           std::strerror(err));
  }
  OpLog log;
  log.fd_ = fd;
  log.path_ = path;
  log.generation_ = generation;
  log.fsync_ = fsync;
  log.record_count_ = recovered->records.size();
  log.bytes_ = good_end;
  return log;
}

Status OpLog::Append(const LogRecord& record) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("op log is not open");
  }
  const std::string payload = EncodePayload(record);
  std::string frame;
  Encoder enc(&frame);
  enc.U32(static_cast<uint32_t>(payload.size()));
  enc.U32(Crc32(payload));
  frame += payload;
  FAIRTOPK_RETURN_IF_ERROR(WriteAll(fd_, frame.data(), frame.size(), path_));
  if (fsync_ == FsyncPolicy::kAlways && ::fsync(fd_) != 0) {
    return Status::IoError("fsync of " + path_ + " failed: " +
                           std::strerror(errno));
  }
  ++record_count_;
  bytes_ += frame.size();
  return Status::OK();
}

}  // namespace storage
}  // namespace fairtopk
