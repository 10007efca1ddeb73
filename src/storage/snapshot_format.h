// On-disk format shared by the snapshot writer/reader and the op log:
// magic numbers, version policy, the fixed header/TOC layouts, CRC32,
// a little-endian binary codec whose reader is bounds-checked on
// every access (hostile bytes must surface as typed Status errors,
// never as crashes or out-of-bounds reads), and the whole-file read
// both readers start from.
//
// Snapshot layout (all integers little-endian):
//
//   [ 64-byte header ]
//   [ section kMeta    ] (padded to 64)
//   [ section kSchema  ] (padded to 64)
//   [ section kColumns ] (padded to 64)
//   [ section kScores  ] (padded to 64)
//   [ section kRanking ] (padded to 64)
//   [ TOC: one 32-byte entry per section ]
//
//   header: magic[8] "FTKSNAP1", version u32, section_count u32,
//           toc_offset u64, toc_bytes u64, file_bytes u64,
//           generation u64, reserved[12], header_crc32 u32
//           (CRC over bytes [0, 60)).
//   TOC entry: section_id u32, reserved u32, offset u64, bytes u64,
//              crc32 u32, reserved u32 (CRC over the unpadded section
//              payload).
//
// A snapshot stores each fact once. The rank-ordered bitmap index is
// derived from the categorical columns and the ranking, so it is not
// stored: opening a snapshot builds it with BitmapIndex::Build, as a
// CSV start does. The ranking is stored although the scores determine
// it, because re-sorting the scores costs more at open than reading
// the section does (at 10^6 rows the sort alone takes more than half
// as long as a whole open).
//
// Version policy: the major format version is the single u32 in the
// header. Readers accept exactly kSnapshotVersion and fail with
// kVersionMismatch otherwise; additive evolution happens by appending
// new section ids (unknown ids are an error for now — sections are a
// closed set until a forward-compat story is needed). Version 1 also
// stored the index; version 2 dropped that section, and a version-1
// file is refused.
//
// Doubles are encoded as raw IEEE-754 bit patterns (bit_cast through
// u64), never via text formatting, so scores survive a round trip
// bit-identically.
#ifndef FAIRTOPK_STORAGE_SNAPSHOT_FORMAT_H_
#define FAIRTOPK_STORAGE_SNAPSHOT_FORMAT_H_

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"

namespace fairtopk {
namespace storage {

inline constexpr char kSnapshotMagic[8] = {'F', 'T', 'K', 'S',
                                           'N', 'A', 'P', '1'};
inline constexpr char kOpLogMagic[8] = {'F', 'T', 'K', 'O',
                                        'P', 'L', 'G', '1'};
inline constexpr uint32_t kSnapshotVersion = 2;
inline constexpr uint32_t kOpLogVersion = 1;

/// Every section starts on a cache-line boundary of the file.
inline constexpr size_t kSectionAlignment = 64;
inline constexpr size_t kHeaderBytes = 64;
inline constexpr size_t kTocEntryBytes = 32;
/// Op log file header: magic[8], version u32, generation u64,
/// reserved u32, crc32 u32 over bytes [0, 20).
inline constexpr size_t kOpLogHeaderBytes = 28;

enum class SectionId : uint32_t {
  kMeta = 1,     // generation, ascending, score column, pattern attrs
  kSchema = 2,   // attribute names, types, categorical labels
  kColumns = 3,  // raw column payloads (i16 codes / f64 values)
  kScores = 4,   // authoritative per-row scores (post-maintenance)
  kRanking = 5,  // row ids in rank order
};
inline constexpr uint32_t kSnapshotSectionCount = 5;

/// CRC-32 (ISO 3309 / zlib polynomial), slicing-by-8: eight 256-entry
/// tables fold eight bytes per step, where one table folds one byte
/// (about 5x faster, same values).
inline uint32_t Crc32(const uint8_t* data, size_t n, uint32_t seed = 0) {
  // t[0] is the byte-at-a-time table; t[k][b] is t[0][b] advanced by k
  // more zero bytes.
  static const auto* const t = [] {
    static uint32_t tables[8][256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      tables[0][i] = c;
    }
    for (int k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        const uint32_t prev = tables[k - 1][i];
        tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
      }
    }
    return tables;
  }();
  uint32_t crc = seed ^ 0xFFFFFFFFu;
  for (; n >= 8; n -= 8, data += 8) {
    const uint32_t lo = crc ^ (uint32_t{data[0]} | uint32_t{data[1]} << 8 |
                               uint32_t{data[2]} << 16 |
                               uint32_t{data[3]} << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][data[4]] ^
          t[2][data[5]] ^ t[1][data[6]] ^ t[0][data[7]];
  }
  for (; n > 0; --n, ++data) {
    crc = t[0][(crc ^ *data) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

inline uint32_t Crc32(const std::string& s, uint32_t seed = 0) {
  return Crc32(reinterpret_cast<const uint8_t*>(s.data()), s.size(), seed);
}

/// Appends little-endian primitives to a byte buffer. The encoder is
/// infallible; sizing/limits are the caller's concern.
class Encoder {
 public:
  explicit Encoder(std::string* out) : out_(out) {}

  void U8(uint8_t v) { out_->push_back(static_cast<char>(v)); }
  void U16(uint16_t v) { Raw(&v, sizeof v); }
  void U32(uint32_t v) { Raw(&v, sizeof v); }
  void U64(uint64_t v) { Raw(&v, sizeof v); }
  void I16(int16_t v) { U16(static_cast<uint16_t>(v)); }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void F64(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
  /// Length-prefixed (u32) byte string.
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    out_->append(s);
  }
  void Raw(const void* p, size_t n) {
    out_->append(static_cast<const char*>(p), n);
  }

 private:
  std::string* out_;
};

/// Bounds-checked little-endian reader over a borrowed byte range.
/// Every accessor verifies the remaining length first and returns
/// kTruncated on overrun; no input can make it read out of bounds.
class Decoder {
 public:
  Decoder(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  Decoder(const std::string& s)
      : data_(reinterpret_cast<const uint8_t*>(s.data())), size_(s.size()) {}

  size_t offset() const { return pos_; }
  size_t remaining() const { return size_ - pos_; }
  const uint8_t* cursor() const { return data_ + pos_; }

  Status U8(uint8_t* v) {
    FAIRTOPK_RETURN_IF_ERROR(Need(1));
    *v = data_[pos_++];
    return Status::OK();
  }
  Status U16(uint16_t* v) { return Fixed(v); }
  Status U32(uint32_t* v) { return Fixed(v); }
  Status U64(uint64_t* v) { return Fixed(v); }
  Status I16(int16_t* v) {
    uint16_t u;
    FAIRTOPK_RETURN_IF_ERROR(U16(&u));
    *v = static_cast<int16_t>(u);
    return Status::OK();
  }
  Status F64(double* v) {
    uint64_t bits;
    FAIRTOPK_RETURN_IF_ERROR(U64(&bits));
    std::memcpy(v, &bits, sizeof bits);
    return Status::OK();
  }
  /// Reads a u32 length prefix, then that many bytes. `max_len` bounds
  /// the allocation so a corrupt length cannot demand gigabytes.
  Status Str(std::string* v, uint32_t max_len = 1u << 20) {
    uint32_t len;
    FAIRTOPK_RETURN_IF_ERROR(U32(&len));
    if (len > max_len) {
      return Status::Corruption("string length " + std::to_string(len) +
                                " exceeds limit");
    }
    FAIRTOPK_RETURN_IF_ERROR(Need(len));
    v->assign(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return Status::OK();
  }
  Status Bytes(void* dst, size_t n) {
    FAIRTOPK_RETURN_IF_ERROR(Need(n));
    std::memcpy(dst, data_ + pos_, n);
    pos_ += n;
    return Status::OK();
  }
  Status Skip(size_t n) {
    FAIRTOPK_RETURN_IF_ERROR(Need(n));
    pos_ += n;
    return Status::OK();
  }
  /// Reads a u32 count bounded by `max_count` — the guard for every
  /// array in the format (a corrupt count must not drive a huge
  /// allocation or a long loop before the bounds check trips).
  Status Count(uint32_t* v, uint64_t max_count) {
    FAIRTOPK_RETURN_IF_ERROR(U32(v));
    if (*v > max_count) {
      return Status::Corruption("count " + std::to_string(*v) +
                                " exceeds limit " + std::to_string(max_count));
    }
    return Status::OK();
  }

 private:
  Status Need(size_t n) const {
    if (n > size_ - pos_) {
      return Status::Truncated("unexpected end of data at offset " +
                               std::to_string(pos_) + " (need " +
                               std::to_string(n) + " bytes, have " +
                               std::to_string(size_ - pos_) + ")");
    }
    return Status::OK();
  }
  template <typename T>
  Status Fixed(T* v) {
    FAIRTOPK_RETURN_IF_ERROR(Need(sizeof(T)));
    std::memcpy(v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return Status::OK();
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Bytes of zero padding that align `offset` up to kSectionAlignment.
inline size_t PaddingFor(size_t offset) {
  size_t rem = offset % kSectionAlignment;
  return rem == 0 ? 0 : kSectionAlignment - rem;
}

/// Reads the whole file at `path` through read(). When `exists` is
/// given, a missing file is not an error: *exists becomes false and
/// the result is empty.
inline Result<std::string> ReadWholeFile(const std::string& path,
                                         bool* exists = nullptr) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (exists != nullptr && errno == ENOENT) {
      *exists = false;
      return std::string();
    }
    return Status::IoError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  if (exists != nullptr) *exists = true;
  std::string out;
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof buf);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      return Status::IoError("read of " + path + " failed: " +
                             std::strerror(err));
    }
    if (n == 0) break;
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

/// One TOC entry as parsed from / serialized to disk.
struct SectionEntry {
  SectionId id;
  uint64_t offset;
  uint64_t bytes;
  uint32_t crc32;
};

}  // namespace storage
}  // namespace fairtopk

#endif  // FAIRTOPK_STORAGE_SNAPSHOT_FORMAT_H_
