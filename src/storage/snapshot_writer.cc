#include "storage/snapshot_writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "storage/snapshot_format.h"

namespace fairtopk {
namespace storage {

namespace {

std::string EncodeMeta(const SnapshotContents& c) {
  std::string out;
  Encoder enc(&out);
  enc.U8(c.ascending ? 1 : 0);
  enc.I32(c.score_column);
  const PatternSpace& space = c.index->space();
  enc.U32(static_cast<uint32_t>(space.num_attributes()));
  for (size_t a = 0; a < space.num_attributes(); ++a) {
    enc.Str(space.name(a));
  }
  return out;
}

std::string EncodeSchema(const Schema& schema) {
  std::string out;
  Encoder enc(&out);
  enc.U32(static_cast<uint32_t>(schema.size()));
  for (const AttributeSchema& attr : schema.attributes()) {
    enc.Str(attr.name);
    enc.U8(attr.type == AttributeType::kCategorical ? 0 : 1);
    enc.U32(static_cast<uint32_t>(attr.labels.size()));
    for (const std::string& label : attr.labels) enc.Str(label);
  }
  return out;
}

std::string EncodeColumns(const Table& table) {
  std::string out;
  Encoder enc(&out);
  enc.U64(table.num_rows());
  enc.U32(static_cast<uint32_t>(table.num_attributes()));
  for (size_t c = 0; c < table.num_attributes(); ++c) {
    const Column& col = table.column(c);
    if (col.type() == AttributeType::kCategorical) {
      enc.U8(0);
      enc.Raw(col.codes().data(), col.codes().size() * sizeof(int16_t));
    } else {
      enc.U8(1);
      enc.Raw(col.values().data(), col.values().size() * sizeof(double));
    }
  }
  return out;
}

std::string EncodeScores(const std::vector<double>& scores) {
  std::string out;
  Encoder enc(&out);
  enc.U64(scores.size());
  enc.Raw(scores.data(), scores.size() * sizeof(double));
  return out;
}

std::string EncodeRanking(const std::vector<uint32_t>& ranking) {
  std::string out;
  Encoder enc(&out);
  enc.U64(ranking.size());
  enc.Raw(ranking.data(), ranking.size() * sizeof(uint32_t));
  return out;
}

Status WriteFileAtomic(const std::string& path, const std::string& bytes) {
  const std::string tmp = path + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create " + tmp + ": " +
                           std::strerror(errno));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IoError("write to " + tmp + " failed: " +
                             std::strerror(err));
    }
    written += static_cast<size_t>(n);
  }
  if (::fsync(fd) != 0) {
    int err = errno;
    ::close(fd);
    ::unlink(tmp.c_str());
    return Status::IoError("fsync of " + tmp + " failed: " +
                           std::strerror(err));
  }
  ::close(fd);
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    int err = errno;
    ::unlink(tmp.c_str());
    return Status::IoError("rename " + tmp + " -> " + path + " failed: " +
                           std::strerror(err));
  }
  // Persist the rename itself: fsync the containing directory.
  std::string dir = ".";
  const size_t slash = path.find_last_of('/');
  if (slash != std::string::npos) dir = path.substr(0, slash + 1);
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

}  // namespace

Result<uint64_t> WriteSnapshot(const std::string& path,
                               const SnapshotContents& c) {
  if (c.table == nullptr || c.scores == nullptr || c.index == nullptr) {
    return Status::InvalidArgument("snapshot contents are incomplete");
  }
  const size_t n = c.table->num_rows();
  if (c.scores->size() != n || c.index->num_rows() != n) {
    return Status::InvalidArgument(
        "snapshot contents disagree on the row count");
  }

  struct Section {
    SectionId id;
    std::string payload;
  };
  const Section sections[] = {
      {SectionId::kMeta, EncodeMeta(c)},
      {SectionId::kSchema, EncodeSchema(c.table->schema())},
      {SectionId::kColumns, EncodeColumns(*c.table)},
      {SectionId::kScores, EncodeScores(*c.scores)},
      {SectionId::kRanking, EncodeRanking(c.index->ranking())},
  };

  std::string file(kHeaderBytes, '\0');
  std::vector<SectionEntry> toc;
  for (const Section& s : sections) {
    file.append(PaddingFor(file.size()), '\0');
    toc.push_back(SectionEntry{s.id, file.size(), s.payload.size(),
                               Crc32(s.payload)});
    file += s.payload;
  }

  const uint64_t toc_offset = file.size();
  {
    Encoder enc(&file);
    for (const SectionEntry& e : toc) {
      enc.U32(static_cast<uint32_t>(e.id));
      enc.U32(0);
      enc.U64(e.offset);
      enc.U64(e.bytes);
      enc.U32(e.crc32);
      enc.U32(0);
    }
  }
  const uint64_t file_bytes = file.size();

  std::string header;
  {
    Encoder enc(&header);
    enc.Raw(kSnapshotMagic, sizeof kSnapshotMagic);
    enc.U32(kSnapshotVersion);
    enc.U32(static_cast<uint32_t>(toc.size()));
    enc.U64(toc_offset);
    enc.U64(toc.size() * kTocEntryBytes);
    enc.U64(file_bytes);
    enc.U64(c.generation);
    header.append(12, '\0');
    enc.U32(Crc32(reinterpret_cast<const uint8_t*>(header.data()),
                  header.size()));
  }
  std::memcpy(file.data(), header.data(), kHeaderBytes);

  FAIRTOPK_RETURN_IF_ERROR(WriteFileAtomic(path, file));
  return file_bytes;
}

}  // namespace storage
}  // namespace fairtopk
