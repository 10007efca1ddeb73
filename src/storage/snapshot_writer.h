// Serializes one session's table, scores and ranking into the
// versioned snapshot format of snapshot_format.h. The write is
// atomic: bytes land in `path + ".tmp"`, are fsync'ed, and the tmp file
// is renamed over `path` (the directory is fsync'ed after the rename),
// so a crash at any point leaves either the old snapshot or the new
// one, never a torn file.
#ifndef FAIRTOPK_STORAGE_SNAPSHOT_WRITER_H_
#define FAIRTOPK_STORAGE_SNAPSHOT_WRITER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "index/bitmap_index.h"
#include "relation/table.h"

namespace fairtopk {
namespace storage {

/// Borrowed views of everything a snapshot captures. The ranking and
/// the pattern-attribute names are read from `index` (its ranking() and
/// space()); its bitsets are not stored. `scores` is the authoritative
/// post-maintenance per-row score vector.
struct SnapshotContents {
  uint64_t generation = 0;
  bool ascending = false;
  /// Schema index of the score column, or -1 when the session was
  /// created from explicit scores.
  int32_t score_column = -1;
  const Table* table = nullptr;
  const std::vector<double>* scores = nullptr;
  const BitmapIndex* index = nullptr;
};

/// Writes `contents` to `path` atomically. On success the returned
/// byte count is the snapshot's on-disk size.
Result<uint64_t> WriteSnapshot(const std::string& path,
                               const SnapshotContents& contents);

}  // namespace storage
}  // namespace fairtopk

#endif  // FAIRTOPK_STORAGE_SNAPSHOT_WRITER_H_
