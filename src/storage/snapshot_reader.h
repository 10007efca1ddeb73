// Deserializes and validates a snapshot written by snapshot_writer.h:
// the file is read whole through read() and parsed from the buffer
// into the facts it stores. Structures derived from them, such as the
// bitmap index, are built by the caller (AuditSession::OpenFromSnapshot).
//
// The error surface is typed and total: hostile bytes produce
// kTruncated / kChecksumMismatch / kVersionMismatch / kCorruption,
// never a crash or out-of-bounds access. Every section is CRC-checked
// before it is parsed, every count is bounded before it drives an
// allocation, table rows go through the table's own validating append,
// and the ranking must be a permutation of the rows.
#ifndef FAIRTOPK_STORAGE_SNAPSHOT_READER_H_
#define FAIRTOPK_STORAGE_SNAPSHOT_READER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "relation/table.h"

namespace fairtopk {
namespace storage {

/// Header-level facts about a snapshot, readable without parsing the
/// sections (ProbeSnapshot) and echoed by a full open.
struct SnapshotInfo {
  uint32_t version = 0;
  uint64_t generation = 0;
  uint64_t file_bytes = 0;
};

/// A validated snapshot: the session's table, scores and ranking plus
/// the metadata needed to resume maintenance. `table` is an optional
/// only because Table has no public default constructor; a successful
/// open always populates it.
struct OpenedSnapshot {
  SnapshotInfo info;
  bool ascending = false;
  int32_t score_column = -1;
  std::vector<std::string> pattern_attributes;
  std::optional<Table> table;
  std::vector<double> scores;
  /// Row ids in rank order: a permutation of [0, table->num_rows()).
  std::vector<uint32_t> ranking;
};

/// Opens, checksums, parses, and structurally validates `path`.
Result<OpenedSnapshot> ReadSnapshot(const std::string& path);

/// Validates only the 64-byte header (magic, version, CRC, length) and
/// returns its facts — the cheap path for `snapshot_info`.
Result<SnapshotInfo> ProbeSnapshot(const std::string& path);

}  // namespace storage
}  // namespace fairtopk

#endif  // FAIRTOPK_STORAGE_SNAPSHOT_READER_H_
