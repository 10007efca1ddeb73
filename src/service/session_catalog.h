// SessionCatalog: named AuditSessions over multiple tables, managed at
// runtime. One serving process audits many rankings for many tenants:
// the JSONL protocol's `open` op loads a CSV into a new named session,
// `close` drops it, `list` enumerates, and every request routes to a
// session by name (per-request "session" field or the per-client `use`
// default) — see src/service/jsonl_service.h for the wire surface.
//
// Lifetime contract: entries are handed out as shared_ptr under the
// catalog's shared lock. Close() only unlinks the entry from the map
// (under the exclusive side of the same lock) — a request that already
// resolved its handle keeps the session alive until it finishes, so a
// concurrent `close` can never free a session under a running request.
// New requests arriving after Close() returns see NotFound. A closed
// session's memory is reclaimed when the last in-flight holder drops.
#ifndef FAIRTOPK_SERVICE_SESSION_CATALOG_H_
#define FAIRTOPK_SERVICE_SESSION_CATALOG_H_

#include <cstddef>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "api/canonical.h"
#include "common/status.h"
#include "service/audit_session.h"
#include "service/jsonl_defaults.h"

namespace fairtopk {

struct PersistentOpenReport;

/// Everything the `open` op needs to turn a CSV path into a served
/// session: dataset preparation knobs plus the per-session request
/// defaults. Its fields are declared below, once, for `open` and for
/// both tools' flags.
struct SessionSpec {
  std::string csv;      ///< CSV path (required unless snapshot/data_dir)
  std::string rank_by;  ///< numeric ranking column (required with csv)
  /// Snapshot file to restore instead of loading `csv` — a read-only
  /// restore: no op log is attached and maintenance ops are not
  /// persisted. Mutually exclusive with `data_dir`.
  std::string snapshot;
  /// Data directory for a durable session: open-or-replay its
  /// snapshot + op log when present, cold-start from `csv` (and save
  /// the initial snapshot) otherwise. Maintenance ops are logged and
  /// `save` compacts. Mutually exclusive with `snapshot`.
  std::string data_dir;
  /// fsync the op log after every maintenance op (data_dir only).
  bool fsync_always = false;
  bool ascending = false;
  int bins = 4;  ///< buckets per non-ranking numeric attribute
  std::vector<std::string> drop;  ///< columns to ignore
  /// Request-field fallbacks (k range, tau, bound knobs).
  int k_min = 10;
  int k_max = 49;
  int tau = 0;  ///< 0 = 5% of rows
  double lower_fraction = 0.5;
  double alpha = 0.8;
  /// Session construction knobs (cache capacity, rebuild threshold,
  /// ...).
  SessionOptions session;
};

// The declared fields of a SessionSpec, in groups: `open` takes them
// all, fairtopk_serve reads them as its flags, and fairtopk_audit reads
// the groups that describe a one-shot audit.

/// Where the session's data comes from.
inline constexpr api::FieldSpec kSourceFields[] = {
    {"csv", api::FieldType::kString, "CSV to load (with rank_by)",
     api::Set<&SessionSpec::csv>},
    {"rank_by", api::FieldType::kString, "numeric column to rank by",
     api::Set<&SessionSpec::rank_by>},
    {"snapshot", api::FieldType::kString, "snapshot file to open read-only",
     api::Set<&SessionSpec::snapshot>},
};
/// A durable session's directory and its log policy.
inline constexpr api::FieldSpec kDurableFields[] = {
    {"data_dir", api::FieldType::kString,
     "durable directory to replay or cold-start",
     api::Set<&SessionSpec::data_dir>},
    {"fsync_always", api::FieldType::kBool,
     "fsync the op log after each maintenance op",
     api::Set<&SessionSpec::fsync_always>},
};
/// How a CSV becomes a ranked table.
inline constexpr api::FieldSpec kLoadFields[] = {
    {"ascending", api::FieldType::kBool, "rank ascending",
     api::Set<&SessionSpec::ascending>},
    {.name = "bins", .type = api::FieldType::kInt,
     .description = "buckets per numeric attribute (default 4)",
     .set = api::Set<&SessionSpec::bins>, .min = 2, .max = 1 << 20},
    {"drop", api::FieldType::kStrings, "columns to ignore",
     api::Set<&SessionSpec::drop>},
};
/// The request defaults (ServeDefaults): k range, tau and bound knobs.
/// A default k range starts at 1 or later and tau is at least 0 (0 is
/// 5% of the rows), or no detect could use them.
inline constexpr api::FieldSpec kDefaultFields[] = {
    {.name = "k_min", .type = api::FieldType::kInt,
     .description = "default first rank", .set = api::Set<&SessionSpec::k_min>,
     .min = 1, .max = 1 << 30},
    {.name = "k_max", .type = api::FieldType::kInt,
     .description = "default last rank", .set = api::Set<&SessionSpec::k_max>,
     .min = 1, .max = 1 << 30},
    {.name = "tau", .type = api::FieldType::kInt,
     .description = "default minimum group size (0: 5% of rows)",
     .set = api::Set<&SessionSpec::tau>, .min = 0, .max = 1 << 30},
    {"lower", api::FieldType::kNumber,
     "default global lower bound, a fraction of k",
     api::Set<&SessionSpec::lower_fraction>},
    {"alpha", api::FieldType::kNumber, "default proportional multiplier",
     api::Set<&SessionSpec::alpha>},
};
/// The session's cache and index maintenance (SessionOptions).
inline constexpr api::FieldSpec kSessionOptionFields[] = {
    {.name = "cache_capacity", .type = api::FieldType::kInt,
     .description = "cached detection results (0 disables)",
     .set = api::Set<&SessionSpec::session, &SessionOptions::cache_capacity>,
     .min = 0, .max = 1 << 30},
    {"rebuild_threshold", api::FieldType::kNumber,
     "changed share of rank positions above which the index is rebuilt, "
     "not patched",
     api::Set<&SessionSpec::session, &SessionOptions::rebuild_threshold>},
};
/// Every field of a SessionSpec.
inline constexpr auto kSessionSpecFields =
    api::JoinFields<kSourceFields, kDurableFields, kLoadFields,
                    kDefaultFields, kSessionOptionFields>();

/// A name -> (AuditSession, request defaults) registry, safe for
/// concurrent Open/Close/List/Find. See the file comment for the
/// close-vs-in-flight-request contract.
class SessionCatalog {
 public:
  /// One served session with its request-default fallbacks.
  struct Entry {
    Entry(AuditSession session, ServeDefaults defaults)
        : session(std::move(session)), defaults(std::move(defaults)) {}
    AuditSession session;
    const ServeDefaults defaults;
  };

  /// A List() row.
  struct Info {
    std::string name;
    std::string dataset;
    size_t num_rows = 0;
    size_t pattern_attributes = 0;
  };

  /// Opens the session `spec` describes — from its data_dir, its
  /// snapshot, or its CSV (LoadAuditTable: validation +
  /// bucketization) — and registers it under `name`. The session's
  /// dataset label (list, detect reports) is the last component of
  /// that path, so answers do not depend on where the data lives. Fails with
  /// AlreadyExists-like InvalidArgument on a taken name, on a spec
  /// naming both snapshot and data_dir, or with the loader's error.
  /// `report`, when non-null, receives what a data_dir open did.
  Status Open(const std::string& name, const SessionSpec& spec,
              PersistentOpenReport* report = nullptr);

  /// Registers an already-built session under `name` — the in-memory
  /// path of tests.
  Status Adopt(const std::string& name, AuditSession session,
               ServeDefaults defaults);

  /// Unlinks `name`. In-flight requests holding the entry finish
  /// unharmed (see the file comment); NotFound when absent.
  Status Close(const std::string& name);

  /// The entry registered under `name`, or null. The returned handle
  /// pins the session across Close().
  std::shared_ptr<Entry> Find(const std::string& name) const;

  /// Snapshot of the registered sessions, name-ordered.
  std::vector<Info> List() const;

  size_t size() const;

 private:
  mutable std::shared_mutex mutex_;
  std::map<std::string, std::shared_ptr<Entry>> entries_;
};

}  // namespace fairtopk

#endif  // FAIRTOPK_SERVICE_SESSION_CATALOG_H_
