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

#include "common/status.h"
#include "service/audit_session.h"
#include "service/jsonl_defaults.h"

namespace fairtopk {

struct PersistentOpenReport;

/// Everything the `open` op needs to turn a CSV path into a served
/// session: dataset preparation knobs plus the per-session request
/// defaults. Field defaults mirror the fairtopk_serve flag defaults.
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
  /// bucketization) — and registers it under `name`. Fails with
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
