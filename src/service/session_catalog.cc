#include "service/session_catalog.h"

#include <optional>

#include "service/persistence.h"
#include "service/table_loader.h"

namespace fairtopk {

namespace {

/// The CSV cold-start path shared by plain and data-dir opens.
Result<AuditSession> SessionFromCsv(const SessionSpec& spec) {
  if (spec.csv.empty()) {
    return Status::InvalidArgument("session spec names no csv");
  }
  if (spec.rank_by.empty()) {
    return Status::InvalidArgument("session spec names no rank_by column");
  }
  FAIRTOPK_ASSIGN_OR_RETURN(
      Table table,
      LoadAuditTable(spec.csv, spec.rank_by, spec.bins, spec.drop));
  return AuditSession::Create(std::move(table), spec.rank_by, spec.ascending,
                              spec.session);
}

}  // namespace

Status SessionCatalog::Open(const std::string& name, const SessionSpec& spec,
                            PersistentOpenReport* report) {
  if (name.empty()) {
    return Status::InvalidArgument("session name must be non-empty");
  }
  if (!spec.snapshot.empty() && !spec.data_dir.empty()) {
    return Status::InvalidArgument(
        "'snapshot' and 'data_dir' are mutually exclusive");
  }
  // Load outside the lock: CSV parse + bucketize + index build can be
  // seconds, and concurrent requests to other sessions must not stall
  // behind it. The name is only claimed on success; two concurrent
  // opens of the same name race to the emplace and the loser errors.
  std::optional<AuditSession> session;
  std::string dataset;
  if (!spec.data_dir.empty()) {
    PersistentOpenOptions persist;
    persist.fsync = spec.fsync_always ? storage::FsyncPolicy::kAlways
                                      : storage::FsyncPolicy::kNever;
    const auto cold_start = [&spec]() -> Result<AuditSession> {
      if (spec.csv.empty() || spec.rank_by.empty()) {
        return Status::InvalidArgument(
            "data dir " + spec.data_dir +
            " holds no snapshot yet: the first start needs a CSV and its "
            "ranking column (fairtopk_serve --csv and --rank-by, or the "
            "open op's csv and rank_by) to build one");
      }
      return SessionFromCsv(spec);
    };
    Result<AuditSession> opened = OpenPersistentSession(
        spec.data_dir, cold_start, spec.session, persist, report);
    if (!opened.ok()) return opened.status();
    session.emplace(std::move(opened).value());
    dataset = spec.data_dir;
  } else if (!spec.snapshot.empty()) {
    Result<AuditSession> opened =
        AuditSession::OpenFromSnapshot(spec.snapshot, spec.session);
    if (!opened.ok()) return opened.status();
    session.emplace(std::move(opened).value());
    dataset = spec.snapshot;
  } else {
    Result<AuditSession> built = SessionFromCsv(spec);
    if (!built.ok()) return built.status();
    session.emplace(std::move(built).value());
    dataset = spec.csv;
  }
  const size_t num_rows = session->num_rows();
  ServeDefaults defaults;
  defaults.dataset = dataset;
  defaults.config = MakeToolConfig(spec.k_min, spec.k_max, spec.tau,
                                   /*threads=*/1, num_rows);
  defaults.bounds.lower_fraction = spec.lower_fraction;
  defaults.bounds.alpha = spec.alpha;
  return Adopt(name, std::move(*session), std::move(defaults));
}

Status SessionCatalog::Adopt(const std::string& name, AuditSession session,
                             ServeDefaults defaults) {
  if (name.empty()) {
    return Status::InvalidArgument("session name must be non-empty");
  }
  auto entry =
      std::make_shared<Entry>(std::move(session), std::move(defaults));
  std::unique_lock<std::shared_mutex> lock(mutex_);
  if (!entries_.emplace(name, std::move(entry)).second) {
    return Status::InvalidArgument("session '" + name +
                                   "' already exists (close it first)");
  }
  return Status::OK();
}

Status SessionCatalog::Close(const std::string& name) {
  std::shared_ptr<Entry> doomed;
  {
    std::unique_lock<std::shared_mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      return Status::NotFound("no session named '" + name + "'");
    }
    // Move the handle out so the (potentially expensive) session
    // destructor runs outside the catalog lock — and only if this was
    // the last holder; in-flight requests keep the entry alive.
    doomed = std::move(it->second);
    entries_.erase(it);
  }
  return Status::OK();
}

std::shared_ptr<SessionCatalog::Entry> SessionCatalog::Find(
    const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  auto it = entries_.find(name);
  return it == entries_.end() ? nullptr : it->second;
}

std::vector<SessionCatalog::Info> SessionCatalog::List() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  std::vector<Info> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    out.push_back({name, entry->defaults.dataset, entry->session.num_rows(),
                   entry->session.space().num_attributes()});
  }
  return out;
}

size_t SessionCatalog::size() const {
  std::shared_lock<std::shared_mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace fairtopk
