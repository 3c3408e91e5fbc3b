#include "service/session.h"

#include <utility>

#include "common/audit.h"
#include "common/csv.h"
#include "common/timer.h"
#include "ofd/sigma_io.h"
#include "service/snapshot.h"

namespace fastofd {

Session::Session(std::string name, Relation rel, Ontology ontology,
                 int64_t cache_budget_bytes, MetricsRegistry* metrics)
    : name_(std::move(name)),
      rel_(std::move(rel)),
      ontology_(std::move(ontology)),
      index_(ontology_, rel_.dict()),
      cache_(rel_, cache_budget_bytes, metrics) {}

Session::Session(std::string name, Relation rel, Ontology ontology,
                 SynonymIndex index, int64_t cache_budget_bytes,
                 MetricsRegistry* metrics)
    : name_(std::move(name)),
      rel_(std::move(rel)),
      ontology_(std::move(ontology)),
      index_(std::move(index)),
      cache_(rel_, cache_budget_bytes, metrics) {}

void Session::AdoptSigma(SigmaSet sigma) {
  if (sigma.empty()) return;
  sigma_ = std::move(sigma);
  incremental_ = std::make_unique<IncrementalVerifier>(&rel_, index_, sigma_,
                                                       &ontology_);
}

Result<std::unique_ptr<Session>> Session::Open(
    std::string name, const std::string& data_path,
    const std::string& ontology_path, const std::string& sigma_path,
    int64_t cache_budget_bytes, MetricsRegistry* metrics) {
  Timer timer;
  auto csv = ReadCsvFile(data_path);
  if (!csv.ok()) return csv.status();
  auto rel = Relation::FromCsv(csv.value());
  if (!rel.ok()) return rel.status();
  auto ont = ReadOntologyFile(ontology_path);
  if (!ont.ok()) return ont.status();

  std::unique_ptr<Session> session(
      new Session(std::move(name), std::move(rel).value(),
                  std::move(ont).value(), cache_budget_bytes, metrics));
  session->data_path_ = data_path;
  session->ontology_path_ = ontology_path;
  session->sigma_path_ = sigma_path;

  if (!sigma_path.empty()) {
    auto sigma = ReadSigmaFile(sigma_path, session->rel_.schema());
    if (!sigma.ok()) return sigma.status();
    session->AdoptSigma(std::move(sigma).value());
  }
  session->load_seconds_ = timer.Seconds();
  FASTOFD_AUDIT_OK(session->Audit());
  return session;
}

Result<std::unique_ptr<Session>> Session::OpenFromSnapshot(
    std::string name, const std::string& snapshot_path,
    const std::string& data_path, const std::string& ontology_path,
    const std::string& sigma_path, int64_t cache_budget_bytes,
    MetricsRegistry* metrics) {
  Timer timer;
  auto file = MappedFile::Open(snapshot_path);
  if (!file.ok()) return file.status();
  auto contents = ParseSnapshot(file.value()->data(), file.value()->size());
  if (!contents.ok()) return contents.status();
  SnapshotContents& snap = contents.value();

  // Staleness: every source must hash to what the snapshot was built from.
  auto data_stamp = StampFile(data_path);
  if (!data_stamp.ok()) return data_stamp.status();
  auto ontology_stamp = StampFile(ontology_path);
  if (!ontology_stamp.ok()) return ontology_stamp.status();
  SourceStamp sigma_stamp;
  if (!sigma_path.empty()) {
    auto stamped = StampFile(sigma_path);
    if (!stamped.ok()) return stamped.status();
    sigma_stamp = stamped.value();
  }
  if (!(data_stamp.value() == snap.data_stamp) ||
      !(ontology_stamp.value() == snap.ontology_stamp) ||
      !(sigma_stamp == snap.sigma_stamp)) {
    return Status::Error("snapshot '" + snapshot_path +
                         "' is stale (source files changed)");
  }

  auto dict = Dictionary::FromStrings(std::move(snap.dict_strings));
  if (!dict.ok()) return dict.status();
  auto rel = Relation::FromParts(Schema(std::move(snap.schema_names)),
                                 std::move(dict).value(),
                                 std::move(snap.columns));
  if (!rel.ok()) return rel.status();
  auto ontology = ParseOntology(snap.ontology_text);
  if (!ontology.ok()) return ontology.status();
  auto index = SynonymIndex::FromParts(std::move(snap.value_senses),
                                       std::move(snap.sense_values));
  if (!index.ok()) return index.status();

  std::unique_ptr<Session> session(new Session(
      std::move(name), std::move(rel).value(), std::move(ontology).value(),
      std::move(index).value(), cache_budget_bytes, metrics));
  session->data_path_ = data_path;
  session->ontology_path_ = ontology_path;
  session->sigma_path_ = sigma_path;

  if (!snap.sigma_text.empty()) {
    auto sigma = ParseSigma(snap.sigma_text, session->rel_.schema());
    if (!sigma.ok()) return sigma.status();
    session->AdoptSigma(std::move(sigma).value());
  }

  session->load_seconds_ = timer.Seconds();
  FASTOFD_AUDIT_OK(session->Audit());
  return session;
}

Status Session::WriteSnapshot(const std::string& path) const {
  // Stamp the sources this compiled state came from.
  auto data_stamp = StampFile(data_path_);
  if (!data_stamp.ok()) return data_stamp.status();
  auto ontology_stamp = StampFile(ontology_path_);
  if (!ontology_stamp.ok()) return ontology_stamp.status();
  SourceStamp sigma_stamp;
  if (!sigma_path_.empty()) {
    auto stamped = StampFile(sigma_path_);
    if (!stamped.ok()) return stamped.status();
    sigma_stamp = stamped.value();
  }

  std::vector<uint8_t> image =
      BuildSnapshotImage(rel_, ontology_, index_, sigma_, data_stamp.value(),
                         ontology_stamp.value(), sigma_stamp);
  return WriteFileAtomic(path, image);
}

void Session::UpdateCell(RowId row, AttrId attr, ValueId value) {
  if (incremental_ != nullptr) {
    incremental_->UpdateCell(row, attr, value);
  } else {
    rel_.SetId(row, attr, value);
  }
  dirty_attrs_ = dirty_attrs_.With(attr);
}

size_t Session::FlushInvalidations() {
  if (dirty_attrs_.empty()) return 0;
  size_t dropped = cache_.Invalidate(dirty_attrs_);
  dirty_attrs_ = AttrSet();
  return dropped;
}

Status Session::Audit() const {
  // Post-load updates intern new dictionary values without recompiling the
  // index (snapshot semantics), so the relaxed containment audit applies.
  Status index_ok =
      AuditOntologyIndex(ontology_, rel_.dict(), index_,
                         /*allow_unindexed_values=*/true);
  if (!index_ok.ok()) return index_ok;
  Status cache_ok = cache_.AuditInvariants();
  if (!cache_ok.ok()) return cache_ok;
  if (incremental_ != nullptr) return incremental_->AuditState();
  return Status::Ok();
}

Status SessionRegistry::Add(std::unique_ptr<Session> session) {
  MutexLock lock(mu_);
  const std::string& name = session->name();
  if (sessions_.count(name) != 0) {
    return Status::Error("session '" + name + "' already exists");
  }
  sessions_.emplace(name, std::move(session));
  return Status::Ok();
}

Status SessionRegistry::Remove(const std::string& name) {
  MutexLock lock(mu_);
  if (sessions_.erase(name) == 0) {
    return Status::Error("session '" + name + "' not found");
  }
  return Status::Ok();
}

std::shared_ptr<Session> SessionRegistry::Find(const std::string& name) {
  MutexLock lock(mu_);
  auto it = sessions_.find(name);
  return it == sessions_.end() ? nullptr : it->second;
}

std::vector<std::string> SessionRegistry::Names() const {
  MutexLock lock(mu_);
  std::vector<std::string> names;
  names.reserve(sessions_.size());
  for (const auto& [name, _] : sessions_) names.push_back(name);
  return names;
}

size_t SessionRegistry::size() const {
  MutexLock lock(mu_);
  return sessions_.size();
}

Status SessionRegistry::AuditInvariants() const {
  MutexLock lock(mu_);
  for (const auto& [name, session] : sessions_) {
    if (session == nullptr) {
      return audit::internal::Counted(
          Status::Error("registry audit: null session under '" + name + "'"));
    }
    if (session->name() != name) {
      return audit::internal::Counted(
          Status::Error("registry audit: session '" + session->name() +
                        "' registered under key '" + name + "'"));
    }
    Status session_ok = session->Audit();
    if (!session_ok.ok()) return session_ok;
  }
  return audit::internal::Counted(Status::Ok());
}

Status SessionRegistry::AuditOne(const std::string& name) const {
  std::shared_ptr<Session> target;
  {
    MutexLock lock(mu_);
    for (const auto& [key, session] : sessions_) {
      if (session == nullptr) {
        return audit::internal::Counted(
            Status::Error("registry audit: null session under '" + key + "'"));
      }
      if (session->name() != key) {
        return audit::internal::Counted(
            Status::Error("registry audit: session '" + session->name() +
                          "' registered under key '" + key + "'"));
      }
    }
    auto it = sessions_.find(name);
    if (it != sessions_.end()) target = it->second;
  }
  // Deep audit outside mu_: the shared_ptr pins the session, and the caller
  // holds it exclusively (writer) or under writer exclusion (reader), so
  // the state cannot mutate underneath the audit.
  if (target != nullptr) {
    Status session_ok = target->Audit();
    if (!session_ok.ok()) return session_ok;
  }
  return audit::internal::Counted(Status::Ok());
}

}  // namespace fastofd
