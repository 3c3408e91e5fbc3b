// Sessions: loaded relation + ontology + Σ kept hot between requests.
//
// A batch CLI invocation pays CSV parsing, dictionary interning, index
// compilation, and partition building on every call and then throws the
// state away. A Session pays them once at `load` and keeps an
// IncrementalVerifier, the one record of Σ's verdict: `update` maintains
// each OFD's per-class satisfaction and support online, and `verify` reads
// them back without re-verifying. A memory-budgeted PartitionCache holds the
// partitions `discover` and `clean` build on demand.

#ifndef FASTOFD_SERVICE_SESSION_H_
#define FASTOFD_SERVICE_SESSION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/sync.h"
#include "ofd/incremental.h"
#include "ofd/ofd.h"
#include "ontology/ontology.h"
#include "ontology/synonym_index.h"
#include "relation/partition.h"
#include "relation/relation.h"

namespace fastofd {

/// One loaded (relation, ontology, Σ) triple with warm derived state.
///
/// Concurrency contract (enforced by ServiceServer's per-session strands,
/// not by locks in here): mutating requests (`update`, `load`, `unload`)
/// hold the session exclusively — the strand starts a writer only once
/// every in-flight snapshot reader has finished — while read-only requests
/// (`verify`, `discover`) may run concurrently with each other against the
/// quiescent state. The seqlock-style version() counter makes the contract
/// checkable: writers bracket mutations with BeginWrite()/EndWrite() (odd =
/// mutating), and readers audit that the version is even and unchanged
/// across their whole computation.
class Session {
 public:
  /// Loads the files, compiles the index, and builds the incremental
  /// verifier (when Σ is given). The partition cache starts empty.
  /// `sigma_path` may be empty: verify/update then require Σ to be supplied
  /// later or fail, but discover works.
  static Result<std::unique_ptr<Session>> Open(std::string name,
                                               const std::string& data_path,
                                               const std::string& ontology_path,
                                               const std::string& sigma_path,
                                               int64_t cache_budget_bytes,
                                               MetricsRegistry* metrics);

  /// Opens from a compiled snapshot (service/snapshot.h) instead of
  /// recompiling the sources: the relation, dictionary, ontology, synonym
  /// index, and Σ are adopted from the image, and the incremental verifier
  /// is rebuilt from them. Refuses (so the caller falls back to Open) when the image is invalid,
  /// from another format version, or stale — its source stamps must match
  /// the current bytes of `data_path` / `ontology_path` / `sigma_path`.
  static Result<std::unique_ptr<Session>> OpenFromSnapshot(
      std::string name, const std::string& snapshot_path,
      const std::string& data_path, const std::string& ontology_path,
      const std::string& sigma_path, int64_t cache_budget_bytes,
      MetricsRegistry* metrics);

  /// Serializes this session's compiled state (plus fresh source stamps) to
  /// `path`, atomically. Partitions are not stored: they rebuild on demand.
  Status WriteSnapshot(const std::string& path) const;

  const std::string& name() const { return name_; }
  Relation& rel() { return rel_; }
  const Ontology& ontology() const { return ontology_; }
  const SynonymIndex& index() const { return index_; }
  PartitionCache& cache() { return cache_; }
  const SigmaSet& sigma() const { return sigma_; }
  bool has_sigma() const { return !sigma_.empty(); }

  /// Null iff no Σ was loaded.
  IncrementalVerifier* incremental() { return incremental_.get(); }

  /// Seqlock-style session version: even = quiescent, odd = an exclusive
  /// writer is mutating. Reads are lock-free; writes are serialized by the
  /// server's per-session exclusivity, so fetch_add never races fetch_add.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }
  /// Writer entry: version becomes odd. Call only under session exclusivity.
  void BeginWrite() { version_.fetch_add(1, std::memory_order_acq_rel); }
  /// Writer exit: version becomes even again.
  void EndWrite() { version_.fetch_add(1, std::memory_order_release); }

  /// Applies one cell update through the incremental verifier and records
  /// the touched attribute for partition-cache invalidation at batch end.
  void UpdateCell(RowId row, AttrId attr, ValueId value);

  /// Invalidates cached partitions over attributes touched since the last
  /// call; returns how many entries were dropped.
  size_t FlushInvalidations();

  /// Wall-clock seconds spent inside Open() (reported by `list`).
  double load_seconds() const { return load_seconds_; }

  /// Deep invariant audit (common/audit.h): the compiled synonym index
  /// agrees with the ontology (relaxed for values interned after load — see
  /// AuditOntologyIndex), the partition cache's accounting matches its
  /// contents, and, when Σ is loaded, the incremental verifier's group maps
  /// pass AuditState. Returns the first violation found.
  Status Audit() const;

 private:
  Session(std::string name, Relation rel, Ontology ontology,
          int64_t cache_budget_bytes, MetricsRegistry* metrics);
  /// Snapshot-open variant: adopts a prebuilt index instead of compiling
  /// one from the ontology.
  Session(std::string name, Relation rel, Ontology ontology,
          SynonymIndex index, int64_t cache_budget_bytes,
          MetricsRegistry* metrics);

  /// Shared tail of Open / OpenFromSnapshot: adopt Σ and build the
  /// incremental verifier (no-op for an empty Σ).
  void AdoptSigma(SigmaSet sigma);

  std::string name_;
  // Source files this session was compiled from (for snapshot stamps).
  std::string data_path_;
  std::string ontology_path_;
  std::string sigma_path_;
  Relation rel_;
  Ontology ontology_;
  SynonymIndex index_;
  PartitionCache cache_;
  SigmaSet sigma_;
  std::unique_ptr<IncrementalVerifier> incremental_;
  AttrSet dirty_attrs_;
  double load_seconds_ = 0.0;
  // Lock-free seqlock counter; writes serialized by session exclusivity.
  std::atomic<uint64_t> version_{0};
};

/// Name -> Session map guarding the service's `load`/`unload`/`list` ops.
/// Thread-safe for registration and lookup from any pool worker. Find
/// hands out shared ownership so `list` (which walks every session) can
/// never observe a concurrent `unload` of another session as a
/// use-after-free: the map entry disappears immediately, the storage
/// survives until the last in-flight reference drops.
class SessionRegistry {
 public:
  /// Fails with "exists" if the name is taken.
  Status Add(std::unique_ptr<Session> session) EXCLUDES(mu_);

  /// Fails with "not found" if absent.
  Status Remove(const std::string& name) EXCLUDES(mu_);

  /// Nullptr when absent.
  std::shared_ptr<Session> Find(const std::string& name) EXCLUDES(mu_);

  std::vector<std::string> Names() const EXCLUDES(mu_);
  size_t size() const EXCLUDES(mu_);

  /// Deep invariant audit (common/audit.h): every registered session is
  /// non-null, keyed by its own name, and passes Session::Audit. Returns
  /// the first violation found. Only safe when no session is concurrently
  /// mutating (e.g. tests, or a drained server).
  Status AuditInvariants() const EXCLUDES(mu_);

  /// Per-request audit scope for the service: structural checks on the
  /// whole registry (null entries, key/name agreement) under the lock, then
  /// a deep Session::Audit of `name` only — the one session whose strand
  /// the request holds (alone, or as a reader while writers are excluded),
  /// so the deep audit cannot race another session's writer.
  /// Unknown or empty names get the structural pass alone.
  Status AuditOne(const std::string& name) const EXCLUDES(mu_);

 private:
  // Lock order: mu_ is held across Session::Audit in AuditInvariants, so it
  // sits outside each session's PartitionCache::mu_ (which in turn sits
  // outside the MetricsRegistry lock). AuditOne runs the deep audit after
  // releasing mu_ (the shared_ptr keeps the session alive), so concurrent
  // Find/Add/Remove from other requests never stall behind it.
  mutable Mutex mu_;
  std::map<std::string, std::shared_ptr<Session>> sessions_ GUARDED_BY(mu_);
};

}  // namespace fastofd

#endif  // FASTOFD_SERVICE_SESSION_H_
