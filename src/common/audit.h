// Deep invariant auditing.
//
// Sanitizers catch memory errors; they cannot catch a partition whose
// classes silently stopped covering the relation, an ontology index that
// drifted from its source tree, or an incremental verifier whose group maps
// disagree with a full re-verification — all of which produce *wrong OFDs*
// rather than crashes. Audit mode makes those invariants machine-checked at
// the hot entry points of discovery, cleaning, and the service.
//
// Each module implements validators returning Status (so tests can assert
// that corrupted state is *detected*, not just that valid state passes):
//
//   StrippedPartition::AuditInvariants   relation/partition.{h,cc}
//   PartitionCache::AuditInvariants      relation/partition.{h,cc}
//                                        (LRU accounting + metrics gauges
//                                        vs recomputed footprints)
//   AuditOntologyIndex                   ontology/synonym_index.{h,cc}
//   BeamScorer::AuditNodeScore           clean/beam_scorer.{h,cc}
//   IncrementalVerifier::AuditState      ofd/incremental.{h,cc}
//   Session::Audit / SessionRegistry::AuditInvariants  service/session.{h,cc}
//
// The snapshot loader (service/snapshot.{h,cc}) is its own validation
// layer: ParseSnapshot treats the image as untrusted input and re-validates
// every section (checksum, counts, ids in range) before any of it reaches a
// Session. Images hold no partitions, so no partition bytes are ever read
// from a file.
//
// The validators are always compiled. The *hooks* that run them on hot
// paths are compiled in only when the FASTOFD_AUDIT CMake option defines
// FASTOFD_AUDIT: a violation then aborts with the failing invariant, source
// location, and status message. Expect audit builds to be several times
// slower — deep cross-checks re-derive state from scratch (bounded by
// kDeepAuditMaxRows so services stay usable on real data).

#ifndef FASTOFD_COMMON_AUDIT_H_
#define FASTOFD_COMMON_AUDIT_H_

#include <cstdint>
#include <string>

#include "common/status.h"

#ifdef FASTOFD_AUDIT
#define FASTOFD_AUDIT_ENABLED 1
#else
#define FASTOFD_AUDIT_ENABLED 0
#endif

namespace fastofd::audit {

/// True in builds configured with -DFASTOFD_AUDIT=ON.
inline constexpr bool kEnabled = FASTOFD_AUDIT_ENABLED != 0;

/// Validators re-derive state from scratch (naive partition rebuild, full Σ
/// re-verification) only at or below this row count; above it they fall
/// back to the structural checks, which stay near-linear.
inline constexpr int64_t kDeepAuditMaxRows = 4096;

/// Total audit checks executed since process start (any build mode — direct
/// validator calls from tests count too). Tests use this to assert that
/// hooks actually fired on a code path.
int64_t ChecksRun();

/// Checks that returned a violation Status to their caller.
int64_t ChecksFailed();

namespace internal {

/// Records one executed check; returns `status` unchanged. Every public
/// validator funnels its result through here.
Status Counted(Status status);

[[noreturn]] void FailAbort(const char* expr, const char* file, int line,
                            const std::string& message);

}  // namespace internal
}  // namespace fastofd::audit

// Runs a Status-returning validator expression at a hot entry point. In
// audit builds a violation aborts with the expression, location, and status
// message; in normal builds the expression is not evaluated at all.
#if FASTOFD_AUDIT_ENABLED
#define FASTOFD_AUDIT_OK(expr)                                             \
  do {                                                                     \
    ::fastofd::Status fastofd_audit_status = (expr);                       \
    if (!fastofd_audit_status.ok()) {                                      \
      ::fastofd::audit::internal::FailAbort(                               \
          #expr, __FILE__, __LINE__, fastofd_audit_status.message());      \
    }                                                                      \
  } while (false)
#else
#define FASTOFD_AUDIT_OK(expr) \
  do {                         \
  } while (false)
#endif

#endif  // FASTOFD_COMMON_AUDIT_H_
