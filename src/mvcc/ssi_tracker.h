#ifndef MVROB_MVCC_SSI_TRACKER_H_
#define MVROB_MVCC_SSI_TRACKER_H_

#include <cstdint>
#include <vector>

#include "mvcc/version_store.h"

namespace mvrob {

struct SessionRecord;

/// Attribution of an SSI abort: the session on the other side of an
/// rw-antidependency adjacent to the aborting candidate in the dangerous
/// structure that refused the commit, and the object carrying that edge.
/// `found` is false when no exact structure exists (possible under the
/// conservative mode, which also aborts on false positives).
struct SsiConflictDetail {
  SessionId peer = kInvalidSessionId;
  ObjectId object = kInvalidObjectId;
  /// Commit timestamp of the version the edge's reader observed (0 for a
  /// read of the reader's own buffered write).
  Timestamp version_ts = 0;
  bool found = false;
};

/// A session taking part in an SSI check: its id and its record. Registry
/// entries are committed and immutable; active members (conservative
/// mode) may still grow after the check returns.
struct SsiMember {
  SessionId id = kInvalidSessionId;
  const SessionRecord* record = nullptr;
};

/// The committed SSI sessions that can still join a dangerous structure,
/// and the commit tests run against them. Both engines own one.
///
/// Postgres' SSI implementation tracks rw-antidependencies conservatively
/// (per-transaction in/out flags) and may abort on false positives. The
/// exact check instead evaluates the condition of Definition 2.4: a commit
/// is refused iff it would complete a dangerous structure T1 -> T2 -> T3
/// among committed SSI sessions (including the commit-order optimization
/// C3 <= C1, C3 < C2). Exactness matters for the conformance tests: every
/// committed trace must map to a formal schedule allowed under the session
/// allocation — no more, no less.
///
/// Entries are retired as soon as no active or future session can reach
/// them within two Concurrent() hops, the longest path in a structure, so
/// retirement never changes a verdict and the registry stays as small as
/// the true overlap between sessions.
class SsiRegistry {
 public:
  /// True iff committing `candidate` (with the given hypothetical commit
  /// timestamp and step, both later than every entry's) completes a
  /// dangerous structure whose other members are registry entries. With a
  /// non-null `detail`, a refusal also reports the rw-edge neighbor of the
  /// candidate in the first structure found.
  bool WouldCompleteDangerousStructure(
      const SsiMember& candidate, Timestamp commit_ts, uint64_t commit_step,
      SsiConflictDetail* detail = nullptr) const;

  /// Conservative flag check (SsiMode::kConservative): true iff, treating
  /// `candidate` as committed, some SSI session — an entry, one of the
  /// still-`active` SSI sessions, or the candidate — would be a pivot with
  /// an incoming and an outgoing rw-antidependency between concurrent SSI
  /// sessions, regardless of commit order. A superset of the exact
  /// condition: everything the exact check aborts is also aborted here,
  /// plus false positives.
  bool WouldCreatePivot(const std::vector<SsiMember>& active,
                        const SsiMember& candidate, Timestamp commit_ts,
                        uint64_t commit_step) const;

  /// Registers a just-committed SSI session, whose record must stay at the
  /// same address and unchanged while it is registered, then retires every
  /// entry no active or future session can reach. `horizon` is a lower
  /// bound on the first step of every active and future SSI session; 0
  /// retires nothing.
  void Add(const SsiMember& committed, uint64_t horizon);

  size_t size() const { return entries_.size(); }

 private:
  /// In commit order.
  std::vector<SsiMember> entries_;
};

}  // namespace mvrob

#endif  // MVROB_MVCC_SSI_TRACKER_H_
