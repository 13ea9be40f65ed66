#include "mvcc/ssi_tracker.h"

#include <algorithm>

#include "mvcc/engine.h"

namespace mvrob {
namespace {

// A session with its (possibly hypothetical) commit applied.
struct MemberView {
  SessionId id = kInvalidSessionId;
  const SessionRecord* record = nullptr;
  Timestamp commit_ts = 0;
  uint64_t commit_step = 0;
};

MemberView Committed(const SsiMember& member) {
  return MemberView{member.id, member.record, member.record->commit_ts,
                    member.record->commit_step};
}

bool Concurrent(const MemberView& a, const MemberView& b) {
  if (a.record->first_step == 0 || b.record->first_step == 0) return false;
  return a.record->first_step < b.commit_step &&
         b.record->first_step < a.commit_step;
}

// rw-antidependency a -> b: a read a version of an object installed before
// the version b writes. All writes of b install at b.commit_ts; a read of
// a's own buffered write is treated as reading a's own version (installed
// at a.commit_ts).
bool RwAntiEdge(const MemberView& a, const MemberView& b,
                ObjectId* edge_object = nullptr,
                Timestamp* edge_version_ts = nullptr) {
  if (a.id == b.id) return false;
  for (const SessionReadRecord& read : a.record->reads) {
    if (!b.record->write_buffer.contains(read.object)) continue;
    Timestamp observed_ts =
        read.version_writer == a.id ? a.commit_ts : read.version_ts;
    if (observed_ts < b.commit_ts) {
      if (edge_object != nullptr) *edge_object = read.object;
      if (edge_version_ts != nullptr) {
        *edge_version_ts = read.version_writer == a.id ? 0 : read.version_ts;
      }
      return true;
    }
  }
  return false;
}

// Potential rw-antidependency for the conservative mode: a read by `a` of
// an object `b` writes, where `a` did not observe `b`'s version —
// uncommitted writes count (the edge will materialize if b commits).
bool PotentialRwAntiEdge(const MemberView& a, const MemberView& b) {
  if (a.id == b.id) return false;
  for (const SessionReadRecord& read : a.record->reads) {
    if (!b.record->write_buffer.contains(read.object)) continue;
    if (read.version_writer != b.id) return true;
  }
  return false;
}

}  // namespace

bool SsiRegistry::WouldCompleteDangerousStructure(
    const SsiMember& candidate, Timestamp commit_ts, uint64_t commit_step,
    SsiConflictDetail* detail) const {
  // A structure completed by this commit contains the candidate, and the
  // candidate commits last, so C3 < C2 rules it out as T3: it is T2 or
  // T1. Scanning the T2 case first, each over entries in commit order,
  // finds the structure a t1 x t2 x t3 scan over [entries..., candidate]
  // would find first.
  const MemberView c{candidate.id, candidate.record, commit_ts, commit_step};
  auto refuse = [detail](const MemberView& peer, const MemberView& reader,
                         const MemberView& writer) {
    if (detail != nullptr) {
      detail->found = true;
      detail->peer = peer.id;
      RwAntiEdge(reader, writer, &detail->object, &detail->version_ts);
    }
    return true;
  };
  // T1 -> C -> T3 with C3 <= C1 (equality iff T3 = T1).
  for (const SsiMember& m1 : entries_) {
    const MemberView t1 = Committed(m1);
    if (!Concurrent(t1, c) || !RwAntiEdge(t1, c)) continue;
    for (const SsiMember& m3 : entries_) {
      const MemberView t3 = Committed(m3);
      if (t3.id != t1.id && !(t3.commit_ts < t1.commit_ts)) continue;
      if (Concurrent(c, t3) && RwAntiEdge(c, t3)) return refuse(t1, t1, c);
    }
  }
  // C -> T2 -> T3 with C3 < C2.
  for (const SsiMember& m2 : entries_) {
    const MemberView t2 = Committed(m2);
    if (!Concurrent(c, t2) || !RwAntiEdge(c, t2)) continue;
    for (const SsiMember& m3 : entries_) {
      const MemberView t3 = Committed(m3);
      if (!(t3.commit_ts < t2.commit_ts)) continue;
      if (Concurrent(t2, t3) && RwAntiEdge(t2, t3)) return refuse(t2, c, t2);
    }
  }
  return false;
}

bool SsiRegistry::WouldCreatePivot(const std::vector<SsiMember>& active,
                                   const SsiMember& candidate,
                                   Timestamp commit_ts,
                                   uint64_t commit_step) const {
  constexpr Timestamp kInfTs = ~Timestamp{0};
  constexpr uint64_t kInfStep = ~uint64_t{0};
  std::vector<MemberView> members;
  members.reserve(entries_.size() + active.size() + 1);
  for (const SsiMember& entry : entries_) members.push_back(Committed(entry));
  for (const SsiMember& session : active) {
    if (session.id == candidate.id) continue;
    members.push_back(MemberView{session.id, session.record, kInfTs, kInfStep});
  }
  members.push_back(
      MemberView{candidate.id, candidate.record, commit_ts, commit_step});
  const MemberView& c = members.back();
  // The candidate is the pivot, or an end of pivot x's in or out edge.
  for (const MemberView& x : members) {
    if (x.id == c.id || !Concurrent(x, c)) continue;
    const bool into_c = PotentialRwAntiEdge(x, c);
    const bool out_of_c = PotentialRwAntiEdge(c, x);
    if (into_c) {
      // x -> C -> y.
      for (const MemberView& y : members) {
        if (y.id != c.id && Concurrent(c, y) && PotentialRwAntiEdge(c, y)) {
          return true;
        }
      }
    }
    if (!into_c && !out_of_c) continue;
    // C -> x -> y or y -> x -> C.
    for (const MemberView& y : members) {
      if (y.id == x.id || !Concurrent(x, y)) continue;
      if ((out_of_c && PotentialRwAntiEdge(x, y)) ||
          (into_c && PotentialRwAntiEdge(y, x))) {
        return true;
      }
    }
  }
  return false;
}

void SsiRegistry::Add(const SsiMember& committed, uint64_t horizon) {
  // A session without operations is concurrent with nothing.
  if (committed.record->first_step != 0) entries_.push_back(committed);
  // Concurrent() is overlap of [first_step, commit_step). A session n
  // starting at or after `horizon` overlaps only entries committing after
  // it; a structure containing n reaches one hop further, through an
  // entry f that overlaps n, to entries committing after f's first step.
  // Everything committing at or before both bounds is unreachable.
  uint64_t bound = horizon;
  for (const SsiMember& f : entries_) {
    if (f.record->commit_step > horizon) {
      bound = std::min(bound, f.record->first_step);
    }
  }
  std::erase_if(entries_, [bound](const SsiMember& e) {
    return e.record->commit_step <= bound;
  });
}

}  // namespace mvrob
