#include "core/split_schedule.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/string_util.h"
#include "core/conflict.h"
#include "iso/allowed.h"
#include "schedule/serializability.h"

namespace mvrob {
namespace {

// T1's write of `object` ww-conflicts with a write of T2 or Tm.
bool ClashesWithT2OrTm(const TransactionSet& txns, TxnId t2, TxnId tm,
                       ObjectId object) {
  return txns.txn(t2).Writes(object) || txns.txn(tm).Writes(object);
}

}  // namespace

bool SplitWwConflictFree(const TransactionSet& txns, IsolationLevel t1_level,
                         OpRef b1, TxnId t2, TxnId tm) {
  const Transaction& txn1 = txns.txn(b1.txn);
  const int last =
      t1_level == IsolationLevel::kRC ? b1.index : txn1.num_ops() - 1;
  for (int i = 0; i <= last; ++i) {
    const Operation& c1 = txn1.op(i);
    if (c1.IsWrite() && ClashesWithT2OrTm(txns, t2, tm, c1.object)) {
      return false;
    }
  }
  return true;
}

const char* ConflictKind(const Operation& b, const Operation& a) {
  if (RwConflicting(b, a)) return "rw";
  if (WrConflicting(b, a)) return "wr";
  if (WwConflicting(b, a)) return "ww";
  return "none";
}

std::vector<WitnessCondition> EvaluateSplitConditions(
    const TransactionSet& txns, const Allocation& alloc,
    const CounterexampleChain& chain) {
  std::vector<WitnessCondition> conditions;
  auto add = [&](std::string id, bool holds, std::string detail) {
    conditions.push_back({std::move(id), holds, std::move(detail)});
  };
  auto name = [&](TxnId t) { return txns.txn(t).name(); };
  auto op = [&](OpRef ref) { return txns.FormatOp(ref); };
  auto level = [&](TxnId t) { return alloc.level(t); };
  const std::string t1 = name(chain.t1);

  // (1) T1 conflicts with no inner transaction.
  std::vector<std::string> bad;
  for (TxnId t : chain.inner) {
    if (TxnsConflict(txns, chain.t1, t)) bad.push_back(name(t));
  }
  add("3.1(1)", bad.empty(),
      chain.inner.empty()
          ? "vacuous: the chain has no inner transactions"
          : bad.empty() ? StrCat(t1, " conflicts with none of the ",
                                 chain.inner.size(), " inner transaction(s)")
                        : StrCat(t1, " conflicts with inner transaction(s) ",
                                 Join(bad, ", ")));

  // (2)/(3) ww-conflict-freedom of the prefix (RC) or the whole of T1
  // (SI/SSI) against the write sets of T2 and Tm.
  std::vector<std::string> clashes[2];  // Prefix, postfix.
  const Transaction& txn1 = txns.txn(chain.t1);
  for (int i = 0; i < txn1.num_ops(); ++i) {
    const Operation& c1 = txn1.op(i);
    if (c1.IsWrite() &&
        ClashesWithT2OrTm(txns, chain.t2, chain.tm, c1.object)) {
      clashes[i > chain.b1.index].push_back(op(OpRef{chain.t1, i}));
    }
  }
  auto clash_detail = [&](const char* part, const std::vector<std::string>& w) {
    return StrCat(part, " write(s) ", Join(w, ", "), " ww-conflict with ",
                  name(chain.t2), " or ", name(chain.tm));
  };
  add("3.1(2)", clashes[0].empty(),
      clashes[0].empty()
          ? StrCat("no write in prefix_", op(chain.b1), "(", t1,
                   ") ww-conflicts with a write of ", name(chain.t2), " or ",
                   name(chain.tm))
          : clash_detail("prefix", clashes[0]));
  const bool t1_rc = level(chain.t1) == IsolationLevel::kRC;
  add("3.1(3)", t1_rc || clashes[1].empty(),
      t1_rc ? StrCat("vacuous: A(", t1, ") = RC")
      : clashes[1].empty()
          ? StrCat("A(", t1, ") = ", IsolationLevelToString(level(chain.t1)),
                   ": the postfix of ", t1, " is also ww-conflict-free with ",
                   name(chain.t2), " and ", name(chain.tm))
          : clash_detail("postfix", clashes[1]));

  // (4) b1 rw-conflicting with a2.
  const bool cond4 = RwConflicting(txns.op(chain.b1), txns.op(chain.a2));
  add("3.1(4)", cond4,
      StrCat("b1 = ", op(chain.b1),
             cond4 ? " is rw-conflicting with a2 = "
                   : " is NOT rw-conflicting with a2 = ",
             op(chain.a2)));

  // (5) bm conflicts with a1: rw-antidependency or the RC split case.
  const Operation& bm = txns.op(chain.bm);
  const Operation& a1 = txns.op(chain.a1);
  const bool cond5 = ClosesSplit(bm, a1, level(chain.t1), chain.b1.index,
                                 chain.a1.index);
  add("3.1(5)", cond5,
      RwConflicting(bm, a1)
          ? StrCat("bm = ", op(chain.bm), " is rw-conflicting with a1 = ",
                   op(chain.a1))
      : cond5 ? StrCat("bm = ", op(chain.bm), " ", ConflictKind(bm, a1),
                       "-conflicts with a1 = ", op(chain.a1),
                       " and the RC split case applies: A(", t1,
                       ") = RC with b1 <_T1 a1")
              : StrCat("bm = ", op(chain.bm), " -> a1 = ", op(chain.a1),
                       " is neither rw-conflicting nor the RC split case"));

  // (6)-(8) the SSI side conditions.
  auto ssi = [&](TxnId t) { return level(t) == IsolationLevel::kSSI; };
  const bool all_ssi = ssi(chain.t1) && ssi(chain.t2) && ssi(chain.tm);
  add("3.1(6)", !all_ssi,
      all_ssi ? "T1, T2 and Tm are all SSI"
              : StrCat("not all of ", t1, ", ", name(chain.t2), ", ",
                       name(chain.tm), " are SSI (",
                       IsolationLevelToString(level(chain.t1)), "/",
                       IsolationLevelToString(level(chain.t2)), "/",
                       IsolationLevelToString(level(chain.tm)), ")"));
  // (7) with partner T2 and (8) with partner Tm: when T1 and the partner
  // are both SSI, `writer` writes nothing `reader` reads.
  auto wr_free = [&](const char* id, TxnId partner, TxnId writer,
                     TxnId reader) {
    if (!ssi(chain.t1) || !ssi(partner)) {
      add(id, true, StrCat("vacuous: A(", t1, ") and A(", name(partner),
                           ") are not both SSI"));
      return;
    }
    const bool ok = WrConflictFreeTxns(txns, writer, reader);
    add(id, ok,
        StrCat(name(writer),
               ok ? " is wr-conflict-free with " : " wr-conflicts with ",
               name(reader), " (both SSI)"));
  };
  wr_free("3.1(7)", chain.t2, chain.t1, chain.t2);
  wr_free("3.1(8)", chain.tm, chain.tm, chain.t1);
  return conditions;
}

std::vector<ChainEdge> SplitChainEdges(const TransactionSet& txns,
                                       const CounterexampleChain& chain) {
  std::vector<ChainEdge> edges{{chain.t1, chain.t2, chain.b1, chain.a2}};
  std::vector<TxnId> middle = chain.MiddleTxns();
  for (size_t i = 0; i + 1 < middle.size(); ++i) {
    auto pair = FindConflictingPair(txns, middle[i], middle[i + 1]);
    edges.push_back({middle[i], middle[i + 1],
                     pair ? pair->first : OpRef::Op0(),
                     pair ? pair->second : OpRef::Op0()});
  }
  edges.push_back({chain.tm, chain.t1, chain.bm, chain.a1});
  return edges;
}

Status CheckChainReferences(const TransactionSet& txns,
                            const CounterexampleChain& chain) {
  if (chain.t1 >= txns.size() || chain.t2 >= txns.size() ||
      chain.tm >= txns.size()) {
    return Status::InvalidArgument("chain references unknown transactions");
  }
  if (chain.t1 == chain.t2 || chain.t1 == chain.tm) {
    return Status::InvalidArgument("T1 must differ from T2 and Tm");
  }
  for (TxnId t : chain.inner) {
    if (t >= txns.size() || t == chain.t1) {
      return Status::InvalidArgument("invalid inner transaction");
    }
  }
  for (OpRef ref : {chain.b1, chain.a1, chain.a2, chain.bm}) {
    if (ref.IsOp0() || !txns.IsValidRef(ref)) {
      return Status::InvalidArgument("chain operation reference invalid");
    }
  }
  if (chain.b1.txn != chain.t1 || chain.a1.txn != chain.t1 ||
      chain.a2.txn != chain.t2 || chain.bm.txn != chain.tm) {
    return Status::InvalidArgument(
        "chain operations assigned to wrong transactions");
  }
  return Status::Ok();
}

Status ValidateSplitChain(const TransactionSet& txns, const Allocation& alloc,
                          const CounterexampleChain& chain) {
  Status references = CheckChainReferences(txns, chain);
  if (!references.ok()) return references;
  std::vector<TxnId> sorted = chain.MiddleTxns();
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return Status::InvalidArgument(
        "chain transactions must be pairwise distinct");
  }
  if (chain.t2 == chain.tm && !chain.inner.empty()) {
    return Status::InvalidArgument(
        "inner transactions are not allowed when T2 = Tm");
  }
  if (txns.op(chain.a1).IsCommit() || txns.op(chain.bm).IsCommit()) {
    return Status::InvalidArgument("conflicting operations cannot be commits");
  }
  for (const ChainEdge& edge : SplitChainEdges(txns, chain)) {
    if (edge.b.IsOp0()) {
      return Status::InvalidArgument(
          StrCat("chain neighbors ", txns.txn(edge.from).name(), " and ",
                 txns.txn(edge.to).name(), " do not conflict"));
    }
  }
  std::vector<WitnessCondition> conditions =
      EvaluateSplitConditions(txns, alloc, chain);
  for (size_t i = 0; i < conditions.size(); ++i) {
    if (!conditions[i].holds) {
      return Status::InvalidArgument(
          StrCat(conditions[i].detail, " (cond. ", i + 1, ")"));
    }
  }
  return Status::Ok();
}

std::vector<OpRef> BuildSplitOrder(const TransactionSet& txns,
                                   const CounterexampleChain& chain) {
  std::vector<OpRef> order;
  order.reserve(txns.TotalOps());
  auto append_whole = [&](TxnId t) {
    for (int i = 0; i < txns.txn(t).num_ops(); ++i) {
      order.push_back(OpRef{t, i});
    }
  };

  // prefix_{b1}(T1).
  for (int i = 0; i <= chain.b1.index; ++i) {
    order.push_back(OpRef{chain.t1, i});
  }
  // T2 . inner ... . Tm.
  std::vector<bool> in_chain(txns.size(), false);
  in_chain[chain.t1] = true;
  append_whole(chain.t2);
  in_chain[chain.t2] = true;
  for (TxnId t : chain.inner) {
    append_whole(t);
    in_chain[t] = true;
  }
  if (chain.tm != chain.t2) {
    append_whole(chain.tm);
    in_chain[chain.tm] = true;
  }
  // postfix_{b1}(T1), commit included.
  for (int i = chain.b1.index + 1; i < txns.txn(chain.t1).num_ops(); ++i) {
    order.push_back(OpRef{chain.t1, i});
  }
  // Remaining transactions, serially.
  for (TxnId t = 0; t < txns.size(); ++t) {
    if (!in_chain[t]) append_whole(t);
  }
  return order;
}

StatusOr<Schedule> BuildSplitSchedule(const TransactionSet& txns,
                                      const Allocation& alloc,
                                      const CounterexampleChain& chain) {
  return MaterializeSchedule(&txns, BuildSplitOrder(txns, chain), alloc);
}

Status VerifyCounterexample(const TransactionSet& txns,
                            const Allocation& alloc,
                            const CounterexampleChain& chain) {
  Status valid = ValidateSplitChain(txns, alloc, chain);
  if (!valid.ok()) return valid;
  StatusOr<Schedule> schedule = BuildSplitSchedule(txns, alloc, chain);
  if (!schedule.ok()) return schedule.status();
  AllowedCheckResult allowed = CheckAllowedUnder(*schedule, alloc);
  if (!allowed.allowed) {
    return Status::FailedPrecondition(
        StrCat("split schedule not allowed under the allocation: ",
               Join(allowed.violations, "; ")));
  }
  if (IsConflictSerializable(*schedule)) {
    return Status::FailedPrecondition(
        "split schedule is conflict serializable");
  }
  return Status::Ok();
}

}  // namespace mvrob
