// Differential test for RobustnessAnalyzer::CheckDelta and the lowering
// loop. Every lowering loop that checks a candidate against a robust base
// allocation — Algorithm 2, IncrementalAllocator's warm-started
// re-optimization, the bounded allocation, the {RC, SI} allocation, and
// the template-level searches — is re-run here test-locally as the
// sequential descent (each unit lowered from the running allocation) on
// full Check. At every step, accepted or rejected, CheckDelta on the
// prepared base must equal Check(candidate): verdict, the whole
// counterexample chain (inner transactions included), triples_examined
// and cancelled, at 1 and 4 threads, and must leave the base as it was.
// The library loop, which decides each unit against the fixed top, must
// end at the test-local loop's allocation and at the exhaustive-allocation
// oracle's optimum of the box (sets of at most 7 transactions), and count
// one robustness check per candidate the test-local loop checked, plus
// one for a top other than A_SSI. A run cancelled at any probe must still
// return a robust allocation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <iostream>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/analyzer.h"
#include "core/incremental.h"
#include "core/optimal_allocation.h"
#include "fixtures.h"
#include "oracle/exhaustive_allocation.h"
#include "promote/promotion.h"
#include "templates/instantiate.h"
#include "templates/library.h"
#include "templates/promote.h"
#include "templates/robustness.h"
#include "workloads/registry.h"

namespace mvrob {
namespace {

// Force real background workers (before anything builds the shared pool)
// so the 4-thread checks genuinely run in parallel on any host.
const bool kPoolForced = [] {
  setenv("MVROB_POOL_WORKERS", "3", /*overwrite=*/0);
  return true;
}();

constexpr int kThreadCounts[] = {1, 4};
constexpr IsolationLevel kLowerings[] = {IsolationLevel::kRC,
                                         IsolationLevel::kSI};

::testing::AssertionResult SameResult(const RobustnessResult& full,
                                      const RobustnessResult& delta) {
  if (full.robust != delta.robust || full.cancelled != delta.cancelled ||
      full.triples_examined != delta.triples_examined ||
      full.counterexample.has_value() != delta.counterexample.has_value()) {
    return ::testing::AssertionFailure()
           << "robust " << full.robust << "/" << delta.robust
           << ", cancelled " << full.cancelled << "/" << delta.cancelled
           << ", triples " << full.triples_examined << "/"
           << delta.triples_examined;
  }
  if (!full.counterexample.has_value()) return ::testing::AssertionSuccess();
  const CounterexampleChain& a = *full.counterexample;
  const CounterexampleChain& b = *delta.counterexample;
  if (a.t1 != b.t1 || a.t2 != b.t2 || a.tm != b.tm || a.b1 != b.b1 ||
      a.a1 != b.a1 || a.a2 != b.a2 || a.bm != b.bm || a.inner != b.inner) {
    return ::testing::AssertionFailure()
           << "chains differ: full (" << a.t1 << "," << a.t2 << "," << a.tm
           << ", " << a.inner.size() << " inner) vs delta (" << b.t1 << ","
           << b.t2 << "," << b.tm << ", " << b.inner.size() << " inner)";
  }
  return ::testing::AssertionSuccess();
}

// CheckDelta/Check comparisons made by this test process; reported when
// it ends.
uint64_t g_compared = 0;

class ComparisonReport : public ::testing::Environment {
 public:
  void TearDown() override {
    std::cout << "[delta] " << g_compared
              << " CheckDelta/Check comparisons\n";
  }
};
const ::testing::Environment* const kReport =
    ::testing::AddGlobalTestEnvironment(new ComparisonReport);

// One analyzer per transaction set; every check goes through Check() below.
class Referee {
 public:
  Referee(const TransactionSet& txns, int threads) : analyzer_(txns) {
    options_.num_threads = threads;
  }

  // Full Check(candidate), after comparing CheckDelta(base, candidate)
  // with it. `base` must be robust.
  RobustnessResult Check(const Allocation& base, const Allocation& candidate) {
    DeltaBase prepared(base);
    return Check(prepared, LevelChanges(base, candidate));
  }

  // The same for the candidate `base` with `changes` applied.
  RobustnessResult Check(DeltaBase& base,
                         const std::vector<LevelChange>& changes) {
    Allocation candidate = base.allocation();
    for (const LevelChange& change : changes) {
      candidate.set_level(change.txn, change.level);
    }
    const Allocation before = base.allocation();
    RobustnessResult full = analyzer_.Check(candidate, options_);
    RobustnessResult delta = analyzer_.CheckDelta(base, changes, options_);
    ++g_compared;
    const TransactionSet& txns = analyzer_.txns();
    EXPECT_TRUE(SameResult(full, delta))
        << "base " << before.ToString(txns) << " candidate "
        << candidate.ToString(txns) << "\n"
        << txns.ToString();
    EXPECT_EQ(base.allocation(), before) << "the probe left the base changed";
    return full;
  }

  const RobustnessAnalyzer& analyzer() const { return analyzer_; }

 private:
  RobustnessAnalyzer analyzer_;
  CheckOptions options_;
};

// Algorithm 2 from `start` (robust), skipping levels below `floor`. Adds
// one to `*probes` per candidate checked.
Allocation LowerFrom(Referee& referee, Allocation start,
                     const std::vector<IsolationLevel>& floor,
                     uint64_t* probes) {
  Allocation allocation = std::move(start);
  for (TxnId t = 0; t < allocation.size(); ++t) {
    for (IsolationLevel level : kLowerings) {
      if (level < floor[t]) continue;
      if (!(level < allocation.level(t))) break;
      Allocation candidate = allocation.With(t, level);
      ++*probes;
      if (referee.Check(allocation, candidate).robust) {
        allocation = std::move(candidate);
        break;
      }
    }
  }
  return allocation;
}

std::vector<IsolationLevel> NoFloor(size_t n) {
  return std::vector<IsolationLevel>(n, IsolationLevel::kRC);
}

// Every robust allocation of `txns` over {RC, SI, SSI}, by the
// exhaustive-allocation oracle; empty for sets of more than 7
// transactions (3^7 candidates).
std::vector<Allocation> RobustAllocations(const TransactionSet& txns) {
  if (txns.size() > 7) return {};
  StatusOr<ExhaustiveAllocationResult> lattice = EnumerateRobustAllocations(
      txns,
      std::vector<IsolationLevel>(std::begin(kAllIsolationLevels),
                                  std::end(kAllIsolationLevels)),
      RobustnessOracle::kAlgorithm);
  EXPECT_TRUE(lattice.ok()) << lattice.status();
  return lattice.ok() ? lattice->robust_allocations
                      : std::vector<Allocation>{};
}

// The oracle's optimum of the box: the pointwise minimum of the robust
// allocations inside it (Proposition 4.2), or nullopt when there is none.
std::optional<Allocation> OracleOptimum(const std::vector<Allocation>& robust,
                                        const AllocationBounds& bounds) {
  std::optional<Allocation> optimum;
  for (const Allocation& alloc : robust) {
    if (!Allocation(bounds.min_level).LessEq(alloc) ||
        !alloc.LessEq(Allocation(bounds.max_level))) {
      continue;
    }
    if (!optimum.has_value()) {
      optimum = alloc;
      continue;
    }
    for (TxnId t = 0; t < alloc.size(); ++t) {
      if (alloc.level(t) < optimum->level(t)) {
        optimum->set_level(t, alloc.level(t));
      }
    }
  }
  return optimum;
}

// The library's Algorithm 2 over `bounds` must end where the referee's
// loop does, and at the oracle's optimum when `robust` (every robust
// allocation) is given, with one robustness check per probe plus one for
// a top other than A_SSI (no witness splits A_SSI, so it is never
// checked).
void CheckBox(const TransactionSet& txns, int threads,
              const AllocationBounds& bounds,
              const std::vector<Allocation>& robust) {
  Referee referee(txns, threads);
  CheckOptions options;
  options.num_threads = threads;
  StatusOr<OptimalAllocationResult> actual =
      ComputeOptimalAllocation(referee.analyzer(), bounds, options);
  ASSERT_TRUE(actual.ok()) << actual.status();
  EXPECT_FALSE(actual->cancelled);
  const Allocation top(bounds.max_level);
  const uint64_t top_checks = top == Allocation::AllSSI(txns.size()) ? 0 : 1;
  const bool feasible = referee.analyzer().Check(top).robust;
  ASSERT_EQ(actual->feasible, feasible);
  if (!robust.empty()) {
    const std::optional<Allocation> optimum = OracleOptimum(robust, bounds);
    ASSERT_EQ(optimum.has_value(), feasible);
    if (feasible) {
      EXPECT_EQ(actual->allocation, *optimum) << txns.ToString();
    }
  }
  if (!feasible) {
    EXPECT_EQ(actual->robustness_checks, top_checks);
    return;
  }
  uint64_t probes = 0;
  EXPECT_EQ(actual->allocation,
            LowerFrom(referee, top, bounds.min_level, &probes))
      << txns.ToString();
  EXPECT_EQ(actual->robustness_checks, probes + top_checks);
}

void CheckAlgorithm2(const TransactionSet& txns, int threads,
                     const std::vector<Allocation>& robust) {
  Referee referee(txns, threads);
  const size_t n = txns.size();
  uint64_t probes = 0;
  Allocation expected =
      LowerFrom(referee, Allocation::AllSSI(n), NoFloor(n), &probes);
  CheckOptions options;
  options.num_threads = threads;
  OptimalAllocationResult actual = ComputeOptimalAllocation(txns, options);
  EXPECT_EQ(actual.allocation, expected) << txns.ToString();
  if (!robust.empty()) {
    EXPECT_EQ(actual.allocation,
              OracleOptimum(robust, AllocationBounds::Free(n)));
  }
  EXPECT_EQ(actual.robustness_checks, probes);
  EXPECT_TRUE(actual.feasible);
  EXPECT_FALSE(actual.cancelled);
}

// LowerToOptimum over `bounds`, with a probe that answers kCancelled at
// its k-th call, for every k before the uncancelled run's last probe: the
// run stops there and returns the lowerings decided before it, which lie
// between the optimum and the top and are robust (Proposition 4.1(2)).
void CheckCancelledLowerings(const TransactionSet& txns, int threads,
                             const AllocationBounds& bounds) {
  const RobustnessAnalyzer analyzer(txns);
  CheckOptions options;
  options.num_threads = threads;
  const Allocation top(bounds.max_level);
  if (!analyzer.Check(top).robust) return;
  DeltaBase base(top);
  auto run = [&](uint64_t cancel_at) {
    uint64_t calls = 0;
    return LowerToOptimum(
        top, bounds.min_level, [&](TxnId t, IsolationLevel level) {
          if (calls++ == cancel_at) return ProbeVerdict::kCancelled;
          const LevelChange change{t, level};
          return analyzer.CheckDelta(base, {&change, 1}, options).robust
                     ? ProbeVerdict::kRobust
                     : ProbeVerdict::kNotRobust;
        });
  };
  const LoweringResult optimum = run(std::numeric_limits<uint64_t>::max());
  ASSERT_FALSE(optimum.cancelled);
  for (uint64_t k = 0; k < optimum.probes; ++k) {
    const LoweringResult cancelled = run(k);
    EXPECT_TRUE(cancelled.cancelled);
    EXPECT_EQ(cancelled.probes, k + 1);
    EXPECT_TRUE(optimum.allocation.LessEq(cancelled.allocation));
    EXPECT_TRUE(cancelled.allocation.LessEq(top));
    EXPECT_TRUE(analyzer.Check(cancelled.allocation).robust)
        << "cancelled at probe " << k << ": "
        << cancelled.allocation.ToString(txns);
  }
  EXPECT_EQ(base.allocation(), top);
}

void CheckConstrained(const TransactionSet& txns, int threads, Rng& rng,
                      const std::vector<Allocation>& robust) {
  const size_t n = txns.size();
  AllocationBounds bounds = AllocationBounds::Free(n);
  for (TxnId t = 0; t < n; ++t) {
    IsolationLevel a = kAllIsolationLevels[rng.Index(3)];
    IsolationLevel b = kAllIsolationLevels[rng.Index(3)];
    bounds.min_level[t] = b < a ? b : a;
    bounds.max_level[t] = b < a ? a : b;
  }
  CheckBox(txns, threads, bounds, robust);
  // The same floors under A_SSI: the top is not checked.
  bounds.max_level.assign(n, IsolationLevel::kSSI);
  CheckBox(txns, threads, bounds, robust);
}

// IncrementalAllocator fed `txns` one transaction at a time, then with
// its first transaction removed. Each update is the box [previous levels,
// A_SSI], whose top is never checked; once every transaction is in, the
// allocation is the oracle's optimum when `robust` is given.
void CheckIncremental(const TransactionSet& txns, int threads,
                      const std::vector<Allocation>& robust) {
  IncrementalAllocator allocator;
  CheckOptions options;
  options.num_threads = threads;
  allocator.set_check_options(options);
  Allocation previous;
  uint64_t probes = 0;
  for (TxnId t = 0; t < txns.size(); ++t) {
    const Transaction& txn = txns.txn(t);
    std::vector<Operation> ops(txn.ops().begin(), txn.ops().end() - 1);
    for (Operation& op : ops) {
      op.object = allocator.InternObject(txns.ObjectName(op.object));
    }
    ASSERT_TRUE(allocator.AddTransaction(txn.name(), std::move(ops)).ok());
    std::vector<IsolationLevel> floor = previous.levels();
    floor.push_back(IsolationLevel::kRC);
    Referee referee(allocator.txns(), threads);
    previous =
        LowerFrom(referee, Allocation::AllSSI(floor.size()), floor, &probes);
    ASSERT_EQ(allocator.allocation(), previous) << allocator.txns().ToString();
    ASSERT_EQ(allocator.checks_performed(), probes);
  }
  if (!robust.empty()) {
    EXPECT_EQ(allocator.allocation(),
              OracleOptimum(robust, AllocationBounds::Free(txns.size())));
  }
  if (txns.size() < 2) return;
  ASSERT_TRUE(allocator.RemoveTransaction(0).ok());
  Referee referee(allocator.txns(), threads);
  const size_t n = allocator.txns().size();
  EXPECT_EQ(allocator.allocation(),
            LowerFrom(referee, Allocation::AllSSI(n), NoFloor(n), &probes));
  EXPECT_EQ(allocator.checks_performed(), probes);
}

// Random robust bases (the optimum, randomly raised: robustness propagates
// upwards, Proposition 4.1(1)), each prepared once, against three
// candidates that re-level one to three distinct random transactions: up,
// down, or to the level they already have.
void CheckRandomPairs(const TransactionSet& txns, int threads, Rng& rng) {
  Referee referee(txns, threads);
  const size_t n = txns.size();
  uint64_t probes = 0;
  Allocation optimum =
      LowerFrom(referee, Allocation::AllSSI(n), NoFloor(n), &probes);
  for (int round = 0; round < 4; ++round) {
    Allocation raised = optimum;
    for (TxnId t = 0; t < n; ++t) {
      IsolationLevel level = kAllIsolationLevels[rng.Index(3)];
      if (raised.level(t) < level) raised.set_level(t, level);
    }
    ASSERT_TRUE(referee.analyzer().Check(raised).robust);
    DeltaBase base(raised);
    for (int candidate = 0; candidate < 3; ++candidate) {
      std::vector<LevelChange> changes;
      const size_t count = 1 + rng.Index(std::min<size_t>(3, n));
      while (changes.size() < count) {
        const TxnId t = static_cast<TxnId>(rng.Index(n));
        if (std::any_of(changes.begin(), changes.end(),
                        [&](const LevelChange& c) { return c.txn == t; })) {
          continue;
        }
        changes.push_back(LevelChange{t, kAllIsolationLevels[rng.Index(3)]});
      }
      referee.Check(base, changes);
    }
  }
}

void CheckAllLoops(const TransactionSet& txns, uint64_t seed) {
  SCOPED_TRACE(txns.ToString());
  const std::vector<Allocation> robust = RobustAllocations(txns);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(StrCat("threads=", threads));
    Rng rng(seed * 2654435761u + static_cast<uint64_t>(threads));
    CheckAlgorithm2(txns, threads, robust);
    CheckBox(txns, threads, AllocationBounds::RcSi(txns.size()), robust);
    CheckConstrained(txns, threads, rng, robust);
    CheckIncremental(txns, threads, robust);
    CheckRandomPairs(txns, threads, rng);
    CheckCancelledLowerings(txns, threads, AllocationBounds::Free(txns.size()));
    CheckCancelledLowerings(txns, threads, AllocationBounds::RcSi(txns.size()));
  }
}

constexpr uint64_t kSetsPerChunk = 50;
constexpr uint64_t kChunks = 21;  // 1050 random sets.

class DeltaCheckSyntheticTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeltaCheckSyntheticTest, LoweringLoopsAgreeWithFullChecks) {
  for (uint64_t i = 0; i < kSetsPerChunk; ++i) {
    const uint64_t seed = GetParam() * kSetsPerChunk + i;
    CheckAllLoops(DeltaCorpusSet(seed), seed);
    if (HasFatalFailure()) return;
  }
}

INSTANTIATE_TEST_SUITE_P(Chunks, DeltaCheckSyntheticTest,
                         ::testing::Range<uint64_t>(0, kChunks));

TEST(DeltaCheckCorpusTest, PaperExamplesAndNamedWorkloads) {
  CheckAllLoops(Figure2Txns(), 1);
  CheckAllLoops(Example26Txns(), 2);
  CheckAllLoops(Example52Txns(), 3);
  uint64_t seed = 4;
  for (const char* spec : {"smallbank:c=4", "tpcc:w=1,d=2", "auction",
                           "ycsb:a,n=24", "synthetic:n=16,o=6,w=50,h=40"}) {
    SCOPED_TRACE(spec);
    StatusOr<Workload> workload = MakeNamedWorkload(spec);
    ASSERT_TRUE(workload.ok()) << workload.status();
    CheckAllLoops(workload->txns, seed++);
  }
}

// Sets of more than 64 transactions, where a delta scan reads only the
// focus's words of the Tm candidates in the rows outside it
// (CheckFocusRow): on randomly raised robust bases, candidates that
// re-level one to six transactions, or a quarter to a half of them (many
// focus members per word), must give Check's verdict and chain, and the
// delta enumeration the full one's chains (limit 16).
TEST(DeltaCheckCorpusTest, MultiWordSetsAgreeWithFullScans) {
  uint64_t seed = 11;
  for (const char* spec : {"smallbank:c=16", "ycsb:a,n=200",
                           "synthetic:n=150,o=60,w=50,h=40"}) {
    SCOPED_TRACE(spec);
    StatusOr<Workload> workload = MakeNamedWorkload(spec);
    ASSERT_TRUE(workload.ok()) << workload.status();
    const TransactionSet& txns = workload->txns;
    const size_t n = txns.size();
    ASSERT_GT(n, 64u);
    const Allocation optimum = ComputeOptimalAllocation(txns).allocation;
    for (int threads : kThreadCounts) {
      SCOPED_TRACE(StrCat("threads=", threads));
      Referee referee(txns, threads);
      CheckOptions options;
      options.num_threads = threads;
      Rng rng(seed++);
      for (int round = 0; round < 6; ++round) {
        Allocation raised = optimum;
        for (TxnId t = 0; t < n; ++t) {
          IsolationLevel level = kAllIsolationLevels[rng.Index(3)];
          if (raised.level(t) < level) raised.set_level(t, level);
        }
        DeltaBase base(raised);
        for (int candidate = 0; candidate < 6; ++candidate) {
          std::vector<LevelChange> changes;
          const size_t count =
              candidate < 5 ? 1 + rng.Index(6) : n / 4 + rng.Index(n / 4);
          while (changes.size() < count) {
            const TxnId t = static_cast<TxnId>(rng.Index(n));
            if (std::none_of(
                    changes.begin(), changes.end(),
                    [&](const LevelChange& c) { return c.txn == t; })) {
              changes.push_back(
                  LevelChange{t, kAllIsolationLevels[rng.Index(3)]});
            }
          }
          referee.Check(base, changes);
          Allocation lowered = raised;
          for (const LevelChange& change : changes) {
            lowered.set_level(change.txn, change.level);
          }
          const CounterexampleList full =
              referee.analyzer().FindAll(lowered, 16, options);
          const CounterexampleList delta =
              referee.analyzer().FindAll(base, changes, 16, options);
          ASSERT_EQ(full.chains.size(), delta.chains.size());
          for (size_t i = 0; i < full.chains.size(); ++i) {
            const CounterexampleChain& a = full.chains[i];
            const CounterexampleChain& b = delta.chains[i];
            EXPECT_TRUE(a.t1 == b.t1 && a.t2 == b.t2 && a.tm == b.tm &&
                        a.b1 == b.b1 && a.a1 == b.a1 && a.a2 == b.a2 &&
                        a.bm == b.bm && a.inner == b.inner)
                << "chain " << i << ": full (" << a.t1 << "," << a.t2 << ","
                << a.tm << ") vs delta (" << b.t1 << "," << b.t2 << ","
                << b.tm << ")";
          }
        }
      }
    }
  }
}

// A raised cancel flag strips the verdict of a delta check exactly as it
// does a full check's.
TEST(DeltaCheckCorpusTest, CancelledDeltaCheckEqualsCancelledCheck) {
  StatusOr<Workload> workload = MakeNamedWorkload("smallbank:c=4");
  ASSERT_TRUE(workload.ok()) << workload.status();
  const size_t n = workload->txns.size();
  RobustnessAnalyzer analyzer(workload->txns);
  std::atomic<bool> cancel{true};
  for (int threads : kThreadCounts) {
    CheckOptions options;
    options.num_threads = threads;
    options.cancel = &cancel;
    DeltaBase base(Allocation::AllSSI(n));
    for (const Allocation& candidate :
         {base.allocation().With(0, IsolationLevel::kRC),
          Allocation::AllRC(n)}) {
      RobustnessResult delta = analyzer.CheckDelta(
          base, LevelChanges(base.allocation(), candidate), options);
      EXPECT_TRUE(delta.cancelled);
      EXPECT_TRUE(SameResult(analyzer.Check(candidate, options), delta));
      EXPECT_EQ(base.allocation(), Allocation::AllSSI(n));
    }
  }
}

// A cancelled check reads robust, so a loop that ignored `cancelled` would
// accept the candidate. Under a cancel flag raised beforehand the bounded
// entry accepts none: a checked top (here A_SI, the {RC, SI} box) leaves
// feasibility unknown, and an unchecked A_SSI top stops at the first probe.
TEST(DeltaCheckCorpusTest, CancelledBoxesAcceptNoCandidate) {
  StatusOr<Workload> workload = MakeNamedWorkload("smallbank:c=4");
  ASSERT_TRUE(workload.ok()) << workload.status();
  const size_t n = workload->txns.size();
  RobustnessAnalyzer analyzer(workload->txns);
  std::atomic<bool> cancel{true};
  AllocationBounds floored = AllocationBounds::Free(n);
  floored.AtLeast(0, IsolationLevel::kSI);
  for (int threads : kThreadCounts) {
    CheckOptions options;
    options.num_threads = threads;
    options.cancel = &cancel;
    StatusOr<OptimalAllocationResult> rcsi =
        ComputeOptimalAllocation(analyzer, AllocationBounds::RcSi(n), options);
    ASSERT_TRUE(rcsi.ok()) << rcsi.status();
    EXPECT_TRUE(rcsi->cancelled);
    EXPECT_FALSE(rcsi->feasible);
    EXPECT_EQ(rcsi->allocation.size(), 0u);
    EXPECT_EQ(rcsi->robustness_checks, 1u);

    for (const AllocationBounds& bounds :
         {AllocationBounds::Free(n), floored}) {
      StatusOr<OptimalAllocationResult> boxed =
          ComputeOptimalAllocation(analyzer, bounds, options);
      ASSERT_TRUE(boxed.ok()) << boxed.status();
      EXPECT_TRUE(boxed->cancelled);
      EXPECT_TRUE(boxed->feasible);
      EXPECT_EQ(boxed->allocation, Allocation::AllSSI(n));
      EXPECT_EQ(boxed->robustness_checks, 1u);
    }
  }
}

// ---- Template level: the lifted loops over every function world. ----

Allocation InstanceLevels(const Instantiation& inst,
                          const TemplateAllocation& levels) {
  std::vector<IsolationLevel> out;
  for (int tmpl : inst.template_of_txn) out.push_back(levels[tmpl]);
  return Allocation(std::move(out));
}

// One referee per world, over the world's instances with `promotions`
// applied to every instance of the promoted template op.
std::vector<std::unique_ptr<Referee>> WorldReferees(
    const std::vector<WorldInstantiation>& worlds,
    const std::vector<TemplatePromotion>& promotions, int threads,
    std::vector<TransactionSet>* storage) {
  storage->clear();
  storage->reserve(worlds.size());
  for (const WorldInstantiation& world : worlds) {
    const Instantiation& inst = world.instantiation;
    PromotionSet reads;
    for (TxnId i = 0; i < inst.txns.size(); ++i) {
      for (const TemplatePromotion& promotion : promotions) {
        if (static_cast<int>(promotion.tmpl) != inst.template_of_txn[i]) {
          continue;
        }
        const std::vector<int>& op_map = inst.template_op_of_op[i];
        for (size_t k = 0; k < op_map.size(); ++k) {
          OpRef ref{i, static_cast<int32_t>(k)};
          if (op_map[k] == promotion.op && IsPromotableRead(inst.txns, ref)) {
            reads.Add(ref);
          }
        }
      }
    }
    StatusOr<PromotionRewrite> rewrite = ApplyPromotions(inst.txns, reads);
    EXPECT_TRUE(rewrite.ok()) << rewrite.status();
    storage->push_back(std::move(rewrite->promoted));
  }
  std::vector<std::unique_ptr<Referee>> referees;
  for (const TransactionSet& txns : *storage) {
    referees.push_back(std::make_unique<Referee>(txns, threads));
  }
  return referees;
}

// The lifted lowering loop: a template level is accepted when every world
// stays robust. Adds one to `*checks` per world checked.
TemplateAllocation LiftedLowering(
    const std::vector<WorldInstantiation>& worlds,
    const std::vector<std::unique_ptr<Referee>>& referees,
    TemplateAllocation levels, uint64_t* checks) {
  for (size_t t = 0; t < levels.size(); ++t) {
    for (IsolationLevel level : kLowerings) {
      if (!(level < levels[t])) break;
      TemplateAllocation candidate = levels;
      candidate[t] = level;
      bool robust = true;
      for (size_t w = 0; w < worlds.size() && robust; ++w) {
        const Instantiation& inst = worlds[w].instantiation;
        ++*checks;
        robust = referees[w]
                     ->Check(InstanceLevels(inst, levels),
                             InstanceLevels(inst, candidate))
                     .robust;
      }
      if (robust) {
        levels = std::move(candidate);
        break;
      }
    }
  }
  return levels;
}

// Full checks of `levels` in world order, stopping at the first world
// that is not robust. Adds one to `*checks` per world checked.
bool RobustEverywhere(const std::vector<WorldInstantiation>& worlds,
                      const std::vector<std::unique_ptr<Referee>>& referees,
                      const TemplateAllocation& levels, uint64_t* checks) {
  for (size_t w = 0; w < worlds.size(); ++w) {
    ++*checks;
    if (!referees[w]
             ->analyzer()
             .Check(InstanceLevels(worlds[w].instantiation, levels))
             .robust) {
      return false;
    }
  }
  return true;
}

TEST(DeltaCheckTemplateTest, LiftedLoopsAgreeWithFullChecks) {
  const std::vector<std::pair<std::string, TemplateSet>> sets = {
      {"smallbank", SmallBankTemplates(2)},
      {"tpcc", TpccTemplates()},
      {"auction", AuctionTemplates()},
      {"tpcc_scan", TpccScanTemplates()},
      {"showcase", ConstraintShowcaseTemplates(true)},
      {"showcase_unconstrained", ConstraintShowcaseTemplates(false)},
  };
  for (const auto& [name, set] : sets) {
    SCOPED_TRACE(name);
    StatusOr<std::vector<WorldInstantiation>> worlds =
        InstantiateAllWorlds(set);
    ASSERT_TRUE(worlds.ok()) << worlds.status();
    const size_t k = set.size();
    for (int threads : kThreadCounts) {
      SCOPED_TRACE(StrCat("threads=", threads));
      std::vector<TransactionSet> storage;
      auto referees = WorldReferees(*worlds, {}, threads, &storage);

      CheckOptions options;
      options.num_threads = threads;
      const TemplateAnalysis analysis = AnalyzeTemplates(set, {}, options);

      uint64_t checks = 0;
      TemplateAllocation optimum = LiftedLowering(
          *worlds, referees, TemplateAllocation(k, IsolationLevel::kSSI),
          &checks);
      TemplateAllocationResult lifted =
          ComputeOptimalTemplateAllocation(analysis);
      EXPECT_EQ(lifted.levels, optimum);
      EXPECT_EQ(lifted.robustness_checks, checks);

      // The RcSi box: its top, all-SI, is checked in full first.
      TemplateAllocation all_si(k, IsolationLevel::kSI);
      StatusOr<TemplateAllocationResult> rcsi =
          ComputeOptimalTemplateAllocation(analysis,
                                           AllocationBounds::RcSi(k));
      ASSERT_TRUE(rcsi.ok()) << rcsi.status();
      checks = 0;
      ASSERT_EQ(rcsi->feasible,
                RobustEverywhere(*worlds, referees, all_si, &checks));
      if (rcsi->feasible) {
        EXPECT_EQ(rcsi->levels,
                  LiftedLowering(*worlds, referees, all_si, &checks));
      }
      EXPECT_EQ(rcsi->robustness_checks, checks);

      // The promotion search: its baseline is the lifted optimum, and its
      // final levels are the lifted optimum of the promoted worlds.
      StatusOr<TemplatePromotionPlan> plan =
          OptimizeTemplatePromotions(analysis);
      ASSERT_TRUE(plan.ok()) << plan.status();
      EXPECT_EQ(plan->before_levels, optimum);
      std::vector<TransactionSet> promoted_storage;
      auto promoted = WorldReferees(*worlds, plan->promotions, threads,
                                    &promoted_storage);
      EXPECT_EQ(plan->after_levels,
                LiftedLowering(*worlds, promoted,
                               TemplateAllocation(k, IsolationLevel::kSSI),
                               &checks));
    }
  }
}

}  // namespace
}  // namespace mvrob
