// Differential test for RobustnessAnalyzer::CheckDelta. Every lowering
// loop that checks a candidate against a robust base allocation —
// Algorithm 2, IncrementalAllocator's warm-started re-optimization, the
// bounded allocation, the {RC, SI} allocation, and the template-level
// searches — is re-run here test-locally on full Check. At every step,
// accepted or rejected, CheckDelta(base, candidate) must equal
// Check(candidate): verdict, the whole counterexample chain (inner
// transactions included), triples_examined and cancelled, at 1 and 4
// threads. The library loop must end at the test-local loop's allocation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/string_util.h"
#include "core/analyzer.h"
#include "core/constrained_allocation.h"
#include "core/incremental.h"
#include "core/optimal_allocation.h"
#include "core/rc_si_allocation.h"
#include "fixtures.h"
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
    RobustnessResult full = analyzer_.Check(candidate, options_);
    RobustnessResult delta = analyzer_.CheckDelta(base, candidate, options_);
    ++g_compared;
    const TransactionSet& txns = analyzer_.txns();
    EXPECT_TRUE(SameResult(full, delta))
        << "base " << base.ToString(txns) << " candidate "
        << candidate.ToString(txns) << "\n"
        << txns.ToString();
    return full;
  }

  const RobustnessAnalyzer& analyzer() const { return analyzer_; }

 private:
  RobustnessAnalyzer analyzer_;
  CheckOptions options_;
};

// Algorithm 2 from `start` (robust), skipping levels below `floor`.
Allocation LowerFrom(Referee& referee, Allocation start,
                     const std::vector<IsolationLevel>& floor) {
  Allocation allocation = std::move(start);
  for (TxnId t = 0; t < allocation.size(); ++t) {
    for (IsolationLevel level : kLowerings) {
      if (level < floor[t]) continue;
      if (!(level < allocation.level(t))) break;
      Allocation candidate = allocation.With(t, level);
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

void CheckAlgorithm2(const TransactionSet& txns, int threads) {
  Referee referee(txns, threads);
  const size_t n = txns.size();
  Allocation expected =
      LowerFrom(referee, Allocation::AllSSI(n), NoFloor(n));
  CheckOptions options;
  options.num_threads = threads;
  OptimalAllocationResult actual = ComputeOptimalAllocation(txns, options);
  EXPECT_EQ(actual.allocation, expected) << txns.ToString();
  EXPECT_FALSE(actual.cancelled);
}

void CheckRcSi(const TransactionSet& txns, int threads) {
  Referee referee(txns, threads);
  const size_t n = txns.size();
  RcSiAllocationResult actual = ComputeOptimalRcSiAllocation(txns);
  RobustnessResult at_si = referee.analyzer().Check(Allocation::AllSI(n));
  ASSERT_EQ(actual.allocatable, at_si.robust);
  if (!at_si.robust) return;
  Allocation allocation = Allocation::AllSI(n);
  for (TxnId t = 0; t < n; ++t) {
    Allocation candidate = allocation.With(t, IsolationLevel::kRC);
    if (referee.Check(allocation, candidate).robust) {
      allocation = std::move(candidate);
    }
  }
  EXPECT_EQ(*actual.allocation, allocation) << txns.ToString();
}

void CheckConstrained(const TransactionSet& txns, int threads, Rng& rng) {
  Referee referee(txns, threads);
  const size_t n = txns.size();
  AllocationBounds bounds = AllocationBounds::Free(n);
  for (TxnId t = 0; t < n; ++t) {
    IsolationLevel a = kAllIsolationLevels[rng.Index(3)];
    IsolationLevel b = kAllIsolationLevels[rng.Index(3)];
    bounds.min_level[t] = b < a ? b : a;
    bounds.max_level[t] = b < a ? a : b;
  }
  StatusOr<ConstrainedAllocationResult> actual =
      ComputeConstrainedAllocation(txns, bounds);
  ASSERT_TRUE(actual.ok()) << actual.status();
  Allocation top(bounds.max_level);
  RobustnessResult at_top = referee.analyzer().Check(top);
  ASSERT_EQ(actual->feasible, at_top.robust);
  if (!at_top.robust) return;
  Allocation expected = LowerFrom(referee, top, bounds.min_level);
  EXPECT_EQ(*actual->allocation, expected) << txns.ToString();
}

// IncrementalAllocator fed `txns` one transaction at a time, then with
// its first transaction removed.
void CheckIncremental(const TransactionSet& txns, int threads) {
  IncrementalAllocator allocator;
  CheckOptions options;
  options.num_threads = threads;
  allocator.set_check_options(options);
  Allocation previous;
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
    previous = LowerFrom(referee, Allocation::AllSSI(floor.size()), floor);
    ASSERT_EQ(allocator.allocation(), previous) << allocator.txns().ToString();
  }
  if (txns.size() < 2) return;
  ASSERT_TRUE(allocator.RemoveTransaction(0).ok());
  Referee referee(allocator.txns(), threads);
  const size_t n = allocator.txns().size();
  EXPECT_EQ(allocator.allocation(),
            LowerFrom(referee, Allocation::AllSSI(n), NoFloor(n)));
}

// Random robust bases (the optimum, randomly raised: robustness propagates
// upwards, Proposition 4.1(1)) against candidates that re-level one to
// three random transactions, up or down.
void CheckRandomPairs(const TransactionSet& txns, int threads, Rng& rng) {
  Referee referee(txns, threads);
  const size_t n = txns.size();
  Allocation optimum = LowerFrom(referee, Allocation::AllSSI(n), NoFloor(n));
  for (int round = 0; round < 4; ++round) {
    Allocation base = optimum;
    for (TxnId t = 0; t < n; ++t) {
      IsolationLevel level = kAllIsolationLevels[rng.Index(3)];
      if (base.level(t) < level) base.set_level(t, level);
    }
    ASSERT_TRUE(referee.analyzer().Check(base).robust);
    Allocation candidate = base;
    const size_t changes = 1 + rng.Index(3);
    for (size_t c = 0; c < changes; ++c) {
      candidate.set_level(static_cast<TxnId>(rng.Index(n)),
                          kAllIsolationLevels[rng.Index(3)]);
    }
    referee.Check(base, candidate);
  }
}

void CheckAllLoops(const TransactionSet& txns, uint64_t seed) {
  SCOPED_TRACE(txns.ToString());
  for (int threads : kThreadCounts) {
    SCOPED_TRACE(StrCat("threads=", threads));
    Rng rng(seed * 2654435761u + static_cast<uint64_t>(threads));
    CheckAlgorithm2(txns, threads);
    CheckRcSi(txns, threads);
    CheckConstrained(txns, threads, rng);
    CheckIncremental(txns, threads);
    CheckRandomPairs(txns, threads, rng);
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
    const Allocation base = Allocation::AllSSI(n);
    for (const Allocation& candidate :
         {base.With(0, IsolationLevel::kRC), Allocation::AllRC(n)}) {
      RobustnessResult delta = analyzer.CheckDelta(base, candidate, options);
      EXPECT_TRUE(delta.cancelled);
      EXPECT_TRUE(SameResult(analyzer.Check(candidate, options), delta));
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
// stays robust. With `rc_only` only RC is tried.
TemplateAllocation LiftedLowering(
    const std::vector<WorldInstantiation>& worlds,
    const std::vector<std::unique_ptr<Referee>>& referees,
    TemplateAllocation levels, bool rc_only) {
  for (size_t t = 0; t < levels.size(); ++t) {
    for (IsolationLevel level : kLowerings) {
      if (!(level < levels[t])) break;
      TemplateAllocation candidate = levels;
      candidate[t] = level;
      bool robust = true;
      for (size_t w = 0; w < worlds.size() && robust; ++w) {
        const Instantiation& inst = worlds[w].instantiation;
        robust = referees[w]
                     ->Check(InstanceLevels(inst, levels),
                             InstanceLevels(inst, candidate))
                     .robust;
      }
      if (robust) {
        levels = std::move(candidate);
        break;
      }
      if (rc_only) break;
    }
  }
  return levels;
}

bool RobustEverywhere(const std::vector<WorldInstantiation>& worlds,
                      const std::vector<std::unique_ptr<Referee>>& referees,
                      const TemplateAllocation& levels) {
  for (size_t w = 0; w < worlds.size(); ++w) {
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

      TemplateAllocation optimum = LiftedLowering(
          *worlds, referees,
          TemplateAllocation(k, IsolationLevel::kSSI), /*rc_only=*/false);
      StatusOr<TemplateAllocationResult> lifted =
          ComputeOptimalTemplateAllocation(set);
      ASSERT_TRUE(lifted.ok()) << lifted.status();
      EXPECT_EQ(lifted->levels, optimum);

      TemplateAllocation all_si(k, IsolationLevel::kSI);
      StatusOr<RcSiTemplateAllocationResult> rcsi =
          ComputeOptimalRcSiTemplateAllocation(set);
      ASSERT_TRUE(rcsi.ok()) << rcsi.status();
      ASSERT_EQ(rcsi->allocatable, RobustEverywhere(*worlds, referees, all_si));
      if (rcsi->allocatable) {
        EXPECT_EQ(*rcsi->levels,
                  LiftedLowering(*worlds, referees, all_si, /*rc_only=*/true));
      }

      // The promotion search: its baseline is the lifted optimum, and its
      // final levels are the lifted optimum of the promoted worlds.
      StatusOr<TemplatePromotionPlan> plan = OptimizeTemplatePromotions(set);
      ASSERT_TRUE(plan.ok()) << plan.status();
      EXPECT_EQ(plan->before_levels, optimum);
      std::vector<TransactionSet> promoted_storage;
      auto promoted = WorldReferees(*worlds, plan->promotions, threads,
                                    &promoted_storage);
      EXPECT_EQ(plan->after_levels,
                LiftedLowering(*worlds, promoted,
                               TemplateAllocation(k, IsolationLevel::kSSI),
                               /*rc_only=*/false));
    }
  }
}

}  // namespace
}  // namespace mvrob
