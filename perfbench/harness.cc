// The mvrob benchmark harness: takes one workload through the library's
// public entry points — workload generation, Algorithm 2, Algorithm 1,
// the allocation explanation, the promotion search, and a closed-loop run
// on an MVCC engine at the optimum — times each call from outside,
// checks every output, and prints the metrics as one JSON line.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s>
//                     --trace <0|1> [--spans-out <file>]
//
// See README.md for the workloads, metrics and rules.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/log.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/version.h"
#include "core/analyzer.h"
#include "core/explain.h"
#include "core/optimal_allocation.h"
#include "core/robustness.h"
#include "engine_client.h"
#include "mvcc/roundtrip.h"
#include "promote/optimizer.h"
#include "span_trace.h"
#include "workloads/registry.h"

namespace perfbench {
namespace {

using mvrob::Allocation;
using mvrob::IsolationLevel;
using mvrob::TransactionSet;
using mvrob::TxnId;

struct LevelCounts {
  size_t rc = 0;
  size_t si = 0;
  size_t ssi = 0;
  friend bool operator==(const LevelCounts&, const LevelCounts&) = default;
};

LevelCounts CountLevels(const Allocation& alloc) {
  return {alloc.CountAt(IsolationLevel::kRC),
          alloc.CountAt(IsolationLevel::kSI),
          alloc.CountAt(IsolationLevel::kSSI)};
}

// One benchmark workload: a program set taken through the whole pipeline.
// Algorithm 2, Algorithm 1 and the engine run use `main_spec`; the
// explanation and the promotion search, which cost far more per
// transaction, use the smaller `small_spec` of the same family.
struct WorkloadConfig {
  std::string_view name;
  std::string_view main_spec;
  std::string_view small_spec;
  // 0: the single-threaded Engine with 4 programs in flight; otherwise
  // ConcurrentEngine with this many worker threads.
  size_t engine_workers;
  // Engine steps per sample (split over the workers).
  uint64_t engine_steps;
  // The unique optimum's level counts (Prop. 4.1: independent of the
  // program order the seed picks).
  LevelCounts main_levels;
  LevelCounts small_levels;
  bool promotion_improves;
};

constexpr WorkloadConfig kWorkloads[] = {
    {"analyze_smallbank", "smallbank:c=96", "smallbank:c=6", 0, 5120,
     {0, 192, 288}, {0, 12, 18}, true},
    {"smallbank_mixed", "smallbank:c=48", "smallbank:c=4", 0, 5120,
     {0, 96, 144}, {0, 8, 12}, true},
    {"ycsb_rcsi_2w", "ycsb:a,n=256,k=4096,theta=0.5",
     "ycsb:a,n=64,k=1024,theta=0.5", 2, 1'000'000, {233, 23, 0}, {53, 11, 0},
     false},
};

// Calls are repeated until a sample has spent this long on them.
constexpr double kSliceSeconds = 0.02;
// Set-up is repeated at least this often and for at least this long.
constexpr int kMinSetups = 3;
constexpr double kMinSetupSeconds = 1.0;
// Fixed engine warm-up at set-up, on an engine that is then discarded.
constexpr uint64_t kWarmupSteps = 2048;
// Recorded engine runs certified by the round-trip validator.
constexpr int kValidateRuns = 2;
// A sample's p99 commit latency needs at least 10 commits beyond it.
constexpr uint64_t kMinCommits = 1000;

double Seconds(int64_t ns) { return 1e-9 * static_cast<double>(ns); }

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 ? values[mid]
                           : 0.5 * (values[mid - 1] + values[mid]);
}

// The value at quantile q of sorted samples (nearest rank).
template <typename T>
double Quantile(const std::vector<T>& sorted, double q) {
  if (sorted.empty()) return 0;
  size_t rank = static_cast<size_t>(q * static_cast<double>(sorted.size()));
  return static_cast<double>(sorted[std::min(rank, sorted.size() - 1)]);
}

// Failed checks, reported on stderr as they happen.
struct Checks {
  uint64_t failed = 0;
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    ++failed;
    std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  }
};

TransactionSet Generate(std::string_view spec, SpanTrace* trace) {
  ScopedSpan span(trace, "workloads.MakeNamedWorkload");
  mvrob::StatusOr<mvrob::Workload> workload = mvrob::MakeNamedWorkload(spec);
  if (!workload.ok()) {
    std::fprintf(stderr, "cannot build workload %.*s: %s\n",
                 static_cast<int>(spec.size()), spec.data(),
                 workload.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(workload->txns);
}

// A seed-chosen program order over n transactions.
std::vector<TxnId> Order(size_t n, uint64_t seed) {
  std::vector<TxnId> order(n);
  for (TxnId t = 0; t < n; ++t) order[t] = t;
  mvrob::Rng rng(seed);
  std::shuffle(order.begin(), order.end(), rng.engine());
  return order;
}

// The programs of `txns` in the given order, over the same objects.
TransactionSet Reordered(const TransactionSet& txns,
                         const std::vector<TxnId>& order) {
  TransactionSet out;
  for (size_t o = 0; o < txns.num_objects(); ++o) {
    out.InternObject(txns.ObjectName(static_cast<mvrob::ObjectId>(o)));
  }
  for (TxnId t : order) {
    const mvrob::Transaction& txn = txns.txn(t);
    std::vector<mvrob::Operation> ops(txn.ops().begin(),
                                      txn.ops().end() - 1);  // Drop commit.
    if (!out.AddTransaction(txn.name(), std::move(ops)).ok()) std::abort();
  }
  return out;
}

// The optimum of the reordered set: by Prop. 4.1 every transaction keeps
// its level.
Allocation Reordered(const Allocation& alloc,
                     const std::vector<TxnId>& order) {
  std::vector<IsolationLevel> levels;
  for (TxnId t : order) levels.push_back(alloc.level(t));
  return Allocation(std::move(levels));
}

// What set-up produces: the program sets and their optima.
struct Inputs {
  TransactionSet main_txns;
  Allocation main_alloc;
  TransactionSet small_txns;
  Allocation small_alloc;
};

// Sample i runs on its own program order and client seed, both drawn from
// the run's seed, so a run averages over as many orders and interleavings
// as it has samples.
Inputs ForSample(const Inputs& in, uint64_t seed) {
  const std::vector<TxnId> main_order = Order(in.main_txns.size(), seed);
  const std::vector<TxnId> small_order = Order(in.small_txns.size(), seed);
  return {Reordered(in.main_txns, main_order),
          Reordered(in.main_alloc, main_order),
          Reordered(in.small_txns, small_order),
          Reordered(in.small_alloc, small_order)};
}

ClientReport RunEngine(const WorkloadConfig& config,
                       const TransactionSet& txns, const Allocation& alloc,
                       uint64_t seed, uint64_t steps, bool time_calls) {
  ClientOptions options;
  options.seed = seed;
  options.steps = steps;
  options.time_calls = time_calls;
  return config.engine_workers == 0
             ? RunSingleEngine(txns, alloc, options)
             : RunConcurrentEngine(txns, alloc, config.engine_workers,
                                   options);
}

// Set-up: the inputs, the run's allocation (Algorithm 2 once per program
// set), and a fixed engine warm-up.
Inputs SetUp(const WorkloadConfig& config, uint64_t seed, SpanTrace* trace) {
  ScopedSpan span(trace, "bench.setup");
  Inputs in;
  in.main_txns = Generate(config.main_spec, trace);
  in.small_txns = Generate(config.small_spec, trace);
  {
    ScopedSpan alloc_span(trace, "core.setup_allocation");
    in.main_alloc = mvrob::ComputeOptimalAllocation(in.main_txns).allocation;
    in.small_alloc = mvrob::ComputeOptimalAllocation(in.small_txns).allocation;
  }
  RunEngine(config, in.main_txns, in.main_alloc, ~seed, kWarmupSteps, false);
  return in;
}

// Host-speed correction. On a shared host the same work runs up to 50 %
// faster in one minute than in the next (turbo frequency, neighbours), and
// every kind of code slows alike. So each timed stage is bracketed by runs
// of a fixed reference kernel, and its time is scaled to a host on which
// the kernel takes kReferenceSeconds. README.md has the measurements.
constexpr double kReferenceSeconds = 0.01;

volatile uint64_t reference_sink = 0;

// The reference kernel: fixed CPU-bound work that calls no library code,
// random reads and writes over a 256 KiB table mixed with integer
// arithmetic. Returns its seconds.
double ReferenceKernelSeconds() {
  static std::vector<uint64_t> table(1 << 15, 1);
  const int64_t start = NowNs();
  uint64_t x = 0x9e3779b97f4a7c15ull;
  uint64_t acc = 0;
  for (int i = 0; i < 2'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t& slot = table[x & (table.size() - 1)];
    acc += static_cast<uint64_t>(std::popcount(slot ^ x));
    slot += acc;
  }
  const double seconds = Seconds(NowNs() - start);
  reference_sink = acc;
  return seconds;
}

// Runs `fn` at least once and until kSliceSeconds have accumulated;
// returns the seconds of each call.
std::vector<double> Slice(const std::function<void()>& fn) {
  std::vector<double> seconds;
  double total = 0;
  do {
    const int64_t start = NowNs();
    fn();
    seconds.push_back(Seconds(NowNs() - start));
    total += seconds.back();
  } while (total < kSliceSeconds);
  return seconds;
}

// Exact counts of one sample; every run with the same seed repeats them
// (the engine counts only on the deterministic engine).
using Counts = std::map<std::string, uint64_t>;

// Everything a run measured: per metric, one value per call or per sample.
using Samples = std::map<std::string, std::vector<double>>;

void Append(Samples& out, const std::string& name,
            const std::vector<double>& values) {
  std::vector<double>& list = out[name];
  list.insert(list.end(), values.begin(), values.end());
}

// Adds the engine run's spans under `parent`: construction, the client
// loop (or one span per worker), and the timed engine calls folded into
// one span per call type, laid end to end inside the loop they ran in.
void AddEngineSpans(SpanTrace& trace, int parent, const ClientReport& run) {
  static constexpr const char* kCallNames[kNumCalls] = {
      "mvcc.Begin",     "mvcc.Read",       "mvcc.Write", "mvcc.Commit.RC",
      "mvcc.Commit.SI", "mvcc.Commit.SSI", "mvcc.Abort", "mvcc.Vacuum"};
  auto add_calls = [&](int loop, int64_t start, uint32_t thread,
                       const CallStats& calls) {
    for (size_t c = 0; c < kNumCalls; ++c) {
      if (calls.count[c] == 0) continue;
      const int64_t end = start + static_cast<int64_t>(calls.total_ns[c]);
      trace.Add(kCallNames[c], start, end, loop, thread, calls.count[c]);
      start = end;
    }
  };
  trace.Add("mvcc.construct", run.construct_span_ns[0],
            run.construct_span_ns[1], parent, 0, 1);
  const int client =
      trace.Add("bench.client", run.start_ns, run.end_ns, parent, 0, 1);
  if (run.worker_span_ns.empty()) {
    add_calls(client, run.start_ns, 0, run.calls);
  } else {
    for (size_t w = 0; w < run.worker_span_ns.size(); ++w) {
      const uint32_t thread = static_cast<uint32_t>(w + 1);
      const int worker =
          trace.Add("bench.worker", run.worker_span_ns[w][0],
                    run.worker_span_ns[w][1], client, thread, 1);
      add_calls(worker, run.worker_span_ns[w][0], thread,
                run.worker_calls[w]);
    }
  }
  trace.Add("mvcc.destroy", run.destroy_span_ns[0], run.destroy_span_ns[1],
            parent, 0, 1);
}

class Harness {
 public:
  Harness(const WorkloadConfig& config, uint64_t seed)
      : config_(config), seed_(seed) {}

  // Set-up, repeated kMinSetups times or more, each repetition between
  // two runs of the reference kernel. Appends its seconds, as timed under
  // "raw.setup_s" and speed-corrected under "setup_s". Only the first
  // repetition is traced, and its inputs are the ones used.
  void SetUpAll(SpanTrace* trace, Samples& out) {
    double total = 0;
    double before = ReferenceKernelSeconds();
    for (int rep = 0; rep < kMinSetups || total < kMinSetupSeconds; ++rep) {
      const int64_t start = NowNs();
      Inputs in = SetUp(config_, seed_, rep == 0 ? trace : nullptr);
      const double seconds = Seconds(NowNs() - start);
      const double after = ReferenceKernelSeconds();
      Append(out, "raw.setup_s", {seconds});
      Append(out, "setup_s",
             {seconds * 2 * kReferenceSeconds / (before + after)});
      total += seconds;
      before = after;
      if (!inputs_) inputs_ = std::move(in);
    }
  }

  // Fixed-work sample i: every stage of the pipeline, with its outputs
  // checked. Appends the measurements to `out`.
  void RunSample(size_t i, SpanTrace* trace, Samples& out);

  // Checks made once per run, after the samples.
  void FinalChecks();

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return gave_up_ + checks_.failed; }
  const std::map<size_t, Counts>& counts() const { return counts_; }

 private:
  void CheckBooks(const ClientReport& run);

  const WorkloadConfig& config_;
  uint64_t seed_;
  std::optional<Inputs> inputs_;
  Checks checks_;
  uint64_t attempted_ = kValidateRuns;
  uint64_t gave_up_ = 0;
  std::map<size_t, Counts> counts_;
  std::optional<mvrob::PromotionPlan> first_plan_;
};

void Harness::CheckBooks(const ClientReport& run) {
  const mvrob::EngineStats& e = run.engine;
  checks_.Expect(run.finished == run.commits + run.gave_up,
                 "commits + give-ups != programs finished");
  checks_.Expect(run.attempts == run.commits + run.aborts_write_conflict +
                                     run.aborts_ssi + run.aborts_lock +
                                     run.in_flight,
                 "attempts != commits + aborts + sessions in flight");
  checks_.Expect(e.begins == run.attempts && e.commits == run.commits &&
                     e.aborts_write_conflict == run.aborts_write_conflict &&
                     e.aborts_ssi == run.aborts_ssi &&
                     e.aborts_user == run.aborts_lock,
                 "the engine's counters disagree with the client's books");
  checks_.Expect(run.latency_ns.size() == run.commits,
                 "one latency sample per commit");
  checks_.Expect(run.commits >= kMinCommits,
                 "too few commits in a sample for its p99");
}

void Harness::RunSample(size_t i, SpanTrace* trace, Samples& out) {
  const uint64_t sample_seed = MixSeed(seed_, i);
  const Inputs in = ForSample(*inputs_, sample_seed);
  const TransactionSet& main = in.main_txns;
  const Allocation& main_alloc = in.main_alloc;
  const TransactionSet& small = in.small_txns;
  const Allocation& small_alloc = in.small_alloc;
  const int64_t sample_start = NowNs();
  ScopedSpan sample_span(trace, "bench.sample");
  mvrob::MetricsRegistry registry;
  mvrob::CheckOptions options;
  if (trace != nullptr) options.metrics = &registry;
  mvrob::Counter& triples = registry.counter("analyzer.triples_examined");
  // An untraced sample runs the reference kernel before and after each of
  // its five stages; that time is left out of the sample's time.
  std::vector<double> refs;
  auto reference = [&] {
    if (trace == nullptr) refs.push_back(ReferenceKernelSeconds());
  };

  // Algorithm 2; the traced run splits the analyzer build from the search.
  reference();
  mvrob::OptimalAllocationResult optimum;
  std::vector<double> build_s;
  std::vector<double> search_s;
  const std::vector<double> allocate_s = Slice([&] {
    if (trace == nullptr) {
      optimum = mvrob::ComputeOptimalAllocation(main, options);
      return;
    }
    const int64_t start = NowNs();
    std::optional<mvrob::RobustnessAnalyzer> analyzer;
    {
      ScopedSpan span(trace, "core.RobustnessAnalyzer");
      analyzer.emplace(main);
    }
    const int64_t built = NowNs();
    {
      ScopedSpan span(trace, "core.ComputeOptimalAllocation");
      optimum = mvrob::ComputeOptimalAllocation(*analyzer, options);
    }
    build_s.push_back(Seconds(built - start));
    search_s.push_back(Seconds(NowNs() - built));
  });
  const uint64_t allocate_triples = triples.value() / allocate_s.size();

  // Algorithm 1 on the optimum, through the production entry point.
  reference();
  mvrob::RobustnessResult verdict;
  const std::vector<double> check_s = Slice([&] {
    ScopedSpan span(trace, "core.CheckRobustness");
    verdict = mvrob::CheckRobustness(main, optimum.allocation, options);
  });

  reference();
  bool explained = false;
  const std::vector<double> explain_s = Slice([&] {
    ScopedSpan span(trace, "core.ExplainAllocation");
    explained = mvrob::ExplainAllocation(small, small_alloc).ok();
  });

  reference();
  std::optional<mvrob::StatusOr<mvrob::PromotionPlan>> plan;
  const std::vector<double> promote_s = Slice([&] {
    ScopedSpan span(trace, "promote.OptimizePromotions");
    plan.emplace(mvrob::OptimizePromotions(small));
  });

  reference();
  const ClientReport run =
      RunEngine(config_, main, main_alloc, sample_seed,
                config_.engine_steps, trace != nullptr);
  if (trace != nullptr) AddEngineSpans(*trace, sample_span.id(), run);
  reference();
  double sample_s = Seconds(NowNs() - sample_start);
  for (double r : refs) sample_s -= r;

  // Every output is checked; the engine's books must balance.
  checks_.Expect(optimum.allocation == main_alloc,
                 "Algorithm 2 differs from the set-up allocation");
  checks_.Expect(verdict.robust, "Algorithm 1 rejects the optimum");
  checks_.Expect(explained, "ExplainAllocation failed");
  const bool planned = plan->ok();
  checks_.Expect(planned, "OptimizePromotions failed");
  if (planned) {
    const mvrob::PromotionPlan& p = plan->value();
    checks_.Expect(p.before_allocation == small_alloc,
                   "promotion baseline differs from Algorithm 2");
    checks_.Expect(p.improved == config_.promotion_improves &&
                       (!p.improved ||
                        p.after_cost.weighted < p.before_cost.weighted),
                   "promotion plan does not lower the cost as expected");
    if (!first_plan_) first_plan_ = p;
  }
  CheckBooks(run);
  attempted_ += allocate_s.size() + check_s.size() + explain_s.size() +
                promote_s.size() + run.finished;
  gave_up_ += run.gave_up;

  const LevelCounts levels = CountLevels(optimum.allocation);
  Counts counts = {
      {"core.checks", optimum.robustness_checks},
      {"core.check_triples", verdict.triples_examined},
      {"core.levels.rc", levels.rc},
      {"core.levels.si", levels.si},
      {"core.levels.ssi", levels.ssi},
      {"promote.allocations", planned ? plan->value().allocations_computed : 0},
      {"promote.checks", planned ? plan->value().robustness_checks : 0},
  };
  if (config_.engine_workers == 0) {
    const Counts engine = {
        {"mvcc.steps", run.steps},
        {"mvcc.attempts", run.attempts},
        {"mvcc.commits", run.commits},
        {"mvcc.gave_up", run.gave_up},
        {"mvcc.aborts.write_conflict", run.aborts_write_conflict},
        {"mvcc.aborts.ssi", run.aborts_ssi},
        {"mvcc.aborts.lock", run.aborts_lock},
        {"mvcc.blocked_steps", run.blocked_steps},
        {"mvcc.sessions_end", run.sessions_end},
        {"mvcc.versions_end", run.versions_end},
    };
    counts.insert(engine.begin(), engine.end());
  }
  // The traced twin of sample i must do the same work.
  auto [known, fresh] = counts_.emplace(i, counts);
  checks_.Expect(fresh || known->second == counts,
                 "a traced sample's exact counts differ from the untraced");

  // Each stage's measurements as timed ("raw.") and speed-corrected by the
  // reference runs around it.
  auto add_stage = [&](const std::string& name,
                       const std::vector<double>& raw, size_t stage,
                       bool per_second) {
    Append(out, "raw." + name, raw);
    double scale = 1;
    if (!refs.empty()) {
      scale = 2 * kReferenceSeconds / (refs[stage] + refs[stage + 1]);
    }
    std::vector<double> corrected;
    for (double value : raw) {
      corrected.push_back(per_second ? value / scale : value * scale);
    }
    Append(out, name, corrected);
  };
  std::vector<uint64_t> latency = run.latency_ns;
  std::sort(latency.begin(), latency.end());
  add_stage("allocate_s", allocate_s, 0, false);
  add_stage("check_s", check_s, 1, false);
  add_stage("explain_s", explain_s, 2, false);
  add_stage("promote_s", promote_s, 3, false);
  add_stage("commits_per_s",
            {static_cast<double>(run.commits) / run.wall_s()}, 4, true);
  add_stage("commit_p50_us", {Quantile(latency, 0.50) / 1e3}, 4, false);
  add_stage("commit_p99_us", {Quantile(latency, 0.99) / 1e3}, 4, false);
  Append(out, "bench.reference_s", refs);
  Append(out, "commit_samples", {static_cast<double>(latency.size())});
  Append(out, "bench.sample_s", {sample_s});
  if (trace == nullptr) return;

  // Per-layer metrics of the traced sample.
  auto add = [&](const std::string& name, double value) {
    Append(out, name, {value});
  };
  Append(out, "core.build_s", build_s);
  Append(out, "core.search_s", search_s);
  add("core.checks", static_cast<double>(optimum.robustness_checks));
  add("core.us_per_check", 1e6 * Median(search_s) /
                               static_cast<double>(optimum.robustness_checks));
  add("core.triples_examined",
      static_cast<double>(allocate_triples + verdict.triples_examined));
  add("core.explain_ms_per_txn",
      1e3 * Median(explain_s) / static_cast<double>(small.size()));
  if (planned) {
    const mvrob::PromotionPlan& p = plan->value();
    add("promote.allocations", static_cast<double>(p.allocations_computed));
    add("promote.checks", static_cast<double>(p.robustness_checks));
    add("promote.ms_per_allocation",
        1e3 * Median(promote_s) / static_cast<double>(p.allocations_computed));
  }
  auto mean_us = [&](Call call) {
    const size_t c = static_cast<size_t>(call);
    return run.calls.count[c] == 0
               ? 0.0
               : 1e-3 * static_cast<double>(run.calls.total_ns[c]) /
                     static_cast<double>(run.calls.count[c]);
  };
  add("mvcc.begin_us", mean_us(Call::kBegin));
  add("mvcc.read_us", mean_us(Call::kRead));
  add("mvcc.write_us", mean_us(Call::kWrite));
  add("mvcc.commit_us.RC", mean_us(Call::kCommitRC));
  add("mvcc.commit_us.SI", mean_us(Call::kCommitSI));
  add("mvcc.commit_us.SSI", mean_us(Call::kCommitSSI));
  std::vector<uint32_t> ssi = run.calls.ssi_commit_ns;
  std::sort(ssi.begin(), ssi.end());
  add("mvcc.commit_p99_us.SSI", Quantile(ssi, 0.99) / 1e3);
  add("mvcc.vacuum_s",
      Seconds(static_cast<int64_t>(
          run.calls.total_ns[static_cast<size_t>(Call::kVacuum)])));
  add("mvcc.gc_epochs", static_cast<double>(run.gc_epochs));
  add("mvcc.gc_reclaimed", static_cast<double>(run.gc_reclaimed));
  add("mvcc.attempts", static_cast<double>(run.attempts));
  add("mvcc.commit_ratio",
      static_cast<double>(run.commits) / static_cast<double>(run.attempts));
  add("mvcc.aborts.write_conflict",
      static_cast<double>(run.aborts_write_conflict));
  add("mvcc.aborts.ssi", static_cast<double>(run.aborts_ssi));
  add("mvcc.aborts.lock", static_cast<double>(run.aborts_lock));
  add("mvcc.blocked_steps", static_cast<double>(run.blocked_steps));
  add("mvcc.sessions_end", static_cast<double>(run.sessions_end));
  add("mvcc.versions_end", static_cast<double>(run.versions_end));
}

void Harness::FinalChecks() {
  const Inputs& in = *inputs_;
  const mvrob::CheckOptions production;
  auto certify = [&](const TransactionSet& txns, const Allocation& alloc,
                     const LevelCounts& expected, const char* which) {
    const LevelCounts got = CountLevels(alloc);
    checks_.Expect(
        mvrob::CheckRobustness(txns, alloc, production).robust &&
            got == expected,
        std::string(which) + " optimum is not certified robust with the " +
            "expected level counts (RC/SI/SSI " + std::to_string(got.rc) +
            "/" + std::to_string(got.si) + "/" + std::to_string(got.ssi) +
            ")");
  };
  certify(in.main_txns, in.main_alloc, config_.main_levels, "the main set's");
  certify(in.small_txns, in.small_alloc, config_.small_levels,
          "the small set's");
  if (first_plan_ && first_plan_->improved) {
    checks_.Expect(mvrob::CheckRobustness(first_plan_->promoted,
                                          first_plan_->after_allocation,
                                          production)
                       .robust,
                   "the promoted workload is not robust under its allocation");
  }
  mvrob::RoundTripOptions validate;
  validate.runs = kValidateRuns;
  validate.seed = seed_;
  validate.engine_threads =
      static_cast<int>(std::max<size_t>(1, config_.engine_workers));
  mvrob::StatusOr<mvrob::RoundTripReport> report =
      mvrob::ValidateEngineRuns(in.main_txns, in.main_alloc, validate);
  checks_.Expect(report.ok() && report->allocation_robust &&
                     report->disagreements == 0 &&
                     report->certified == report->runs,
                 "recorded engine runs fail round-trip validation");
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"allocate_s", "s"},
    {"check_s", "s"},          {"explain_s", "s"},
    {"promote_s", "s"},        {"commits_per_s", "txn/s"},
    {"commit_p50_us", "us"},   {"commit_p99_us", "us"},
    {"rss_mb", "MB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"workloads.generate_s", "s"},
    {"core.setup_allocation_s", "s"},
    {"core.build_s", "s"},
    {"core.search_s", "s"},
    {"core.checks", "count"},
    {"core.us_per_check", "us"},
    {"core.triples_examined", "count"},
    {"core.explain_ms_per_txn", "ms"},
    {"promote.allocations", "count"},
    {"promote.checks", "count"},
    {"promote.ms_per_allocation", "ms"},
    {"mvcc.begin_us", "us"},
    {"mvcc.read_us", "us"},
    {"mvcc.write_us", "us"},
    {"mvcc.commit_us.RC", "us"},
    {"mvcc.commit_us.SI", "us"},
    {"mvcc.commit_us.SSI", "us"},
    {"mvcc.commit_p99_us.SSI", "us"},
    {"mvcc.vacuum_s", "s"},
    {"mvcc.gc_epochs", "count"},
    {"mvcc.gc_reclaimed", "count"},
    {"mvcc.attempts", "count"},
    {"mvcc.commit_ratio", "ratio"},
    {"mvcc.aborts.write_conflict", "count"},
    {"mvcc.aborts.ssi", "count"},
    {"mvcc.aborts.lock", "count"},
    {"mvcc.blocked_steps", "count"},
    {"mvcc.sessions_end", "count"},
    {"mvcc.versions_end", "count"},
    {"workloads.self_s", "s"},
    {"core.self_s", "s"},
    {"promote.self_s", "s"},
    {"mvcc.self_s", "s"},
    {"bench.self_s", "s"},
    {"bench.client_s", "s"},
    {"bench.traced_sample_s", "s"},
    {"bench.trace_overhead", "ratio"},
};

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "error: %s\nusage: perfbench_harness --workload <name> --seed "
               "<n> --seconds <s> --trace <0|1> [--spans-out <file>]\n",
               message);
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  if (argc % 2 == 0) return Usage("flags take one value each");
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* flag : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (!args.count(flag)) return Usage("missing a required flag");
  }
  const WorkloadConfig* config = nullptr;
  for (const WorkloadConfig& w : kWorkloads) {
    if (w.name == args["--workload"]) config = &w;
  }
  if (config == nullptr) return Usage("unknown workload");
  char* end = nullptr;
  const uint64_t seed = std::strtoull(args["--seed"].c_str(), &end, 10);
  if (*end != '\0') return Usage("--seed is not a number");
  const double seconds = std::strtod(args["--seconds"].c_str(), &end);
  if (*end != '\0' || !(seconds > 0)) return Usage("bad --seconds");
  if (args["--trace"] != "0" && args["--trace"] != "1") {
    return Usage("--trace is 0 or 1");
  }
  const bool traced = args["--trace"] == "1";
  // Keeps the engine's per-epoch GC info lines off the measured path.
  mvrob::GlobalLogger().set_min_level(mvrob::LogLevel::kWarn);

  Harness harness(*config, seed);
  SpanTrace trace;
  Samples plain;
  Samples traced_samples;
  harness.SetUpAll(traced ? &trace : nullptr, plain);
  const std::map<std::string, double> setup_self =
      traced ? trace.SelfSecondsByName(0) : std::map<std::string, double>{};

  // Fixed-work samples until the measuring time is used up; the traced
  // run follows each untraced sample with a traced one of the same work.
  std::vector<std::map<std::string, double>> self_times;
  size_t num_samples = 0;
  const int64_t deadline = NowNs() + static_cast<int64_t>(seconds * 1e9);
  do {
    const size_t i = num_samples++;
    harness.RunSample(i, nullptr, plain);
    if (traced) {
      const int root = static_cast<int>(trace.spans().size());
      harness.RunSample(i, &trace, traced_samples);
      self_times.push_back(trace.SelfSecondsByName(root));
    }
  } while (NowNs() < deadline);
  harness.FinalChecks();

  std::map<std::string, double> metrics;
  const Samples& source = traced ? traced_samples : plain;
  for (const auto& [name, values] : source) metrics[name] = Median(values);
  if (traced) {
    std::vector<double> overhead;
    const std::vector<double>& with = traced_samples.at("bench.sample_s");
    const std::vector<double>& without = plain.at("bench.sample_s");
    for (size_t i = 0; i < with.size(); ++i) {
      overhead.push_back(with[i] / without[i]);
    }
    metrics["bench.traced_sample_s"] = Median(with);
    metrics["bench.trace_overhead"] = Median(overhead);
    // Self time per layer (the span name up to its first dot) and of the
    // client loop, median over the traced samples.
    Samples self;
    for (const auto& by_name : self_times) {
      std::map<std::string, double> layers;
      for (const auto& [name, s] : by_name) {
        layers[name.substr(0, name.find('.')) + ".self_s"] += s;
        if (name == "bench.client" || name == "bench.worker") {
          layers["bench.client_s"] += s;
        }
      }
      for (const auto& [name, s] : layers) self[name].push_back(s);
    }
    for (const auto& [name, values] : self) metrics[name] = Median(values);
    auto setup_span = [&](const char* name) {
      auto it = setup_self.find(name);
      return it == setup_self.end() ? 0.0 : it->second;
    };
    metrics["workloads.generate_s"] = setup_span("workloads.MakeNamedWorkload");
    metrics["core.setup_allocation_s"] = setup_span("core.setup_allocation");
    if (args.count("--spans-out")) {
      std::ofstream out(args["--spans-out"]);
      out << trace.ChromeJson();
      if (!out) std::fprintf(stderr, "cannot write the spans file\n");
    }
  } else {
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    metrics["rss_mb"] = static_cast<double>(usage.ru_maxrss) / 1024.0;
  }

  // Human-readable lines, then the result as the last line.
  std::printf("{\"host\":%s,\"nproc\":%ld,\"workload\":\"%s\",\"seed\":%llu,"
              "\"samples\":%zu}\n",
              mvrob::BuildInfoJson().c_str(), sysconf(_SC_NPROCESSORS_ONLN),
              std::string(config->name).c_str(),
              static_cast<unsigned long long>(seed), num_samples);
  std::string counts = "{\"counts\":{";
  for (const auto& [k, by_name] : harness.counts()) {
    counts += (k == 0 ? "\"" : ",\"") + std::to_string(k) + "\":{";
    bool first = true;
    for (const auto& [name, value] : by_name) {
      counts += (first ? "\"" : ",\"") + name + "\":" + std::to_string(value);
      first = false;
    }
    counts += "}";
  }
  std::printf("%s}}\n", counts.c_str());
  std::printf("reference kernel: median %.6f s\n",
              Median(plain.at("bench.reference_s")));
  std::printf("commit latency: median %.0f commits per sample, so p99 has "
              "%.0f beyond\n",
              Median(source.at("commit_samples")),
              Median(source.at("commit_samples")) / 100);
  if (traced) {
    std::printf("self time per traced sample (s):");
    for (const char* layer :
         {"workloads", "core", "promote", "mvcc", "bench"}) {
      std::printf(" %s=%.4f", layer, metrics[std::string(layer) + ".self_s"]);
    }
    std::printf(" | traced sample %.4f, untraced %.4f\n",
                metrics["bench.traced_sample_s"],
                Median(plain.at("bench.sample_s")));
  }
  std::string json = "{\"correct\": " +
                     std::string(harness.failed() == 0 ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(harness.attempted()) +
                     ", \"failed\": " + std::to_string(harness.failed()) +
                     ", \"metrics\": {";
  const MetricSpec* specs = traced ? kPerLayer : kEndToEnd;
  const size_t num_specs =
      traced ? std::size(kPerLayer) : std::size(kEndToEnd);
  for (size_t i = 0; i < num_specs; ++i) {
    const MetricSpec& spec = specs[i];
    const double value = metrics.count(spec.name) ? metrics[spec.name] : 0;
    std::printf("  %-28s %16.6f %s", spec.name, value, spec.unit);
    const std::string raw = std::string("raw.") + spec.name;
    if (!traced && metrics.count(raw)) {
      std::printf("  (as timed: %.6f)", metrics[raw]);
    }
    std::printf("\n");
    json += std::string(i == 0 ? "\"" : ", \"") + spec.name +
            "\": {\"value\": " + Number(value) + ", \"unit\": \"" +
            spec.unit + "\"}";
  }
  std::printf("%s}}\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
