#include "adapt/controller.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/json.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "mvcc/txn_trace.h"

namespace mvrob {
namespace {

uint64_t WallClockMicros() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

/// One level's scalar cost: windowed p95 commit latency inflated by the
/// abort ratio. max(p95, 1) keeps the ratio meaningful when latencies are
/// sub-microsecond.
double LevelScore(const LevelObservation& o) {
  const uint64_t attempts = o.commits + o.aborts;
  const double abort_ratio =
      attempts == 0 ? 0.0
                    : static_cast<double>(o.aborts) /
                          static_cast<double>(attempts);
  const double latency =
      static_cast<double>(std::max<uint64_t>(o.p95_latency_us, 1));
  return (1.0 + abort_ratio) * latency;
}

int ClampWeight(double ratio, int lo, int hi) {
  const long long rounded = std::llround(ratio);
  if (rounded < lo) return lo;
  if (rounded > hi) return hi;
  return static_cast<int>(rounded);
}

/// Writes the "allocation" / "allocation_text" / "levels" keys shared by
/// the adaptive and static /allocation payloads.
void WriteAllocationFields(const TransactionSet& txns, const Allocation& alloc,
                           JsonWriter& json) {
  json.Key("allocation");
  json.BeginObject();
  for (TxnId t = 0; t < static_cast<TxnId>(txns.size()); ++t) {
    json.Key(txns.txn(t).name());
    json.String(IsolationLevelToString(alloc.level(t)));
  }
  json.EndObject();
  json.Key("allocation_text");
  json.String(alloc.ToString(txns));
  json.Key("levels");
  json.BeginObject();
  for (IsolationLevel level : kAllIsolationLevels) {
    json.Key(IsolationLevelToString(level));
    json.Uint(alloc.CountAt(level));
  }
  json.EndObject();
}

void WriteDecision(const AdaptDecision& d, JsonWriter& json) {
  json.BeginObject();
  json.Key("id");
  json.Uint(d.id);
  json.Key("decided_at_us");
  json.Uint(d.decided_at_us);
  json.Key("weights");
  json.BeginObject();
  json.Key("si");
  json.Int(d.weights.si);
  json.Key("ssi");
  json.Int(d.weights.ssi);
  json.EndObject();
  json.Key("allocation");
  json.String(d.allocation_text);
  json.Key("promotions");
  json.BeginArray();
  for (const std::string& p : d.promotions) json.String(p);
  json.EndArray();
  json.Key("cost_weighted");
  json.Int(d.cost_weighted);
  json.Key("robustness_checks");
  json.Uint(d.robustness_checks);
  json.Key("robust");
  json.Bool(d.robust);
  json.Key("installed");
  json.Bool(d.installed);
  json.Key("generation");
  json.Uint(d.generation);
  json.Key("top_conflicts");
  json.BeginArray();
  for (const std::string& c : d.top_conflicts) json.String(c);
  json.EndArray();
  json.EndObject();
}

}  // namespace

ActiveAllocation::ActiveAllocation(TransactionSet txns, Allocation alloc)
    : txns_(std::move(txns)), alloc_(std::move(alloc)) {}

uint64_t ActiveAllocation::Snapshot(TransactionSet* txns,
                                    Allocation* alloc) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (txns != nullptr) *txns = txns_;
  if (alloc != nullptr) *alloc = alloc_;
  return generation_;
}

uint64_t ActiveAllocation::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

uint64_t ActiveAllocation::Install(TransactionSet txns, Allocation alloc) {
  std::lock_guard<std::mutex> lock(mu_);
  txns_ = std::move(txns);
  alloc_ = std::move(alloc);
  return ++generation_;
}

LevelObservations ObserveLevels(const LiveTelemetry& live,
                                std::chrono::steady_clock::time_point now) {
  LevelObservations obs;
  for (size_t i = 0; i < kAllIsolationLevels.size(); ++i) {
    const LiveTelemetry::PerLevel& in = live.per_level[i];
    LevelObservation& out = obs.per_level[i];
    if (in.commits != nullptr) out.commits = in.commits->WindowTotal(now);
    if (in.aborts_write_conflict != nullptr) {
      out.aborts += in.aborts_write_conflict->WindowTotal(now);
    }
    if (in.aborts_ssi != nullptr) out.aborts += in.aborts_ssi->WindowTotal(now);
    if (in.aborts_deadlock != nullptr) {
      out.aborts += in.aborts_deadlock->WindowTotal(now);
    }
    if (in.commit_latency_us != nullptr) {
      out.p95_latency_us = in.commit_latency_us->WindowStats(now).p95;
    }
  }
  return obs;
}

AdaptWeights DeriveWeights(const LevelObservations& obs) {
  AdaptWeights weights;
  const LevelObservation& rc =
      obs.per_level[static_cast<size_t>(IsolationLevel::kRC)];
  const LevelObservation& si =
      obs.per_level[static_cast<size_t>(IsolationLevel::kSI)];
  const LevelObservation& ssi =
      obs.per_level[static_cast<size_t>(IsolationLevel::kSSI)];
  const bool rc_seen = rc.commits + rc.aborts > 0;
  if (rc_seen && si.commits + si.aborts > 0) {
    weights.si = ClampWeight(LevelScore(si) / LevelScore(rc), 1, 64);
  }
  if (rc_seen && ssi.commits + ssi.aborts > 0) {
    weights.ssi =
        ClampWeight(LevelScore(ssi) / LevelScore(rc), weights.si, 128);
  }
  // Preserve the paper's preference order RC < SI < SSI even when SSI went
  // unobserved and kept its default.
  weights.ssi = std::max(weights.ssi, weights.si);
  return weights;
}

AdaptController::AdaptController(TransactionSet base, const LiveTelemetry* live,
                                 ActiveAllocation* active,
                                 AdaptControllerOptions options)
    : base_(std::move(base)),
      live_(live),
      active_(active),
      options_(std::move(options)) {
  active_->Snapshot(nullptr, &installed_alloc_);
}

bool AdaptController::DecideOnce(std::chrono::steady_clock::time_point now) {
  PhaseTimer timer(options_.metrics, "adapt.decide");
  const auto decide_start = std::chrono::steady_clock::now();

  const LevelObservations obs =
      live_ != nullptr ? ObserveLevels(*live_, now) : LevelObservations{};
  const AdaptWeights weights = DeriveWeights(obs);

  // Algorithm 2 on the base workload. Its optimum is unique and
  // weight-independent (Theorem 4.3), so the weights matter through the
  // promotion decision below: promoted workload + cheaper allocation vs
  // base workload + the optimum.
  const OptimalAllocationResult base_opt =
      ComputeOptimalAllocation(base_, options_.check);
  if (base_opt.cancelled) return false;

  TransactionSet chosen_txns = base_;
  Allocation chosen_alloc = base_opt.allocation;
  std::vector<OpRef> promotions;
  uint64_t robustness_checks = base_opt.robustness_checks;

  if (options_.promotion_budget > 0) {
    PromoteOptions popt;
    popt.check = options_.check;
    popt.max_promotions = options_.promotion_budget;
    popt.weight_si = weights.si;
    popt.weight_ssi = weights.ssi;
    StatusOr<PromotionPlan> plan = OptimizePromotions(base_, popt);
    if (plan.ok()) {
      if (plan->cancelled) return false;
      robustness_checks += plan->robustness_checks;
      if (plan->improved) {
        chosen_txns = plan->promoted;
        chosen_alloc = plan->after_allocation;
        promotions = plan->promotions.reads();
      }
    }
  }

  // Final certification: a cancelled Algorithm 1 run carries no verdict
  // (robust stays true), and Algorithm 2 does not re-certify under
  // cancellation — so nothing is installed without a fresh, completed
  // certificate on exactly the pair that would go live.
  const RobustnessResult cert =
      CheckRobustness(chosen_txns, chosen_alloc, options_.check);
  if (cert.cancelled) return false;
  ++robustness_checks;

  PromoteOptions cost_options;
  cost_options.weight_si = weights.si;
  cost_options.weight_ssi = weights.ssi;

  AdaptDecision decision;
  decision.decided_at_us = WallClockMicros();
  decision.weights = weights;
  decision.allocation_text = chosen_alloc.ToString(chosen_txns);
  for (OpRef read : promotions) {
    decision.promotions.push_back(base_.FormatOp(read));
  }
  decision.cost_weighted =
      ComputeAllocationCost(chosen_alloc, cost_options).weighted;
  decision.robustness_checks = robustness_checks;
  decision.robust = cert.robust;
  if (options_.tracer != nullptr) {
    for (const TraceConflictRow& row :
         options_.tracer->TopConflicts(options_.top_conflicts)) {
      decision.top_conflicts.push_back(
          StrCat(row.victim, "->", row.conflicting, " ",
                 ConflictTypeToString(row.type), " ",
                 TraceAbortCauseToString(row.cause), " x", row.count));
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    ++decisions_;
    decision.id = decisions_;
    last_weights_ = weights;
    if (!cert.robust) {
      // Defensive: Algorithm 2 output always certifies; refusing here is
      // the invariant that keeps every installed pair robust.
      decision.installed = false;
      decision.generation = active_->generation();
    } else {
      const bool changed = !(chosen_alloc == installed_alloc_ &&
                             promotions == installed_promotions_);
      if (changed) {
        decision.generation =
            active_->Install(std::move(chosen_txns), chosen_alloc);
        installed_alloc_ = std::move(chosen_alloc);
        installed_promotions_ = promotions;
        ++swaps_;
        decision.installed = true;
      } else {
        decision.generation = active_->generation();
      }
    }
    history_.push_back(decision);
    while (history_.size() > options_.history_limit) history_.pop_front();

    if (options_.metrics != nullptr) {
      MetricsRegistry& m = *options_.metrics;
      m.counter("adapt.decisions").Increment();
      if (decision.installed) m.counter("adapt.swaps").Increment();
      if (!decision.robust) m.counter("adapt.rejected").Increment();
      m.gauge("adapt.weight{level=SI}").Set(weights.si);
      m.gauge("adapt.weight{level=SSI}").Set(weights.ssi);
      for (IsolationLevel level : kAllIsolationLevels) {
        m.gauge(StrCat("adapt.allocation{level=",
                       IsolationLevelToString(level), "}"))
            .Set(static_cast<int64_t>(installed_alloc_.CountAt(level)));
      }
      m.gauge("adapt.generation").Set(
          static_cast<int64_t>(decision.generation));
    }
  }

  if (options_.metrics != nullptr) {
    const auto decide_end = std::chrono::steady_clock::now();
    options_.metrics->windowed_histogram("adapt.decision_latency_us")
        .Observe(static_cast<uint64_t>(
                     std::chrono::duration_cast<std::chrono::microseconds>(
                         decide_end - decide_start)
                         .count()),
                 decide_end);
  }

  std::string conflicts_text;
  for (const std::string& c : decision.top_conflicts) {
    if (!conflicts_text.empty()) conflicts_text += "; ";
    conflicts_text += c;
  }

  if (decision.installed) {
    GlobalLogger().Log(
        LogLevel::kInfo, "adapt.decision", "installed new allocation",
        {LogField("decision", decision.id),
         LogField("generation", decision.generation),
         LogField("weight_si", decision.weights.si),
         LogField("weight_ssi", decision.weights.ssi),
         LogField("allocation", decision.allocation_text),
         LogField("promotions",
                  static_cast<uint64_t>(decision.promotions.size())),
         LogField("cost_weighted", decision.cost_weighted),
         LogField("robustness_checks", decision.robustness_checks),
         LogField("conflicts", conflicts_text)});
  } else if (!decision.robust) {
    GlobalLogger().Log(
        LogLevel::kWarn, "adapt.decision",
        "candidate failed certification; keeping previous allocation",
        {LogField("decision", decision.id),
         LogField("allocation", decision.allocation_text),
         LogField("conflicts", conflicts_text)});
  }
  return true;
}

void AdaptController::Run(const std::atomic<bool>& stop, std::mutex& stop_mu,
                          std::condition_variable& stop_cv) {
  std::unique_lock<std::mutex> lock(stop_mu);
  while (!stop.load(std::memory_order_relaxed)) {
    lock.unlock();
    DecideOnce(std::chrono::steady_clock::now());
    lock.lock();
    stop_cv.wait_for(lock, std::chrono::seconds(options_.interval_s),
                     [&] { return stop.load(std::memory_order_relaxed); });
  }
}

uint64_t AdaptController::decisions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return decisions_;
}

uint64_t AdaptController::swaps() const {
  std::lock_guard<std::mutex> lock(mu_);
  return swaps_;
}

std::string AdaptController::StatusJson() const {
  TransactionSet active_txns;
  Allocation active_alloc;
  const uint64_t generation = active_->Snapshot(&active_txns, &active_alloc);

  JsonWriter json;
  json.BeginObject();
  json.Key("version");
  json.Uint(1);
  json.Key("adapt");
  json.Bool(true);
  json.Key("generation");
  json.Uint(generation);
  {
    std::lock_guard<std::mutex> lock(mu_);
    json.Key("decisions");
    json.Uint(decisions_);
    json.Key("swaps");
    json.Uint(swaps_);
    WriteAllocationFields(active_txns, active_alloc, json);
    json.Key("weights");
    json.BeginObject();
    json.Key("si");
    json.Int(last_weights_.si);
    json.Key("ssi");
    json.Int(last_weights_.ssi);
    json.EndObject();
    json.Key("promotions");
    json.BeginArray();
    for (OpRef read : installed_promotions_) {
      json.String(base_.FormatOp(read));
    }
    json.EndArray();
    json.Key("history");
    json.BeginArray();
    for (const AdaptDecision& d : history_) WriteDecision(d, json);
    json.EndArray();
  }
  json.EndObject();
  return json.str();
}

std::string StaticAllocationJson(const ActiveAllocation& active) {
  TransactionSet txns;
  Allocation alloc;
  const uint64_t generation = active.Snapshot(&txns, &alloc);

  JsonWriter json;
  json.BeginObject();
  json.Key("version");
  json.Uint(1);
  json.Key("adapt");
  json.Bool(false);
  json.Key("generation");
  json.Uint(generation);
  json.Key("decisions");
  json.Uint(0);
  json.Key("swaps");
  json.Uint(0);
  WriteAllocationFields(txns, alloc, json);
  json.Key("weights");
  json.BeginObject();
  json.Key("si");
  json.Int(AdaptWeights{}.si);
  json.Key("ssi");
  json.Int(AdaptWeights{}.ssi);
  json.EndObject();
  json.Key("promotions");
  json.BeginArray();
  json.EndArray();
  json.Key("history");
  json.BeginArray();
  json.EndArray();
  json.EndObject();
  return json.str();
}

}  // namespace mvrob
