#include "templates/witness.h"

#include "common/json.h"
#include "common/string_util.h"

namespace mvrob {
namespace {

void EmitChain(JsonWriter& json, const TemplateAnalysis& analysis,
               size_t world, const CounterexampleChain& chain) {
  const TransactionSet& txns = analysis.txns(world);
  json.BeginObject();
  json.Key("t1");
  json.String(txns.txn(chain.t1).name());
  json.Key("t2");
  json.String(txns.txn(chain.t2).name());
  json.Key("tm");
  json.String(txns.txn(chain.tm).name());
  json.Key("chain");
  json.String(chain.ToString(txns));
  json.Key("world");
  json.String(analysis.world_name(world));
  json.EndObject();
}

void EmitLevels(JsonWriter& json, const TemplateSet& set,
                const TemplateAllocation& levels) {
  json.BeginArray();
  for (size_t t = 0; t < set.size() && t < levels.size(); ++t) {
    json.BeginObject();
    json.Key("template");
    json.String(set.tmpl(t).name());
    json.Key("level");
    json.String(IsolationLevelToString(levels[t]));
    json.EndObject();
  }
  json.EndArray();
}

}  // namespace

std::string TemplateWitnessJson(const TemplateAnalysis& analysis,
                                const TemplateWitnessInputs& inputs) {
  const TemplateSet& set = analysis.set();
  JsonWriter json;
  json.BeginObject();
  json.Key("format");
  json.String("mvrob-template-witness-v1");
  json.Key("templates");
  json.BeginArray();
  for (size_t t = 0; t < set.size(); ++t) {
    json.String(set.tmpl(t).name());
  }
  json.EndArray();
  json.Key("worlds");
  json.Uint(inputs.worlds);
  json.Key("robustness_checks");
  json.Uint(inputs.robustness_checks);
  if (inputs.levels != nullptr) {
    json.Key("allocation");
    EmitLevels(json, set, *inputs.levels);
  }

  if (inputs.check != nullptr) {
    json.Key("check");
    json.BeginObject();
    json.Key("robust");
    json.Bool(inputs.check->robust);
    json.Key("worlds_checked");
    json.Uint(inputs.check->checks);
    if (!inputs.check->robust && inputs.check->counterexample.has_value()) {
      json.Key("counterexample");
      EmitChain(json, analysis, inputs.check->world,
                *inputs.check->counterexample);
    }
    json.EndObject();
  }

  if (analysis.conflicts() != nullptr) {
    const TemplateConflictAnalysis& conflicts = *analysis.conflicts();
    json.Key("conflicts");
    json.BeginObject();
    json.Key("conflicting_pairs");
    json.Int(conflicts.conflicting_pairs);
    json.Key("baseline_conflicting_pairs");
    json.Int(conflicts.baseline_conflicting_pairs);
    json.Key("op_pairs");
    json.BeginArray();
    for (const TemplateOpPairConflict& pair : conflicts.op_pairs) {
      json.BeginObject();
      json.Key("a");
      json.String(set.tmpl(pair.tmpl_a).name());
      json.Key("op_a");
      json.Int(pair.op_a);
      json.Key("b");
      json.String(set.tmpl(pair.tmpl_b).name());
      json.Key("op_b");
      json.Int(pair.op_b);
      json.Key("kind");
      json.String(pair.kind);
      json.Key("baseline_conflicts");
      json.Bool(pair.baseline_conflicts);
      json.Key("conflicts");
      json.Bool(pair.conflicts);
      if (!pair.conflicts) {
        json.Key("discharged_by");
        json.String(pair.discharged_by);
      } else {
        json.Key("example");
        json.String(pair.example);
      }
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
  }

  if (inputs.explanation != nullptr) {
    const TemplateExplanation& explanation = *inputs.explanation;
    json.Key("obstacles");
    json.BeginArray();
    for (const TemplateObstacle& entry : explanation.per_template) {
      json.BeginObject();
      json.Key("template");
      json.String(set.tmpl(entry.tmpl).name());
      json.Key("level");
      json.String(IsolationLevelToString(entry.assigned));
      json.Key("blocked");
      json.BeginArray();
      for (const TemplateObstacle::Entry& obstacle : entry.obstacles) {
        json.BeginObject();
        json.Key("attempted");
        json.String(IsolationLevelToString(obstacle.attempted));
        json.Key("witness");
        EmitChain(json, analysis, obstacle.world, obstacle.chain);
        json.EndObject();
      }
      json.EndArray();
      json.EndObject();
    }
    json.EndArray();
  }

  if (inputs.promotion != nullptr) {
    const TemplatePromotionPlan& plan = *inputs.promotion;
    json.Key("promotion");
    json.BeginObject();
    json.Key("improved");
    json.Bool(plan.improved);
    json.Key("promotions");
    json.BeginArray();
    for (const TemplatePromotion& promotion : plan.promotions) {
      json.BeginObject();
      json.Key("template");
      json.String(set.tmpl(promotion.tmpl).name());
      json.Key("op");
      json.Int(promotion.op);
      json.Key("pattern");
      json.String(set.tmpl(promotion.tmpl).ops()[promotion.op].object_pattern);
      json.EndObject();
    }
    json.EndArray();
    json.Key("before");
    EmitLevels(json, set, plan.before_levels);
    json.Key("after");
    EmitLevels(json, set, plan.after_levels);
    json.Key("before_weighted");
    json.Int(plan.before_cost.weighted);
    json.Key("after_weighted");
    json.Int(plan.after_cost.weighted);
    json.EndObject();
  }

  json.EndObject();
  return json.str();
}

}  // namespace mvrob
