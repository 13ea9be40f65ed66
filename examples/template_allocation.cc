// Template allocation: the per-*program* view a DBA actually configures.
// Transactions in real systems come from a fixed set of parameterized
// programs (Section 6.3.1 of the paper); this example computes one
// isolation level per program such that EVERY instantiation of the
// workload is serializable, and prints the SET TRANSACTION statements.
//
//   $ ./template_allocation            # Built-in workloads
//   $ ./template_allocation my.tpl     # Your own template file
#include <cstdio>
#include <fstream>
#include <sstream>

#include "templates/library.h"
#include "templates/parser.h"
#include "templates/robustness.h"

namespace {

void Analyze(const char* title, const mvrob::TemplateSet& set) {
  using namespace mvrob;
  std::printf("\n=== %s ===\n%s", title, set.ToString().c_str());

  StatusOr<TemplateAnalysis> analysis = TemplateAnalysis::Build(set);
  if (!analysis.ok()) {
    std::fprintf(stderr, "allocation failed: %s\n",
                 analysis.status().ToString().c_str());
    return;
  }
  const TemplateAllocation levels =
      ComputeOptimalTemplateAllocation(*analysis).levels;
  std::printf("optimal per-program allocation:\n");
  for (size_t t = 0; t < set.size(); ++t) {
    const char* level = IsolationLevelToString(levels[t]);
    const char* sql = levels[t] == IsolationLevel::kRC
                          ? "READ COMMITTED"
                          : (levels[t] == IsolationLevel::kSI
                                 ? "REPEATABLE READ"
                                 : "SERIALIZABLE");
    std::printf("  %-16s -> %-3s  (SET TRANSACTION ISOLATION LEVEL %s)\n",
                set.tmpl(t).name().c_str(), level, sql);
  }
  StatusOr<TemplateExplanation> explanation =
      ExplainTemplateAllocation(*analysis, levels);
  if (explanation.ok()) {
    std::printf("why nothing can run lower:\n%s",
                explanation->ToString(*analysis).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mvrob;
  if (argc > 1) {
    std::ifstream file(argv[1]);
    if (!file) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream text;
    text << file.rdbuf();
    StatusOr<TemplateSet> set = ParseTemplateSet(text.str());
    if (!set.ok()) {
      std::fprintf(stderr, "parse error: %s\n",
                   set.status().ToString().c_str());
      return 1;
    }
    Analyze(argv[1], *set);
    return 0;
  }
  Analyze("TPC-C", TpccTemplates());
  Analyze("SmallBank", SmallBankTemplates());
  Analyze("Auction", AuctionTemplates());
  return 0;
}
