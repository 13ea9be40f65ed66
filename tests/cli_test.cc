#include <gtest/gtest.h>

#include <csignal>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <thread>

#include "cli/cli.h"
#include "cli/export.h"
#include "cli/serve.h"
#include "common/http.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "core/robustness.h"
#include "iso/allocation.h"
#include "mvcc/engine.h"
#include "mvcc/txn_trace.h"
#include "oracle/reference_checker.h"
#include "txn/parser.h"

namespace mvrob {
namespace {

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult RunTool(std::vector<std::string> args) {
  std::ostringstream out;
  std::ostringstream err;
  int code = RunCli(args, out, err);
  return {code, out.str(), err.str()};
}

constexpr const char* kWriteSkew = "T1: R[x] W[y]\nT2: R[y] W[x]";

TEST(CliTest, HelpAndUnknownCommand) {
  CliResult help = RunTool({"help"});
  EXPECT_EQ(help.code, 0);
  EXPECT_NE(help.out.find("usage: mvrob"), std::string::npos);

  CliResult empty = RunTool({});
  EXPECT_EQ(empty.code, 1);

  CliResult unknown = RunTool({"frobnicate"});
  EXPECT_EQ(unknown.code, 1);
  EXPECT_NE(unknown.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, CheckReportsNonRobustWithWitness) {
  CliResult result = RunTool({"check", "--txns", kWriteSkew});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("robust: no"), std::string::npos);
  EXPECT_NE(result.out.find("counterexample:"), std::string::npos);
  EXPECT_NE(result.out.find("witness schedule:"), std::string::npos);
}

TEST(CliTest, CheckHonorsAllocationAndDefault) {
  CliResult result =
      RunTool({"check", "--txns", kWriteSkew, "--default", "SSI"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("robust: yes"), std::string::npos);

  CliResult mixed = RunTool({"check", "--txns", kWriteSkew, "--alloc", "T1=SI",
                         "--default", "SSI"});
  EXPECT_EQ(mixed.code, 0);
  EXPECT_NE(mixed.out.find("robust: no"), std::string::npos);
}

TEST(CliTest, CheckRejectsBadInput) {
  EXPECT_EQ(RunTool({"check"}).code, 1);
  EXPECT_EQ(RunTool({"check", "--txns", "garbage"}).code, 1);
  EXPECT_EQ(RunTool({"check", "--txns", kWriteSkew, "--default", "WAT"}).code,
            1);
  EXPECT_EQ(RunTool({"check", "--txns", "@/nonexistent/file"}).code, 1);
  EXPECT_EQ(RunTool({"check", "--txns"}).code, 1);  // Missing value.
  EXPECT_EQ(RunTool({"check", "stray"}).code, 1);
}

TEST(CliTest, AllocateComputesOptimum) {
  CliResult result = RunTool({"allocate", "--txns", kWriteSkew});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("T1=SSI T2=SSI"), std::string::npos);
  EXPECT_NE(result.out.find("SSI=2"), std::string::npos);
}

TEST(CliTest, AllocateExplain) {
  CliResult result = RunTool({"allocate", "--txns", kWriteSkew, "--explain"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("not SI:"), std::string::npos);
}

TEST(CliTest, AllocateRcSi) {
  CliResult skew = RunTool({"allocate", "--txns", kWriteSkew, "--rcsi"});
  EXPECT_EQ(skew.code, 0);
  EXPECT_NE(skew.out.find("no robust {RC,SI} allocation"),
            std::string::npos);

  CliResult lost =
      RunTool({"allocate", "--txns", "T1: R[x] W[x]\nT2: R[x] W[x]", "--rcsi"});
  EXPECT_EQ(lost.code, 0);
  EXPECT_NE(lost.out.find("T1=SI T2=SI"), std::string::npos);
}

TEST(CliTest, CrossCheckAgrees) {
  CliResult skew = RunTool({"crosscheck", "--txns", kWriteSkew});
  EXPECT_EQ(skew.code, 0) << skew.err;
  EXPECT_NE(skew.out.find("ALL CHECKS AGREE"), std::string::npos);
  EXPECT_NE(skew.out.find("not robust"), std::string::npos);

  CliResult robust = RunTool(
      {"crosscheck", "--txns", kWriteSkew, "--default", "SSI"});
  EXPECT_EQ(robust.code, 0);
  EXPECT_NE(robust.out.find("no split schedule"), std::string::npos);
  EXPECT_NE(robust.out.find("ALL CHECKS AGREE"), std::string::npos);
}

TEST(CliTest, AllocateWithBounds) {
  CliResult pinned = RunTool(
      {"allocate", "--txns", kWriteSkew, "--pin", "T1=SI"});
  EXPECT_EQ(pinned.code, 0) << pinned.err;
  EXPECT_NE(pinned.out.find("no robust allocation exists"),
            std::string::npos);

  CliResult capped = RunTool(
      {"allocate", "--txns", "T1: R[x] W[x]\nT2: R[x] W[x]\nT3: R[q]",
       "--atmost", "T1=SI T2=SI"});
  EXPECT_EQ(capped.code, 0);
  EXPECT_NE(capped.out.find("T1=SI T2=SI T3=RC"), std::string::npos);

  CliResult feasible_pin = RunTool(
      {"allocate", "--txns", kWriteSkew, "--pin", "T1=SSI T2=SSI"});
  EXPECT_NE(feasible_pin.out.find("T1=SSI T2=SSI"), std::string::npos);
}

// --rcsi composes with --pin / --atmost: they narrow the {RC, SI} box
// instead of replacing it, so a pin above SI leaves the box empty.
TEST(CliTest, RcSiComposesWithBounds) {
  const char* txns = "T1: R[x] W[x]\nT2: R[x] W[x]\nT3: R[q]";
  CliResult above =
      RunTool({"allocate", "--txns", txns, "--rcsi", "--pin", "T1=SSI"});
  EXPECT_EQ(above.code, 1) << above.out;
  EXPECT_EQ(above.out, "");
  EXPECT_NE(above.err.find("empty bounds for T1: min SSI > max SI"),
            std::string::npos)
      << above.err;

  CliResult pinned =
      RunTool({"allocate", "--txns", txns, "--rcsi", "--pin", "T3=SI"});
  EXPECT_EQ(pinned.code, 0) << pinned.err;
  EXPECT_EQ(pinned.out,
            "optimal allocation within bounds: T1=SI T2=SI T3=SI\n");

  // A cap above SI does not lift the {RC, SI} box's cap.
  CliResult capped =
      RunTool({"allocate", "--txns", txns, "--rcsi", "--atmost", "T1=SSI"});
  EXPECT_EQ(capped.code, 0) << capped.err;
  EXPECT_EQ(capped.out,
            "optimal allocation within bounds: T1=SI T2=SI T3=RC\n");
}

// The bounded modes print one line of text; the output flags of the free
// mode are rejected there, not silently dropped.
TEST(CliTest, BoundedAllocateRejectsOutputFlags) {
  const std::vector<std::vector<std::string>> modes = {
      {"--rcsi"}, {"--pin", "T1=SSI"}, {"--atmost", "T1=SI"}};
  const std::vector<std::vector<std::string>> outputs = {
      {"--json"}, {"--explain"}, {"--witness-json", "-"},
      {"--witness-dot", "-"}};
  for (const std::vector<std::string>& mode : modes) {
    for (const std::vector<std::string>& output : outputs) {
      std::vector<std::string> args = {"allocate", "--txns", kWriteSkew};
      args.insert(args.end(), mode.begin(), mode.end());
      args.insert(args.end(), output.begin(), output.end());
      CliResult result = RunTool(args);
      SCOPED_TRACE(mode.front() + " " + output.front());
      EXPECT_EQ(result.code, 1);
      EXPECT_EQ(result.out, "");
      EXPECT_NE(result.err.find("InvalidArgument: " + output.front() +
                                " does not apply"),
                std::string::npos)
          << result.err;
    }
  }
}

// --json prints only the levels; --explain with it is rejected rather
// than silently dropped.
TEST(CliTest, AllocateJsonRejectsExplain) {
  CliResult result =
      RunTool({"allocate", "--txns", kWriteSkew, "--json", "--explain"});
  EXPECT_EQ(result.code, 1);
  EXPECT_EQ(result.out, "");
  EXPECT_NE(result.err.find("InvalidArgument: --explain does not apply with "
                            "--json"),
            std::string::npos)
      << result.err;
}

TEST(CliTest, ExploreAnalyzesSchedule) {
  CliResult result =
      RunTool({"explore", "--txns", kWriteSkew, "--schedule",
           "R1[x] R2[y] W2[x] C2 W1[y] C1", "--timeline", "--dot"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("conflict serializable: no"), std::string::npos);
  EXPECT_NE(result.out.find("anomaly: write skew"), std::string::npos);
  EXPECT_NE(result.out.find("allowed under T1=SI T2=SI: yes"),
            std::string::npos);
  EXPECT_NE(result.out.find("digraph SeG"), std::string::npos);
  EXPECT_NE(result.out.find("T1 |"), std::string::npos);
}

TEST(CliTest, ExploreRequiresSchedule) {
  EXPECT_EQ(RunTool({"explore", "--txns", kWriteSkew}).code, 1);
  EXPECT_EQ(RunTool({"explore", "--txns", kWriteSkew, "--schedule",
                 "R1[x] C1"}).code,
            1);  // Incomplete order.
}

TEST(CliTest, CensusCounts) {
  CliResult result = RunTool({"census", "--txns", kWriteSkew});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("interleavings: 20"), std::string::npos);
  // A_SI admits anomalies on the write-skew pair.
  EXPECT_EQ(result.out.find("anomalous:     0"), std::string::npos);

  CliResult capped =
      RunTool({"census", "--txns", kWriteSkew, "--max", "3"});
  EXPECT_EQ(capped.code, 1);  // Refuses: 20 > 3.
}

TEST(CliTest, WorkloadSpecInput) {
  CliResult result =
      RunTool({"check", "--workload", "smallbank", "--default", "SI"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("robust: no"), std::string::npos);
  EXPECT_NE(result.out.find("WriteCheck"), std::string::npos);

  CliResult bad = RunTool({"check", "--workload", "nope"});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("available:"), std::string::npos);
}

TEST(CliTest, SimulateReportsAnomalies) {
  CliResult result = RunTool(
      {"simulate", "--txns", kWriteSkew, "--runs", "30", "--seed", "1"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("simulating 30 executions"), std::string::npos);
  EXPECT_NE(result.out.find("anomaly 'write skew'"), std::string::npos);
  EXPECT_NE(result.out.find("NOT robust"), std::string::npos);

  CliResult safe = RunTool({"simulate", "--txns", kWriteSkew, "--runs", "10",
                            "--default", "SSI"});
  EXPECT_NE(safe.out.find("serializable runs: 10/10"), std::string::npos);
  EXPECT_NE(safe.out.find("robust - anomalies are impossible"),
            std::string::npos);

  EXPECT_EQ(RunTool({"simulate", "--txns", kWriteSkew, "--runs", "0"}).code,
            1);
}

TEST(CliTest, ShellSession) {
  std::istringstream in(
      "add T1: R[x] W[y]\n"
      "add T2: R[y] W[x]\n"
      "show\n"
      "remove T1\n"
      "remove Missing\n"
      "nonsense\n"
      "quit\n");
  std::ostringstream out;
  std::ostringstream err;
  int code = RunCli({"shell"}, in, out, err);
  EXPECT_EQ(code, 0);
  EXPECT_NE(out.str().find("added T1; optimal: T1=RC"), std::string::npos);
  EXPECT_NE(out.str().find("added T2; optimal: T1=SSI T2=SSI"),
            std::string::npos);
  EXPECT_NE(out.str().find("removed T1"), std::string::npos);
  EXPECT_NE(out.str().find("optimal: T2=RC"), std::string::npos);
  EXPECT_NE(err.str().find("no transaction 'Missing'"), std::string::npos);
  EXPECT_NE(err.str().find("unknown shell command"), std::string::npos);
}

TEST(CliTest, JsonOutput) {
  CliResult check = RunTool({"check", "--json", "--txns", kWriteSkew});
  EXPECT_EQ(check.code, 0);
  EXPECT_EQ(check.out,
            "{\"allocation\":\"T1=SI T2=SI\",\"robust\":false,"
            "\"counterexample\":{\"split_txn\":\"T1\","
            "\"split_after\":\"R1[x]\",\"chain\":[\"T1\",\"T2\"]}}\n");

  CliResult robust = RunTool(
      {"check", "--json", "--txns", kWriteSkew, "--default", "SSI"});
  EXPECT_EQ(robust.out,
            "{\"allocation\":\"T1=SSI T2=SSI\",\"robust\":true}\n");

  CliResult allocate = RunTool({"allocate", "--json", "--txns", kWriteSkew});
  EXPECT_NE(allocate.out.find("\"levels\":{\"T1\":\"SSI\",\"T2\":\"SSI\"}"),
            std::string::npos);
}

TEST(CliTest, ReportContainsAllSections) {
  CliResult result = RunTool({"report", "--txns", kWriteSkew});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("# Workload analysis"), std::string::npos);
  EXPECT_NE(result.out.find("| A_RC  | no |"), std::string::npos);
  EXPECT_NE(result.out.find("| A_SI  | no |"), std::string::npos);
  EXPECT_NE(result.out.find("T1=SSI T2=SSI"), std::string::npos);
  EXPECT_NE(result.out.find("Why no transaction can run lower"),
            std::string::npos);
  EXPECT_NE(result.out.find("NOT robustly allocatable"), std::string::npos);
  EXPECT_NE(result.out.find("Interleaving census"), std::string::npos);
}

TEST(CliTest, RejectsMalformedNumericFlags) {
  struct Case {
    std::vector<std::string> args;
    const char* needle;  // Expected fragment of the stderr diagnostic.
  };
  const Case cases[] = {
      {{"census", "--txns", kWriteSkew, "--max", "abc"}, "--max"},
      {{"simulate", "--txns", kWriteSkew, "--runs", "12x"}, "--runs"},
      {{"simulate", "--txns", kWriteSkew, "--seed", "-1"}, "--seed"},
      {{"simulate", "--txns", kWriteSkew, "--runs", "0"}, "--runs"},
      {{"simulate", "--txns", kWriteSkew, "--concurrency", "junk"},
       "--concurrency"},
      {{"simulate", "--txns", kWriteSkew, "--seed", "18446744073709551616"},
       "--seed"},
      {{"check", "--txns", kWriteSkew, "--threads", "2x"}, "--threads"},
      {{"check", "--txns", kWriteSkew, "--threads", "-1"}, "--threads"},
      {{"check", "--workload", "synthetic:n=12x"}, "n=12x"},
      {{"check", "--workload", "tpcc:w="}, "empty"},
  };
  for (const Case& c : cases) {
    CliResult result = RunTool(c.args);
    EXPECT_EQ(result.code, 1) << Join(c.args, " ");
    EXPECT_NE(result.err.find(c.needle), std::string::npos)
        << Join(c.args, " ") << " stderr: " << result.err;
  }
}

TEST(CliTest, RejectsUnknownFlags) {
  // A typo must fail and name the flag, not run with the default.
  CliResult typo = RunTool(
      {"simulate", "--txns", kWriteSkew, "--engine-thread", "4"});
  EXPECT_EQ(typo.code, 1);
  EXPECT_NE(typo.err.find("unknown flag --engine-thread"), std::string::npos)
      << typo.err;
  EXPECT_TRUE(typo.out.empty()) << typo.out;
}

TEST(CliTest, EngineShardsRequireEngineThreads) {
  // Shards partition the many-core engine only: without --engine-threads
  // > 1 the flag is rejected, naming both flags, instead of ignored.
  for (const char* command : {"simulate", "validate", "serve"}) {
    for (const std::vector<std::string>& threads :
         {std::vector<std::string>{},
          std::vector<std::string>{"--engine-threads", "1"}}) {
      std::vector<std::string> args = {command, "--txns", kWriteSkew,
                                       "--engine-shards", "8"};
      args.insert(args.end(), threads.begin(), threads.end());
      CliResult result = RunTool(args);
      EXPECT_EQ(result.code, 1) << Join(args, " ");
      EXPECT_NE(result.err.find("--engine-shards requires --engine-threads"),
                std::string::npos)
          << Join(args, " ") << " stderr: " << result.err;
    }
  }
  CliResult sharded =
      RunTool({"simulate", "--txns", kWriteSkew, "--runs", "2",
               "--engine-threads", "2", "--engine-shards", "8"});
  EXPECT_EQ(sharded.code, 0) << sharded.err;
}

std::set<std::string> FlagsIn(const std::string& text) {
  const std::regex flag_re("--[a-z][a-z0-9-]*");
  std::set<std::string> flags;
  for (auto it = std::sregex_iterator(text.begin(), text.end(), flag_re);
       it != std::sregex_iterator(); ++it) {
    flags.insert(it->str());
  }
  return flags;
}

bool Declares(const CliCommand& command, const std::string& flag) {
  const std::vector<std::string> declared = DeclaredFlags(command);
  return std::find(declared.begin(), declared.end(), flag) != declared.end();
}

// `--name`, followed by a dummy value when the flag takes one.
std::vector<std::string> FlagArgs(const std::string& name) {
  for (const CliFlag& flag : CliFlags()) {
    if (name == flag.name && flag.takes_value()) return {"--" + name, "1"};
  }
  return {"--" + name};
}

// `mvrob help` is generated from the tables: each command's block lists
// exactly the flags the command declares, the flags section lists every
// row, and every flag a command or a rule names is a row.
TEST(CliTest, FlagTableMatchesHelp) {
  const std::string help = RunTool({"help"}).out;
  const size_t rules_at = help.find("\nrules");
  const size_t flags_at = help.find("\nflags:\n");
  ASSERT_NE(rules_at, std::string::npos) << help;
  ASSERT_NE(flags_at, std::string::npos) << help;

  std::set<std::string> in_table;
  for (const CliFlag& flag : CliFlags()) {
    EXPECT_TRUE(in_table.insert(StrCat("--", flag.name)).second)
        << "duplicate flag --" << flag.name;
  }
  EXPECT_EQ(FlagsIn(help.substr(flags_at)), in_table);

  // A command's block runs from its "  <name>" line to the next one.
  std::map<std::string, std::string> blocks;
  std::istringstream lines(help.substr(0, rules_at));
  std::string current;
  for (std::string line; std::getline(lines, line);) {
    if (line.starts_with("  ") && line[2] != ' ') {
      current = line.substr(2, line.find(' ', 2) - 2);
    } else if (!current.empty()) {
      blocks[current] += line + "\n";
    }
  }
  std::set<std::string> read_by_some_command;
  for (const CliCommand& command : CliCommands()) {
    std::set<std::string> declared;
    for (const std::string& name : DeclaredFlags(command)) {
      EXPECT_TRUE(declared.insert("--" + name).second)
          << command.name << " declares --" << name << " twice";
      EXPECT_TRUE(in_table.contains("--" + name))
          << command.name << " declares --" << name << ", not a flag row";
    }
    EXPECT_EQ(FlagsIn(blocks[command.name]), declared) << command.name;
    read_by_some_command.insert(declared.begin(), declared.end());
  }
  EXPECT_EQ(read_by_some_command, in_table);

  // A rule only names flags its command reads.
  for (const CliRule& rule : CliRules()) {
    const std::string names = StrCat(rule.flags, " ", rule.others);
    for (const CliCommand& command : CliCommands()) {
      if (rule.command == nullptr ||
          rule.command != std::string(command.name)) {
        continue;
      }
      for (const std::string& name : SplitAndTrim(names, ' ')) {
        EXPECT_TRUE(Declares(command, name))
            << "rule of " << command.name << " names --" << name;
      }
    }
    for (const std::string& name : SplitAndTrim(names, ' ')) {
      EXPECT_TRUE(read_by_some_command.contains("--" + name)) << name;
    }
  }
}

// No flag is silently ignored: every command rejects every flag it does
// not read, naming the flag and the command, before doing anything.
TEST(CliTest, EveryCommandRejectsFlagsItDoesNotRead) {
  int rejected = 0;
  for (const CliCommand& command : CliCommands()) {
    for (const CliFlag& flag : CliFlags()) {
      if (Declares(command, flag.name)) continue;
      std::vector<std::string> args = FlagArgs(flag.name);
      args.insert(args.begin(), command.name);
      CliResult result = RunTool(args);
      SCOPED_TRACE(Join(args, " "));
      EXPECT_EQ(result.code, 1);
      EXPECT_EQ(result.out, "");
      EXPECT_NE(result.err.find(StrCat("InvalidArgument: ", command.name,
                                       " does not read --", flag.name)),
                std::string::npos)
          << result.err;
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 400);
}

// Each presence rule fires: a flag whose required partner is missing, or
// which is given with an excluded one, fails naming both flags; a command
// missing a flag it requires names itself and the flag. The other flags a
// command requires are given, so that only the rule under test can fire.
TEST(CliTest, EveryPresenceRuleFires) {
  int fired = 0;
  for (const CliRule& rule : CliRules()) {
    for (const CliCommand& command : CliCommands()) {
      if (!CliRuleApplies(rule, command)) continue;
      std::vector<std::string> flags = SplitAndTrim(rule.flags, ' ');
      if (flags.empty()) flags = {""};
      const std::vector<std::string> others = SplitAndTrim(rule.others, ' ');
      std::vector<std::string> partners = {""};
      if (rule.kind == CliRuleKind::kExcludes) partners = others;
      for (const std::string& name : flags) {
        for (const std::string& partner : partners) {
          std::vector<std::string> given = {name, partner};
          for (const CliRule& required : CliRules()) {
            const std::vector<std::string> any_of =
                SplitAndTrim(required.others, ' ');
            if (&required == &rule || *required.flags != '\0' ||
                !CliRuleApplies(required, command) ||
                std::find_first_of(any_of.begin(), any_of.end(),
                                   given.begin(), given.end()) !=
                    any_of.end()) {
              continue;
            }
            given.push_back(any_of.front());
          }
          std::vector<std::string> args = {command.name};
          for (const std::string& flag : given) {
            if (flag.empty()) continue;
            std::vector<std::string> more = FlagArgs(flag);
            args.insert(args.end(), more.begin(), more.end());
          }
          const std::string subject =
              name.empty() ? std::string(command.name) : "--" + name;
          const std::string needle =
              rule.kind == CliRuleKind::kExcludes
                  ? StrCat(subject, " does not apply with --", partner)
                  : StrCat(subject, " requires --", others.front());
          CliResult result = RunTool(args);
          SCOPED_TRACE(Join(args, " "));
          EXPECT_EQ(result.code, 1);
          EXPECT_EQ(result.out, "");
          EXPECT_NE(result.err.find("InvalidArgument: " + needle),
                    std::string::npos)
              << result.err;
          ++fired;
        }
      }
    }
  }
  EXPECT_GT(fired, 40);
}

// Invocations that used to run while ignoring a flag.
TEST(CliTest, RejectsFlagsTheCommandWouldIgnore) {
  const char* kTemplates = "domain N 2\nA(n:N): R[x_$n] W[y_$n]";
  struct Case {
    std::vector<std::string> args;
    const char* needle;
  };
  const Case cases[] = {
      {{"allocate", "--workload", "auction", "--port", "5", "--adapt",
        "--copies", "3"},
       "allocate does not read --port"},
      {{"allocate", "--txns", kWriteSkew, "--alloc", "T1=RC"},
       "allocate does not read --alloc"},
      {{"templates", "--templates", kTemplates, "--witness-dot", "f"},
       "templates does not read --witness-dot"},
      {{"validate", "--txns", kWriteSkew, "--record-schedule", "f"},
       "validate does not read --record-schedule"},
      {{"validate", "--txns", kWriteSkew, "--trace-sample", "1"},
       "validate does not read --trace-sample"},
      {{"census", "--txns", kWriteSkew, "--threads", "4"},
       "census does not read --threads"},
      {{"promote", "--txns", kWriteSkew, "--default", "SSI"},
       "--default requires --target"},
      {{"promote", "--txns", kWriteSkew, "--target", "RC", "--default",
        "SSI"},
       "--default does not apply with --target RC"},
      {{"check", "--txns", kWriteSkew, "--profile-hz", "97"},
       "--profile-hz requires --profile-out or --stats-json"},
      {{"simulate", "--txns", kWriteSkew, "--profile-hz", "97",
        "--trace-out", "f"},
       "--profile-hz requires --profile-out or --stats-json"},
      {{"promote", "--txns", kWriteSkew, "--seed", "3"},
       "--seed requires --validate-runs"},
      {{"promote", "--txns", kWriteSkew, "--concurrency", "8"},
       "--concurrency requires --validate-runs"},
      {{"templates", "--templates", kTemplates, "--seed", "3"},
       "--seed requires --validate-runs"},
      {{"serve", "--txns", kWriteSkew, "--adapt-budget", "2"},
       "--adapt-budget requires --adapt"},
      {{"serve", "--txns", kWriteSkew, "--metrics-interval", "1"},
       "serve does not read --metrics-interval"},
      {{"check", "--txns", kWriteSkew, "--workload", "auction"},
       "--txns does not apply with --workload"},
      {{"check", "--txns", kWriteSkew, "--json", "--json"},
       "--json is given twice"},
      {{"help", "--json"}, "help does not read --json"},
  };
  for (const Case& c : cases) {
    CliResult result = RunTool(c.args);
    SCOPED_TRACE(Join(c.args, " "));
    EXPECT_EQ(result.code, 1);
    EXPECT_EQ(result.out, "");
    EXPECT_NE(result.err.find(c.needle), std::string::npos) << result.err;
  }
  // With their partners the same flags are read.
  CliResult target = RunTool({"promote", "--txns", kWriteSkew, "--target",
                              "T1=SSI", "--default", "SSI"});
  EXPECT_EQ(target.code, 0) << target.err;
  std::string stats_path = ::testing::TempDir() + "/mvrob_profile_stats.json";
  CliResult profiled = RunTool({"check", "--txns", kWriteSkew, "--profile-hz",
                                "97", "--stats-json", stats_path});
  EXPECT_EQ(profiled.code, 0) << profiled.err;
  std::remove(stats_path.c_str());
  // serve reads the samples at /debug/pprof, so the rate alone is read.
  CliResult serve = RunTool({"serve", "--txns", kWriteSkew, "--port", "0",
                             "--profile-hz", "97", "--duration", "1"});
  EXPECT_EQ(serve.code, 0) << serve.err;
}

TEST(CliTest, StatsJsonAndTraceOutAreWritten) {
  std::string stats_path = ::testing::TempDir() + "/mvrob_stats.json";
  std::string trace_path = ::testing::TempDir() + "/mvrob_trace.json";
  CliResult result =
      RunTool({"check", "--txns", kWriteSkew, "--default", "SSI",
               "--stats-json", stats_path, "--trace-out", trace_path});
  EXPECT_EQ(result.code, 0) << result.err;
  // Observability flags never alter the command's stdout.
  EXPECT_NE(result.out.find("robust: yes"), std::string::npos);

  std::ifstream stats(stats_path);
  ASSERT_TRUE(stats.good());
  std::stringstream stats_body;
  stats_body << stats.rdbuf();
  EXPECT_NE(stats_body.str().find("\"analyzer.triples_examined\""),
            std::string::npos);
  EXPECT_NE(stats_body.str().find("\"version\":1"), std::string::npos);

  std::ifstream trace(trace_path);
  ASSERT_TRUE(trace.good());
  std::stringstream trace_body;
  trace_body << trace.rdbuf();
  EXPECT_NE(trace_body.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_body.str().find("\"cli.check\""), std::string::npos);
  std::remove(stats_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(CliTest, StatsJsonCreatesMissingParentDirectories) {
  // A deep, previously nonexistent parent chain is created on demand.
  std::string dir = ::testing::TempDir() + "/mvrob_cli_mkdir/a/b";
  std::string stats_path = dir + "/stats.json";
  CliResult result =
      RunTool({"check", "--txns", kWriteSkew, "--default", "SSI",
               "--stats-json", stats_path});
  EXPECT_EQ(result.code, 0) << result.err;
  std::ifstream stats(stats_path);
  EXPECT_TRUE(stats.good()) << stats_path;
  std::remove(stats_path.c_str());
}

TEST(CliTest, StatsJsonReportsUncreatableParentByName) {
  // /proc rejects mkdir, so parent creation fails — and the error must
  // name the directory it could not create.
  CliResult result =
      RunTool({"check", "--txns", kWriteSkew, "--default", "SSI",
               "--stats-json", "/proc/mvrob-nonexistent/stats.json"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.err.find("cannot create parent directory"),
            std::string::npos)
      << result.err;
  EXPECT_NE(result.err.find("/proc/mvrob-nonexistent"), std::string::npos)
      << result.err;
}

// Reads a file written by a CLI run and deletes it.
std::string Slurp(const std::string& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << "missing " << path;
  std::stringstream body;
  body << file.rdbuf();
  std::remove(path.c_str());
  return body.str();
}

TEST(CliTest, CheckWitnessJsonCarriesProvenance) {
  std::string path = ::testing::TempDir() + "/mvrob_witness.json";
  CliResult result = RunTool(
      {"check", "--txns", kWriteSkew, "--witness-json", path});
  EXPECT_EQ(result.code, 0) << result.err;
  std::string witness = Slurp(path);
  // Every chain edge carries conflict type, operation pair, and the
  // Definition 3.1 condition it discharges.
  EXPECT_NE(witness.find("\"kind\":\"robustness_witness\""),
            std::string::npos);
  EXPECT_NE(witness.find("\"robust\":false"), std::string::npos);
  EXPECT_NE(witness.find("\"conflict\":\"rw\""), std::string::npos);
  EXPECT_NE(witness.find("\"condition\":\"3.1(4)\""), std::string::npos);
  EXPECT_NE(witness.find("\"b\":\"R1[x]\""), std::string::npos);
  EXPECT_NE(witness.find("\"a\":\"W2[x]\""), std::string::npos);
  EXPECT_NE(witness.find("\"split_schedule\""), std::string::npos);
  EXPECT_NE(witness.find("\"verified\":true"), std::string::npos);
}

TEST(CliTest, CheckWitnessDotToStdout) {
  CliResult result =
      RunTool({"check", "--txns", kWriteSkew, "--witness-dot", "-"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("digraph witness"), std::string::npos);
  EXPECT_NE(result.out.find("rw, 3.1(4)"), std::string::npos);
}

TEST(CliTest, AllocateWitnessJsonExplainsObstacles) {
  std::string path = ::testing::TempDir() + "/mvrob_alloc_witness.json";
  CliResult result = RunTool(
      {"allocate", "--txns", kWriteSkew, "--witness-json", path});
  EXPECT_EQ(result.code, 0) << result.err;
  std::string witness = Slurp(path);
  EXPECT_NE(witness.find("\"kind\":\"allocation_witness\""),
            std::string::npos);
  EXPECT_NE(witness.find("\"obstacles\""), std::string::npos);
  EXPECT_NE(witness.find("\"condition\":\"3.1(4)\""), std::string::npos);
}

TEST(CliTest, ShellRewritesWitnessOnChange) {
  std::string path = ::testing::TempDir() + "/mvrob_shell_witness.json";
  std::istringstream script(
      "add T1: R[x] W[y]\n"
      "add T2: R[y] W[x]\n"
      "quit\n");
  std::ostringstream out;
  std::ostringstream err;
  int code = RunCli({"shell", "--witness-json", path}, script, out, err);
  EXPECT_EQ(code, 0) << err.str();
  std::string witness = Slurp(path);
  // After the last add the optimum is T1=SSI T2=SSI with obstacles.
  EXPECT_NE(witness.find("\"kind\":\"allocation_witness\""),
            std::string::npos)
      << witness;
  EXPECT_NE(witness.find("\"obstacles\""), std::string::npos);
}

TEST(CliTest, ValidateCertifiesRoundTrip) {
  CliResult result = RunTool(
      {"validate", "--txns", kWriteSkew, "--runs", "25", "--seed", "3"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("0 disagreements"), std::string::npos);
  EXPECT_NE(result.out.find("allocation robust: no"), std::string::npos);

  CliResult robust =
      RunTool({"validate", "--txns", kWriteSkew, "--default", "SSI",
               "--runs", "25"});
  EXPECT_EQ(robust.code, 0) << robust.err;
  EXPECT_NE(robust.out.find("allocation robust: yes"), std::string::npos);
  EXPECT_NE(robust.out.find("anomalous runs:    0"), std::string::npos);

  EXPECT_EQ(RunTool({"validate", "--txns", kWriteSkew, "--runs", "x"}).code,
            1);
}

TEST(CliTest, SimulateRecordsScheduleAndTrace) {
  std::string schedule_path = ::testing::TempDir() + "/mvrob_rec.txt";
  std::string trace_path = ::testing::TempDir() + "/mvrob_rec_trace.json";
  CliResult result = RunTool(
      {"simulate", "--txns", kWriteSkew, "--runs", "2", "--seed", "5",
       "--record-schedule", schedule_path, "--record-trace", trace_path});
  EXPECT_EQ(result.code, 0) << result.err;
  std::string schedule = Slurp(schedule_path);
  EXPECT_NE(schedule.find("# mvrob recorded schedule v1"),
            std::string::npos);
  EXPECT_NE(schedule.find("objects x y"), std::string::npos);
  EXPECT_NE(schedule.find("begin S1"), std::string::npos);
  std::string trace = Slurp(trace_path);
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("thread_name"), std::string::npos);
}

TEST(CliTest, LogLevelFlagValidation) {
  CliResult bad =
      RunTool({"check", "--txns", kWriteSkew, "--log-level", "bogus"});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("--log-level"), std::string::npos);

  CliResult quiet =
      RunTool({"check", "--txns", kWriteSkew, "--log-level", "off"});
  EXPECT_EQ(quiet.code, 0) << quiet.err;
  // Restore the process-wide default for later tests (the flag mutates
  // the global logger).
  RunTool({"check", "--txns", kWriteSkew, "--log-level", "info"});
}

TEST(CliTest, MetricsIntervalRequiresExportFlag) {
  CliResult missing =
      RunTool({"check", "--txns", kWriteSkew, "--metrics-interval", "1"});
  EXPECT_EQ(missing.code, 1);
  EXPECT_NE(missing.err.find("--metrics-interval"), std::string::npos);

  CliResult bad = RunTool({"check", "--txns", kWriteSkew, "--stats-json",
                           ::testing::TempDir() + "/mvrob_mi.json",
                           "--metrics-interval", "0"});
  EXPECT_EQ(bad.code, 1);
  EXPECT_NE(bad.err.find("--metrics-interval"), std::string::npos);

  std::string stats_path = ::testing::TempDir() + "/mvrob_mi.json";
  CliResult good = RunTool({"check", "--txns", kWriteSkew, "--stats-json",
                            stats_path, "--metrics-interval", "30"});
  EXPECT_EQ(good.code, 0) << good.err;
  EXPECT_NE(Slurp(stats_path).find("\"version\":1"), std::string::npos);
}

TEST(CliTest, ServeRejectsBadFlags) {
  EXPECT_EQ(RunTool({"serve"}).code, 1);  // Needs a workload.
  struct Case {
    std::vector<std::string> args;
    const char* needle;
  };
  const Case cases[] = {
      {{"serve", "--txns", kWriteSkew, "--port", "abc"}, "--port"},
      {{"serve", "--txns", kWriteSkew, "--port", "70000"}, "--port"},
      {{"serve", "--txns", kWriteSkew, "--witness-interval", "0"},
       "--witness-interval"},
      {{"serve", "--txns", kWriteSkew, "--duration", "-1"}, "--duration"},
      {{"serve", "--txns", kWriteSkew, "--window", "0"}, "--window"},
      {{"serve", "--txns", kWriteSkew, "--concurrency", "0"},
       "--concurrency"},
      {{"serve", "--txns", kWriteSkew, "--adapt-interval", "0"},
       "--adapt-interval"},
      {{"serve", "--txns", kWriteSkew, "--adapt-budget", "-1"},
       "--adapt-budget"},
      {{"serve", "--txns", kWriteSkew, "--engine-shards", "0"},
       "--engine-shards"},
      {{"simulate", "--txns", kWriteSkew, "--engine-shards", "abc"},
       "--engine-shards"},
      {{"validate", "--txns", kWriteSkew, "--engine-shards", "-3"},
       "--engine-shards"},
      {{"serve", "--txns", kWriteSkew, "--trace-sample", "0"},
       "--trace-sample"},
      {{"serve", "--txns", kWriteSkew, "--trace-sample", "abc"},
       "--trace-sample"},
      {{"simulate", "--txns", kWriteSkew, "--trace-sample", "0"},
       "--trace-sample"},
  };
  for (const Case& c : cases) {
    CliResult result = RunTool(c.args);
    EXPECT_EQ(result.code, 1) << Join(c.args, " ");
    EXPECT_NE(result.err.find(c.needle), std::string::npos)
        << Join(c.args, " ") << " stderr: " << result.err;
  }
}

TEST(CliTest, RunServeRejectsOutOfRangePortDirectly) {
  // The flag parser already rejects --port 70000; this guards the
  // programmatic path, where an unvalidated int would silently truncate
  // to uint16_t (70000 -> 4464).
  StatusOr<TransactionSet> txns = ParseTransactionSet(kWriteSkew);
  ASSERT_TRUE(txns.ok());
  for (int port : {-1, 65536, 70000}) {
    ServeParams params;
    params.txns = *txns;
    params.alloc = Allocation::AllSSI(txns->size());
    params.port = port;
    std::ostringstream out;
    std::ostringstream err;
    EXPECT_EQ(RunServe(std::move(params), out, err), 1) << port;
    EXPECT_NE(err.str().find("port"), std::string::npos) << err.str();
  }
}

// Polls `path` until it holds a port number; "" on timeout.
std::string WaitForPortFile(const std::string& path) {
  for (int i = 0; i < 400; ++i) {
    std::ifstream file(path);
    std::string port;
    if (file.good() && std::getline(file, port) && !port.empty()) {
      return port;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return "";
}

TEST(CliTest, ServeExposesTelemetryAndShutsDownOnSigterm) {
  std::string port_path = ::testing::TempDir() + "/mvrob_serve_port";
  std::remove(port_path.c_str());

  // --duration is only a backstop; the test ends the server via SIGTERM.
  std::ostringstream out;
  std::ostringstream err;
  int code = -1;
  std::thread serve_thread([&] {
    code = RunCli({"serve", "--txns", kWriteSkew, "--default", "SSI",
                   "--port-file", port_path, "--witness-interval", "1",
                   "--duration", "60"},
                  out, err);
  });

  std::string port_text = WaitForPortFile(port_path);
  ASSERT_FALSE(port_text.empty()) << "server never published its port";
  int port = std::stoi(port_text);

  StatusOr<HttpResponse> health = HttpGet("127.0.0.1", port, "/healthz");
  ASSERT_TRUE(health.ok()) << health.status().ToString();
  EXPECT_EQ(health->status, 200);
  EXPECT_EQ(health->content_type, "application/json");
  EXPECT_NE(health->body.find("\"status\":\"ok\""), std::string::npos)
      << health->body;
  EXPECT_NE(health->body.find("\"git_describe\""), std::string::npos);
  EXPECT_NE(health->body.find("\"compiler\""), std::string::npos);
  EXPECT_NE(health->body.find("\"sanitizer\""), std::string::npos);

  StatusOr<HttpResponse> index = HttpGet("127.0.0.1", port, "/");
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  EXPECT_EQ(index->status, 200);
  for (const char* endpoint :
       {"/healthz", "/metrics", "/snapshot", "/witness", "/allocation",
        "/trace", "/debug/pprof", "/debug/stacks"}) {
    EXPECT_NE(index->body.find(endpoint), std::string::npos) << endpoint;
  }

  StatusOr<HttpResponse> stacks = HttpGet("127.0.0.1", port, "/debug/stacks");
  ASSERT_TRUE(stacks.ok()) << stacks.status().ToString();
  EXPECT_EQ(stacks->status, 200);
  EXPECT_NE(stacks->body.find("role=serve.driver"), std::string::npos)
      << stacks->body;
  EXPECT_NE(stacks->body.find("role=serve.witness"), std::string::npos);

  StatusOr<HttpResponse> metrics = HttpGet("127.0.0.1", port, "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->content_type.find("version=0.0.4"), std::string::npos);
  // The live per-level series are pre-registered, so they are present
  // (possibly still 0) from the first scrape.
  EXPECT_NE(metrics->body.find("mvrob_mvcc_live_commits_total"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("# TYPE"), std::string::npos);

  StatusOr<HttpResponse> snapshot = HttpGet("127.0.0.1", port, "/snapshot");
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ(snapshot->status, 200);
  EXPECT_EQ(snapshot->content_type, "application/json");
  EXPECT_NE(snapshot->body.find("\"windowed_counters\""), std::string::npos);

  // The first robustness check runs immediately; poll briefly for it.
  StatusOr<HttpResponse> witness = HttpGet("127.0.0.1", port, "/witness");
  for (int i = 0; i < 200 && witness.ok() && witness->status == 503; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    witness = HttpGet("127.0.0.1", port, "/witness");
  }
  ASSERT_TRUE(witness.ok()) << witness.status().ToString();
  EXPECT_EQ(witness->status, 200);
  EXPECT_NE(witness->body.find("\"robust\":true"), std::string::npos);
  EXPECT_NE(witness->body.find("\"checked_at_us\""), std::string::npos);

  // Without --adapt, /allocation reports the static pair at generation 0.
  StatusOr<HttpResponse> allocation =
      HttpGet("127.0.0.1", port, "/allocation");
  ASSERT_TRUE(allocation.ok()) << allocation.status().ToString();
  EXPECT_EQ(allocation->status, 200);
  EXPECT_EQ(allocation->content_type, "application/json");
  EXPECT_NE(allocation->body.find("\"adapt\":false"), std::string::npos);
  EXPECT_NE(allocation->body.find("\"generation\":0"), std::string::npos);
  EXPECT_NE(allocation->body.find("\"allocation_text\":\"T1=SSI T2=SSI\""),
            std::string::npos);

  // Without --trace-sample, /trace names the flag that would enable it.
  StatusOr<HttpResponse> trace = HttpGet("127.0.0.1", port, "/trace");
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace->status, 404);
  EXPECT_NE(trace->body.find("--trace-sample"), std::string::npos);

  StatusOr<HttpResponse> missing = HttpGet("127.0.0.1", port, "/nope");
  ASSERT_TRUE(missing.ok()) << missing.status().ToString();
  EXPECT_EQ(missing->status, 404);

  // SIGTERM → clean shutdown with exit code 0.
  raise(SIGTERM);
  serve_thread.join();
  EXPECT_EQ(code, 0) << err.str();
  EXPECT_NE(out.str().find("serving on http://127.0.0.1:"),
            std::string::npos);
  EXPECT_NE(out.str().find("shutdown"), std::string::npos);
  std::remove(port_path.c_str());
}

TEST(CliTest, ServeProfilerFeedsPprofAndWatchdogStaysQuiet) {
  std::string port_path = ::testing::TempDir() + "/mvrob_profile_port";
  std::string profile_path = ::testing::TempDir() + "/mvrob_profile.folded";
  std::remove(port_path.c_str());
  std::remove(profile_path.c_str());

  std::ostringstream out;
  std::ostringstream err;
  int code = -1;
  std::thread serve_thread([&] {
    code = RunCli({"serve", "--txns", kWriteSkew, "--default", "SSI",
                   "--port-file", port_path, "--witness-interval", "1",
                   "--profile-hz", "97", "--profile-out", profile_path,
                   "--duration", "60"},
                  out, err);
  });

  std::string port_text = WaitForPortFile(port_path);
  ASSERT_FALSE(port_text.empty()) << "server never published its port";
  int port = std::stoi(port_text);

  // Cumulative /debug/pprof (profiler live, no window): poll until the
  // sampler attributes work to the engine-driver thread.
  StatusOr<HttpResponse> pprof = HttpGet("127.0.0.1", port, "/debug/pprof");
  for (int i = 0; i < 400; ++i) {
    if (pprof.ok() && pprof->status == 200 &&
        pprof->body.find("serve.driver;") != std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    pprof = HttpGet("127.0.0.1", port, "/debug/pprof");
  }
  ASSERT_TRUE(pprof.ok()) << pprof.status().ToString();
  EXPECT_EQ(pprof->status, 200);
  ASSERT_NE(pprof->body.find("serve.driver;"), std::string::npos)
      << "no samples attributed to the engine driver:\n"
      << pprof->body.substr(0, 2000);

  // Windowed view: a short seconds= query returns a (possibly smaller)
  // well-formed folded profile without wedging the serve loop.
  StatusOr<HttpResponse> window =
      HttpGet("127.0.0.1", port, "/debug/pprof?seconds=1", /*timeout_ms=*/15'000);
  ASSERT_TRUE(window.ok()) << window.status().ToString();
  EXPECT_EQ(window->status, 200);

  // A healthy serve never trips the watchdog: no stall series exists.
  StatusOr<HttpResponse> metrics = HttpGet("127.0.0.1", port, "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_EQ(metrics->body.find("mvrob_watchdog_stalls_total"),
            std::string::npos)
      << "watchdog fired during a healthy serve";
  // The profiler's own series are exported.
  EXPECT_NE(metrics->body.find("mvrob_profile_samples_total"),
            std::string::npos);

  raise(SIGTERM);
  serve_thread.join();
  EXPECT_EQ(code, 0) << err.str();

  // --profile-out: aggregate folded stacks exported on clean shutdown.
  std::string folded = Slurp(profile_path);
  EXPECT_NE(folded.find("serve.driver;"), std::string::npos)
      << folded.substr(0, 2000);
  std::remove(port_path.c_str());
}

TEST(CliTest, VersionPrintsBuildInfo) {
  CliResult result = RunTool({"version"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_EQ(result.out.rfind("mvrob ", 0), 0u) << result.out;
  EXPECT_NE(result.out.find("compiler:"), std::string::npos);
  EXPECT_NE(result.out.find("build_type:"), std::string::npos);
  EXPECT_NE(result.out.find("sanitizer:"), std::string::npos);
}

TEST(CliTest, ProfileFlagsOnABatchCommand) {
  // --profile-out alone implies the default rate and writes the folded
  // aggregate when the command finishes (possibly empty on a fast run,
  // but the file must exist).
  std::string profile_path = ::testing::TempDir() + "/mvrob_check.folded";
  std::remove(profile_path.c_str());
  CliResult result =
      RunTool({"check", "--txns", kWriteSkew, "--default", "SSI",
               "--profile-out", profile_path});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("robust: yes"), std::string::npos);
  std::ifstream profile(profile_path);
  EXPECT_TRUE(profile.good()) << profile_path;
  std::remove(profile_path.c_str());

  // Junk rates are rejected with the flag named.
  CliResult junk = RunTool({"check", "--txns", kWriteSkew, "--default",
                            "SSI", "--profile-hz", "abc"});
  EXPECT_EQ(junk.code, 1);
  EXPECT_NE(junk.err.find("--profile-hz"), std::string::npos);
  CliResult range = RunTool({"check", "--txns", kWriteSkew, "--default",
                             "SSI", "--profile-hz", "5000"});
  EXPECT_EQ(range.code, 1);
  EXPECT_NE(range.err.find("--profile-hz"), std::string::npos);
}

TEST(CliTest, ServeTraceEndpointAttributesAbortsAndExportsOnShutdown) {
  // A single hot object under SI: every concurrent writer but the first
  // updater aborts, so /trace fills with attributed abort spans quickly.
  const char* kHot = "T1: R[x] W[x]\nT2: R[x] W[x]\nT3: R[x] W[x]";
  std::string port_path = ::testing::TempDir() + "/mvrob_trace_port";
  std::string stats_path = ::testing::TempDir() + "/mvrob_trace_stats.json";
  std::string trace_path = ::testing::TempDir() + "/mvrob_trace_out.json";
  std::remove(port_path.c_str());
  std::remove(stats_path.c_str());
  std::remove(trace_path.c_str());

  std::ostringstream out;
  std::ostringstream err;
  int code = -1;
  std::thread serve_thread([&] {
    code = RunCli({"serve", "--txns", kHot, "--default", "SI",
                   "--port-file", port_path, "--concurrency", "8",
                   "--trace-sample", "1", "--stats-json", stats_path,
                   "--trace-out", trace_path, "--duration", "60"},
                  out, err);
  });

  std::string port_text = WaitForPortFile(port_path);
  ASSERT_FALSE(port_text.empty()) << "server never published its port";
  int port = std::stoi(port_text);

  // Poll /trace until an abort span carries a causal attribution naming
  // the conflicting transaction.
  StatusOr<HttpResponse> trace = HttpGet("127.0.0.1", port, "/trace");
  for (int i = 0; i < 400; ++i) {
    if (trace.ok() && trace->status == 200 &&
        trace->body.find("\"attribution\"") != std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    trace = HttpGet("127.0.0.1", port, "/trace");
  }
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_EQ(trace->status, 200);
  EXPECT_EQ(trace->content_type, "application/json");
  const std::string& body = trace->body;
  EXPECT_NE(body.find("\"version\":1"), std::string::npos);
  EXPECT_NE(body.find("\"sample_every_n\":1"), std::string::npos);
  ASSERT_NE(body.find("\"attribution\""), std::string::npos)
      << "no attributed abort span in /trace: " << body.substr(0, 2000);
  EXPECT_NE(body.find("\"conflicting\":\"T"), std::string::npos) << body;
  EXPECT_NE(body.find("\"cause\":\"first_updater_wins\""), std::string::npos);
  EXPECT_NE(body.find("\"type\":\"ww\""), std::string::npos);
  EXPECT_NE(body.find("\"object\":\"x\""), std::string::npos);

  // The trace.* counter family rides the Prometheus exposition.
  StatusOr<HttpResponse> metrics = HttpGet("127.0.0.1", port, "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->body.find("mvrob_trace_flows_sampled_total"),
            std::string::npos);
  EXPECT_NE(
      metrics->body.find("mvrob_trace_aborts_attributed_total{type=\"ww\"}"),
      std::string::npos);

  // SIGTERM → clean shutdown, which writes the export files exactly once.
  raise(SIGTERM);
  serve_thread.join();
  EXPECT_EQ(code, 0) << err.str();

  const std::string stats = Slurp(stats_path);
  EXPECT_NE(stats.find("\"trace.flows_sampled\""), std::string::npos)
      << stats_path << " missing or stale: " << stats.substr(0, 400);
  const std::string chrome = Slurp(trace_path);
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  // Sampled attempt spans are merged in with their attribution args.
  EXPECT_NE(chrome.find("\"cat\":\"txn\""), std::string::npos);
  EXPECT_NE(chrome.find("\"conflict_cause\":\"first_updater_wins\""),
            std::string::npos);
  std::remove(port_path.c_str());
  std::remove(stats_path.c_str());
  std::remove(trace_path.c_str());
}

TEST(CliTest, SimulateTraceSampleMergesTxnSpansIntoTraceOut) {
  const char* kHot = "T1: R[x] W[x]\nT2: R[x] W[x]\nT3: R[x] W[x]";
  std::string trace_path = ::testing::TempDir() + "/mvrob_sim_trace.json";
  std::remove(trace_path.c_str());
  CliResult result =
      RunTool({"simulate", "--txns", kHot, "--runs", "5", "--concurrency",
               "8", "--trace-sample", "1", "--trace-out", trace_path});
  EXPECT_EQ(result.code, 0) << result.err;
  const std::string chrome = Slurp(trace_path);
  // Phase spans (cat mvrob) and txn attempt spans (cat txn) share one
  // traceEvents array.
  EXPECT_NE(chrome.find("\"cat\":\"mvrob\""), std::string::npos);
  EXPECT_NE(chrome.find("\"cat\":\"txn\""), std::string::npos);
  EXPECT_NE(chrome.find("\"flow_id\""), std::string::npos);
  EXPECT_NE(chrome.find("\"conflict_cause\":\"first_updater_wins\""),
            std::string::npos);
  std::remove(trace_path.c_str());
}

TEST(CliTest, ServeAdaptReallocatesRobustlyAndShutsDownOnSigterm) {
  // Started deliberately away from the optimum (--default SSI while
  // Algorithm 2 yields T1=SI T2=SI T3=RC), so the controller's first
  // decision must install a swap.
  const char* kShifted = "T1: R[x] W[x]\nT2: R[x] W[x]\nT3: R[q]";
  std::string port_path = ::testing::TempDir() + "/mvrob_adapt_port";
  std::remove(port_path.c_str());

  std::ostringstream out;
  std::ostringstream err;
  int code = -1;
  std::thread serve_thread([&] {
    code = RunCli({"serve", "--txns", kShifted, "--default", "SSI",
                   "--port-file", port_path, "--adapt", "--adapt-interval",
                   "1", "--witness-interval", "1", "--duration", "60"},
                  out, err);
  });

  std::string port_text = WaitForPortFile(port_path);
  ASSERT_FALSE(port_text.empty()) << "server never published its port";
  int port = std::stoi(port_text);

  // Probe /allocation until the controller has installed a decision.
  StatusOr<HttpResponse> allocation =
      HttpGet("127.0.0.1", port, "/allocation");
  for (int i = 0; i < 400; ++i) {
    if (allocation.ok() && allocation->status == 200 &&
        allocation->body.find("\"installed\":true") != std::string::npos) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
    allocation = HttpGet("127.0.0.1", port, "/allocation");
  }
  ASSERT_TRUE(allocation.ok()) << allocation.status().ToString();
  const std::string& body = allocation->body;
  ASSERT_NE(body.find("\"installed\":true"), std::string::npos)
      << "controller never installed a decision: " << body;
  EXPECT_NE(body.find("\"adapt\":true"), std::string::npos);
  EXPECT_EQ(body.find("\"swaps\":0"), std::string::npos);

  // Re-check the installed allocation through the library: every swap
  // must be robust. --adapt-budget defaults to 0, so the workload is the
  // base one and the reported text parses against it.
  const std::string text_key = "\"allocation_text\":\"";
  size_t begin = body.find(text_key);
  ASSERT_NE(begin, std::string::npos) << body;
  begin += text_key.size();
  const size_t end = body.find('"', begin);
  ASSERT_NE(end, std::string::npos);
  const std::string alloc_text = body.substr(begin, end - begin);
  StatusOr<TransactionSet> txns = ParseTransactionSet(kShifted);
  ASSERT_TRUE(txns.ok());
  StatusOr<Allocation> installed =
      ParseAllocation(*txns, alloc_text, IsolationLevel::kSSI);
  ASSERT_TRUE(installed.ok()) << alloc_text;
  EXPECT_TRUE(CheckRobustness(*txns, *installed).robust) << alloc_text;
  // And it moved off the all-SSI start.
  EXPECT_NE(*installed, Allocation::AllSSI(txns->size())) << alloc_text;

  // The decision shows up on the Prometheus exposition.
  StatusOr<HttpResponse> metrics = HttpGet("127.0.0.1", port, "/metrics");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics->body.find("mvrob_adapt_decisions_total"),
            std::string::npos);
  EXPECT_EQ(metrics->body.find("mvrob_adapt_decisions_total 0\n"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("mvrob_adapt_weight{level=\"SI\"}"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("mvrob_adapt_allocation{level=\"RC\"} 1"),
            std::string::npos);

  // SIGTERM lands while the controller keeps deciding every second; the
  // cancel hook must let it exit cleanly mid-cycle.
  raise(SIGTERM);
  serve_thread.join();
  EXPECT_EQ(code, 0) << err.str();
  EXPECT_NE(out.str().find("shutdown"), std::string::npos);
  std::remove(port_path.c_str());
}

TEST(CliTest, TemplatesAllocates) {
  CliResult result = RunTool({"templates", "--templates", R"(
    domain N 2
    CheckX(n:N): R[x_$n] W[y_$n]
    CheckY(n:N): R[y_$n] W[x_$n]
  )"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("CheckX=SSI CheckY=SSI"), std::string::npos);
  EXPECT_EQ(RunTool({"templates"}).code, 1);
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream file(path);
  std::ostringstream body;
  body << file.rdbuf();
  return body.str();
}

// The documented constraint showcase (docs/templates.md, tools/ci.sh).
constexpr const char* kShowcaseTemplates = R"(version 2
domain D 3
Audit(lo:D, hi:D): R[item_$lo..$hi]
Move(src:D, dst:D): R[item_$src] W[item_$dst]
constraint Move: src == dst
)";

// The "DSL in one block" example of docs/templates.md: six function worlds.
constexpr const char* kOneBlockTemplates = R"(version 2
domain D 3
domain B 3
function owner D B injective

Audit(lo:D, hi:D): R[item_$lo..$hi]
Move(src:D, dst:D): R[item_$src] W[item_$dst]
Tag(x:D, y:B): R[cfg_*B] W[label_$y]

constraint Move: src == dst
constraint Tag: y = owner(x)
)";

// Write skew under a functional constraint: not {RC, SI}-allocatable, and
// the witness names the function world it lives in.
constexpr const char* kSkewTemplates = R"(version 2
domain D 2
function f D D
X(a:D, b:D): R[x_$a] W[y_$b]
Y(a:D, b:D): R[y_$a] W[x_$b]
constraint X: b = f(a)
)";

// Golden files pin `templates` stdout, exit code and witness JSON, and the
// --trace-out layout. They are regenerated with
//   MVROB_UPDATE_GOLDEN=1 ./cli_test \
//     --gtest_filter='CliTemplateGoldenTest.*:CliTest.TraceOutBytesArePinned'
void CompareGolden(const std::string& name, const std::string& actual) {
  const std::string path = std::string(MVROB_GOLDEN_DIR) + "/" + name;
  if (std::getenv("MVROB_UPDATE_GOLDEN") != nullptr) {
    std::ofstream file(path);
    ASSERT_TRUE(file.good()) << "cannot write " << path;
    file << actual;
    return;
  }
  std::ifstream file(path);
  ASSERT_TRUE(file.good()) << "missing golden file " << path;
  std::ostringstream expected;
  expected << file.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << "golden mismatch for " << name
      << " — regenerate with MVROB_UPDATE_GOLDEN=1 if the change is intended";
}

void ExpectTemplatesGolden(const std::string& name, const char* templates,
                           std::vector<std::string> flags) {
  const std::string json_path =
      ::testing::TempDir() + "/mvrob_templates_" + name + ".json";
  std::remove(json_path.c_str());
  std::vector<std::string> args = {"templates", "--templates", templates,
                                   "--witness-json", json_path};
  args.insert(args.end(), flags.begin(), flags.end());
  CliResult result = RunTool(args);
  EXPECT_EQ(result.err, "");
  CompareGolden("templates_" + name + ".txt",
                StrCat("exit ", result.code, "\n", result.out));
  CompareGolden("templates_" + name + ".witness.json",
                ReadFileOrEmpty(json_path));
  std::remove(json_path.c_str());
}

TEST(CliTemplateGoldenTest, Showcase) {
  ExpectTemplatesGolden("showcase", kShowcaseTemplates, {});
}

TEST(CliTemplateGoldenTest, ShowcaseWithoutConstraints) {
  ExpectTemplatesGolden("showcase_no_constraints", kShowcaseTemplates,
                        {"--no-constraints"});
}

TEST(CliTemplateGoldenTest, OneBlockExplainPromoteValidate) {
  ExpectTemplatesGolden("one_block", kOneBlockTemplates,
                        {"--explain", "--promote", "--validate-runs", "3",
                         "--seed", "7"});
}

TEST(CliTemplateGoldenTest, RcSiFeasible) {
  ExpectTemplatesGolden("rcsi_feasible", kOneBlockTemplates, {"--rcsi"});
}

TEST(CliTemplateGoldenTest, RcSiInfeasibleNamesTheWorld) {
  ExpectTemplatesGolden("rcsi_infeasible", kSkewTemplates, {"--rcsi"});
}

uint64_t g_trace_clock_us = 0;
uint64_t TraceClock() { return g_trace_clock_us += 5; }

// The --trace-out file, with the registry spans' clock-dependent "ts" and
// "tid" values masked (the tracer's spans run on a fixed clock).
std::string MaskedTraceOut(const MetricsRegistry& registry,
                           const TxnTracer* tracer) {
  const std::string path = ::testing::TempDir() + "/mvrob_trace_pin.json";
  Status written = ExportMetricsFiles(registry, "", path, tracer);
  EXPECT_TRUE(written.ok()) << written;
  std::string trace = ReadFileOrEmpty(path);
  std::remove(path.c_str());
  trace = std::regex_replace(trace, std::regex("\"ts\":[0-9]+"), "\"ts\":T");
  return std::regex_replace(trace, std::regex("\"tid\":[0-9]+"),
                            "\"tid\":N");
}

// --trace-out files are pinned byte for byte (up to span timestamps and
// thread ids): phase spans alone, and phase spans merged with sampled
// transaction spans.
TEST(CliTest, TraceOutBytesArePinned) {
  MetricsRegistry registry;
  const auto begin = std::chrono::steady_clock::now();
  registry.RecordSpan("cli.check", begin, begin + std::chrono::microseconds(9));
  registry.RecordSpan("analyzer.triple_scan", begin,
                      begin + std::chrono::microseconds(4));
  CompareGolden("trace_out_spans.json", MaskedTraceOut(registry, nullptr));

  TransactionSet txns = *ParseTransactionSet("T1: R[x] W[x]\nT2: W[x]");
  TxnTracerOptions options;
  options.clock_us = &TraceClock;
  TxnTracer tracer(options);
  tracer.BeginRun(txns);
  const uint64_t flow = tracer.StartFlow(0, IsolationLevel::kSI);
  tracer.BeginAttempt(flow, 1, 0, IsolationLevel::kSI);
  tracer.OnRead(flow, 0);
  tracer.EndAttempt(flow, false, AbortReason::kWriteConflict);
  tracer.BeginAttempt(flow, 2, 0, IsolationLevel::kSI);
  tracer.OnRead(flow, 0);
  tracer.OnWrite(flow, 0);
  tracer.EndAttempt(flow, true, AbortReason::kNone);
  tracer.EndFlow(flow, true);
  CompareGolden("trace_out_merged.json", MaskedTraceOut(registry, &tracer));
}

// `templates` runs its checks with the CLI's CheckOptions: --stats-json
// records the analyzer and allocation counters, and --threads never
// changes the output.
TEST(CliTest, TemplatesHonorThreadsAndStatsJson) {
  const std::string stats_path =
      ::testing::TempDir() + "/mvrob_templates_stats.json";
  std::remove(stats_path.c_str());
  CliResult one = RunTool({"templates", "--templates", kOneBlockTemplates,
                           "--explain", "--promote", "--threads", "1"});
  CliResult four = RunTool({"templates", "--templates", kOneBlockTemplates,
                            "--explain", "--promote", "--threads", "4",
                            "--stats-json", stats_path});
  ASSERT_EQ(one.code, 0) << one.err;
  ASSERT_EQ(four.code, 0) << four.err;
  EXPECT_EQ(one.out, four.out);

  const std::string stats = ReadFileOrEmpty(stats_path);
  std::smatch checks;
  ASSERT_TRUE(std::regex_search(
      stats, checks, std::regex("\"analyzer\\.checks\":([0-9]+)")))
      << stats;
  EXPECT_GT(std::stoull(checks[1].str()), 0u);
  EXPECT_NE(stats.find("\"allocation.robustness_checks\""), std::string::npos)
      << stats;
  std::remove(stats_path.c_str());
}

// The --rcsi box's witness JSON counts the analysis's function worlds and
// the box's robustness checks, as the free box's does.
TEST(CliTest, TemplatesRcSiWitnessCountsWorldsAndChecks) {
  const std::string json_path =
      ::testing::TempDir() + "/mvrob_templates_rcsi_counts.json";
  std::remove(json_path.c_str());
  CliResult result = RunTool({"templates", "--templates", kSkewTemplates,
                              "--rcsi", "--witness-json", json_path});
  EXPECT_EQ(result.code, 1) << result.err;
  const std::string json = ReadFileOrEmpty(json_path);
  EXPECT_NE(json.find("\"worlds\":4,"), std::string::npos) << json;
  std::smatch checks;
  ASSERT_TRUE(std::regex_search(
      json, checks, std::regex("\"robustness_checks\":([0-9]+)")))
      << json;
  EXPECT_GT(std::stoull(checks[1].str()), 0u);
  std::remove(json_path.c_str());
}

// `shell` and `simulate` run their robustness checks with the CLI's
// CheckOptions: --threads reaches the analyzer (pool work in --stats-json)
// and never changes the output.
TEST(CliTest, ShellAndSimulateHonorThreads) {
  const std::string stats_path =
      ::testing::TempDir() + "/mvrob_threads_stats.json";
  const std::string witness_path =
      ::testing::TempDir() + "/mvrob_threads_witness.json";
  auto shell = [&](const char* threads) {
    std::istringstream script("add T1: R[x] W[y]\nadd T2: R[y] W[x]\nquit\n");
    std::ostringstream out;
    std::ostringstream err;
    int code = RunCli({"shell", "--threads", threads, "--witness-json",
                       witness_path, "--stats-json", stats_path},
                      script, out, err);
    EXPECT_EQ(code, 0) << err.str();
    return out.str();
  };
  auto simulate = [&](const char* threads) {
    CliResult result =
        RunTool({"simulate", "--txns", kWriteSkew, "--runs", "3", "--seed",
                 "5", "--threads", threads, "--stats-json", stats_path});
    EXPECT_EQ(result.code, 0) << result.err;
    return result.out;
  };
  auto expect_threads_honored = [&](auto run) {
    std::remove(stats_path.c_str());
    const std::string one = run("1");
    EXPECT_EQ(ReadFileOrEmpty(stats_path).find("\"pool.jobs\""),
              std::string::npos);
    const std::string four = run("4");
    EXPECT_EQ(one, four);
    const std::string stats = ReadFileOrEmpty(stats_path);
    EXPECT_NE(stats.find("\"pool.jobs\""), std::string::npos) << stats;
    EXPECT_NE(stats.find("\"analyzer.checks\""), std::string::npos)
        << stats;
  };
  {
    SCOPED_TRACE("shell");
    expect_threads_honored(shell);
  }
  {
    SCOPED_TRACE("simulate");
    expect_threads_honored(simulate);
  }
  std::remove(stats_path.c_str());
  std::remove(witness_path.c_str());
}

}  // namespace
}  // namespace mvrob
