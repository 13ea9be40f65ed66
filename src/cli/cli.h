#ifndef MVROB_CLI_CLI_H_
#define MVROB_CLI_CLI_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace mvrob {

/// The value a flag takes.
enum class CliFlagKind { kSwitch, kText, kInt, kUint64 };

/// One row of the flag table. Each flag is described once here; every
/// command that declares it parses it against this row.
struct CliFlag {
  const char* name;   // Without the leading "--".
  CliFlagKind kind;
  const char* value;  // Placeholder in `mvrob help`, e.g. "<n>".
  int64_t min;        // Numeric range; kUint64 checks `min` only.
  int64_t max;
  const char* help;   // Lines separated by '\n'.

  bool takes_value() const { return kind != CliFlagKind::kSwitch; }
};

/// A command's validated flags and streams, built by RunCli (cli.cc).
struct CliInvocation;

/// One row of the command table.
struct CliCommand {
  const char* name;
  const char* summary;  // Lines separated by '\n'.
  const char* flags;    // The flags the command reads, space separated.
  /// Also reads the run flags (--stats-json, --trace-out,
  /// --metrics-interval, --log-level, --profile-hz, --profile-out), which
  /// RunCli handles around the command. serve lists its own.
  bool run_flags;
  int (*run)(const CliInvocation& cli);
};

enum class CliRuleKind { kRequires, kExcludes };

/// A presence rule of one command (`command` nullptr: of every command
/// that reads all the flags it names). When a flag of `flags` is given, at
/// least one of `others` must be given too (kRequires), or none of them
/// may be (kExcludes); a kRequires rule without `flags` always requires
/// one of `others`. Both lists are space separated.
struct CliRule {
  const char* command;
  const char* flags;
  CliRuleKind kind;
  const char* others;
};

/// The flag table, in `mvrob help` order.
std::span<const CliFlag> CliFlags();
/// The command table, in `mvrob help` order.
std::span<const CliCommand> CliCommands();
/// The presence rules, checked after every flag of an invocation parsed.
std::span<const CliRule> CliRules();
/// The flags `command` reads: its own list, then the run flags if it reads
/// them. Parsing rejects every other flag.
std::vector<std::string> DeclaredFlags(const CliCommand& command);
/// Whether `rule` holds for invocations of `command`.
bool CliRuleApplies(const CliRule& rule, const CliCommand& command);

/// Entry point of the `mvrob` command-line tool, exposed as a library so
/// tests can drive it. `args` excludes the program name. Returns the
/// process exit code (0 = success; robustness verdicts are output, not
/// exit codes). The commands and the flags each reads are the tables
/// above; `mvrob help` prints them.
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

/// Variant supplying the input stream used by the interactive `shell`
/// command (the two-stream overload connects it to std::cin).
int RunCli(const std::vector<std::string>& args, std::istream& in,
           std::ostream& out, std::ostream& err);

}  // namespace mvrob

#endif  // MVROB_CLI_CLI_H_
