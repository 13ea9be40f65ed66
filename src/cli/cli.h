#ifndef MVROB_CLI_CLI_H_
#define MVROB_CLI_CLI_H_

#include <istream>
#include <ostream>
#include <span>
#include <string>
#include <vector>

namespace mvrob {

/// One command-line flag: its name without the leading "--", and whether a
/// value follows it (false for boolean switches).
struct CliFlag {
  const char* name;
  bool takes_value;
};

/// Every flag RunCli accepts, in `mvrob --help` order. Any other --flag is
/// an error.
std::span<const CliFlag> CliFlags();

/// Entry point of the `mvrob` command-line tool, exposed as a library so
/// tests can drive it. `args` excludes the program name. Returns the
/// process exit code (0 = success; robustness verdicts are output, not
/// exit codes).
///
/// Commands:
///   check    --txns <text|@file> [--alloc <spec>] [--default <level>]
///   allocate --txns <text|@file> [--rcsi] [--explain]
///   explore  --txns <text|@file> --schedule <text> [--alloc <spec>]
///            [--default <level>] [--dot] [--timeline]
///   census   --txns <text|@file> [--alloc <spec>] [--default <level>]
///            [--max <interleavings>]
///   templates --templates <text|@file>
///   help
///
/// `--txns`/`--templates` accept the inline DSL or `@path` to read a file;
/// `--alloc` uses "T1=RC T2=SI" syntax with `--default` (SI if omitted)
/// for unmentioned transactions.
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

/// Variant supplying the input stream used by the interactive `shell`
/// command (the two-stream overload connects it to std::cin).
int RunCli(const std::vector<std::string>& args, std::istream& in,
           std::ostream& out, std::ostream& err);

}  // namespace mvrob

#endif  // MVROB_CLI_CLI_H_
