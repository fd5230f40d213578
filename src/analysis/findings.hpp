#pragma once

// Structured results of the static analysis passes: the schedule verifier
// (verify.hpp, reached from check_schedule) and the graph check. Each
// finding names the rule that fired, where it fired and why; callers decide
// whether errors are fatal (sched::compile aborts on them, slimpipe_lint
// reports them and sets the exit code).

#include <string>
#include <vector>

namespace slim::analysis {

enum class Severity : int { Note = 0, Warning = 1, Error = 2 };

const char* severity_name(Severity severity);

struct Finding {
  Severity severity = Severity::Error;
  std::string rule_id;   // stable identifier, e.g. "verify-deadlock"
  std::string location;  // "dev 2 pass 17" / "op 134 (dev 1 mb 3 ...)"
  std::string message;   // what invariant broke and how
};

/// True when any finding has Error severity.
bool has_errors(const std::vector<Finding>& findings);

/// Number of findings at exactly `severity`.
std::size_t count(const std::vector<Finding>& findings, Severity severity);

/// True when some finding carries `rule_id` (test helper).
bool has_rule(const std::vector<Finding>& findings, const std::string& rule_id);

/// Renders the findings as an aligned table (via util::table).
std::string render(const std::vector<Finding>& findings);

/// One line: "<n> findings (<e> errors, <w> warnings)" or "clean".
std::string summary(const std::vector<Finding>& findings);

}  // namespace slim::analysis
