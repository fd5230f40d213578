// slimpipe_report — render, validate and diff slimpipe-bench-report files.
//
//   slimpipe_report results/bench_fig7_imbalance.json
//       pretty-prints the report (series tables + run summary)
//
//   slimpipe_report --diff old.json new.json
//       cell-wise comparison of two reports: changed cells show
//       "a -> b (+x.x%)" for numeric values, run metrics are diffed
//       metric-by-metric
//
//   slimpipe_report --validate FILE...
//       structural schema check; exits non-zero and lists every issue when
//       a file does not conform

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/obs/json.hpp"
#include "src/obs/report.hpp"

using namespace slim;

namespace {

void usage() {
  std::printf(R"(usage: slimpipe_report FILE
       slimpipe_report --diff FILE_A FILE_B
       slimpipe_report --validate FILE...

Renders, diffs or schema-checks slimpipe-bench-report JSON files (written
by the bench binaries and slimpipe_sim --json).
)");
}

bool load_or_fail(const std::string& path, obs::BenchReport* out) {
  std::string error;
  if (!obs::load_report(path, out, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());  // the error names the path
    return false;
  }
  return true;
}

int validate_files(const std::vector<std::string>& paths) {
  int bad = 0;
  for (const auto& path : paths) {
    // Check the document as written: a decoded and re-encoded copy would
    // carry this build's schema and version, and defaults for every
    // missing member.
    obs::JsonValue doc;
    std::string error;
    if (!obs::load_json(path, &doc, &error)) {
      std::fprintf(stderr, "%s\n", error.c_str());
      ++bad;
      continue;
    }
    std::vector<std::string> issues = obs::validate_report(doc);
    obs::BenchReport report;
    if (!obs::report_from_json(doc, &report)) {
      issues.push_back("a member has the wrong type for a bench report");
    }
    if (issues.empty()) {
      std::printf("%s: ok\n", path.c_str());
    } else {
      ++bad;
      std::printf("%s: %zu issue(s)\n", path.c_str(), issues.size());
      for (const auto& issue : issues) {
        std::printf("  - %s\n", issue.c_str());
      }
    }
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty() || args[0] == "--help" || args[0] == "-h") {
    usage();
    return args.empty() ? 1 : 0;
  }

  if (args[0] == "--validate") {
    if (args.size() < 2) {
      std::fprintf(stderr, "--validate needs at least one file\n");
      return 1;
    }
    return validate_files({args.begin() + 1, args.end()});
  }

  if (args[0] == "--diff") {
    if (args.size() != 3) {
      std::fprintf(stderr, "--diff needs exactly two files\n");
      return 1;
    }
    obs::BenchReport a, b;
    if (!load_or_fail(args[1], &a) || !load_or_fail(args[2], &b)) return 1;
    std::printf("%s", obs::render_diff(a, b).c_str());
    return 0;
  }

  if (args.size() != 1) {
    usage();
    return 1;
  }
  obs::BenchReport report;
  if (!load_or_fail(args[0], &report)) return 1;
  std::printf("%s", obs::render_report(report).c_str());
  return 0;
}
