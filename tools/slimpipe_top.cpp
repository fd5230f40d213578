// slimpipe_top — live terminal view of a running multi-process pipeline.
//
//   slimpipe_top SNAPSHOT.json              refresh until the run ends
//   slimpipe_top --once SNAPSHOT.json       render one frame and exit
//   slimpipe_top --interval-ms N SNAPSHOT.json
//
// The supervisor (ProcessOptions::telemetry_json_path) atomically rewrites
// the snapshot file on its telemetry cadence; this tool polls it, renders
// obs::render_top and exits when the snapshot's phase turns "done" or
// "failed" (exit code 0 / 1). A missing file is retried — start slimpipe_top
// before or after the run, in any order.

#include <chrono>
#include <climits>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/json.hpp"
#include "src/obs/report.hpp"
#include "src/obs/telemetry.hpp"
#include "src/util/number.hpp"

using namespace slim;

namespace {

void usage() {
  std::printf(R"(usage: slimpipe_top [--once] [--interval-ms N] SNAPSHOT.json

Tails the live-telemetry JSON snapshot written by the multi-process
supervisor and renders a per-stage terminal view. Exits 0 when the run
finishes ("done"), 1 when it fails ("failed"), 2 on a usage error or, with
--once, a file that is not a snapshot.
)");
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  bool once = false;
  int interval_ms = 250;
  std::string path;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--help" || args[i] == "-h") {
      usage();
      return 0;
    } else if (args[i] == "--once") {
      once = true;
    } else if (args[i] == "--interval-ms") {
      const std::string text = i + 1 < args.size() ? args[++i] : "";
      const std::optional<int> value = util::parse_number<int>(text);
      if (!value || *value < 1) {
        std::fprintf(stderr, "invalid value '%s' for --interval-ms: expected "
                     "an integer in [1, %d]\n", text.c_str(), INT_MAX);
        return 2;
      }
      interval_ms = *value;
    } else if (path.empty()) {
      path = args[i];
    } else {
      usage();
      return 2;
    }
  }
  if (path.empty()) {
    usage();
    return 2;
  }

  bool seen = false;
  for (;;) {
    obs::JsonValue value;
    obs::LiveSnapshot snap;
    std::string error;
    // The supervisor writes via rename, so a file that does not parse is
    // stale or foreign, not torn: keep polling, unless --once.
    const bool have = obs::load_json(path, &value, &error) &&
                      obs::snapshot_from_json(value, &snap);
    if (!have && once) {
      if (error.empty()) error = path + ": not a live-telemetry snapshot";
      std::fprintf(stderr, "%s\n", error.c_str());
      return 2;
    }

    if (have) {
      if (seen) {
        std::printf("\033[H\033[J");  // cursor home + clear: one live frame
      }
      std::fputs(obs::render_top(snap).c_str(), stdout);
      std::fflush(stdout);
      seen = true;
      if (snap.phase == "done") return 0;
      if (snap.phase == "failed") return 1;
    } else if (!seen) {
      std::fprintf(stderr, "waiting for %s ...\r", path.c_str());
      std::fflush(stderr);
    }
    if (once) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
  }
}
