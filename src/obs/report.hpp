#pragma once

// Self-describing bench/CLI report files.
//
// Every bench binary (and slimpipe_sim --json) writes one
// results/bench_<name>.json with this shape:
//
//   {"schema": "slimpipe-bench-report", "version": 1,
//    "name": "...", "artifact": "...", "setup": "...", "expectation": "...",
//    "series": [{"title": "...", "columns": [...], "rows": [[...], ...]}],
//    "runs":   [{"label": "...", "iteration_time": ..., "bubble_fraction":
//                ..., "mfu": ..., "peak_memory": ..., "oom": false,
//                "metrics": {<RunMetrics>}}]}
//
// "series" captures the printed tables verbatim (pre-formatted cells) so a
// report round-trips what the terminal showed; "runs" carries the machine
// shape (one RunMetrics per labelled configuration) for diffing.

#include <string>
#include <vector>

#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/table.hpp"

namespace slim::obs {

inline constexpr const char* kReportSchema = "slimpipe-bench-report";
inline constexpr int kReportVersion = 1;

struct SeriesTable {
  std::string title;
  std::vector<std::string> columns;
  std::vector<std::vector<std::string>> rows;
};

struct RunRecord {
  std::string label;
  double iteration_time = 0.0;
  double bubble_fraction = 0.0;
  double mfu = 0.0;
  double peak_memory = 0.0;
  bool oom = false;
  RunMetrics metrics;
};

struct BenchReport {
  std::string name;
  std::string artifact;
  std::string setup;
  std::string expectation;
  std::vector<SeriesTable> series;
  std::vector<RunRecord> runs;

  void add_series(const std::string& title, const Table& table);
};

JsonValue report_to_json(const BenchReport& report);
bool report_from_json(const JsonValue& value, BenchReport* out);

/// Reads and parses a JSON file; returns false and fills `error` on I/O or
/// parse failure.
bool load_json(const std::string& path, JsonValue* out, std::string* error);

/// Loads and parses a report file; returns false and fills `error` on I/O or
/// parse failure (schema issues are reported via validate_report instead).
bool load_report(const std::string& path, BenchReport* out,
                 std::string* error);

/// Serializes and writes the report, creating parent directories. Returns
/// false on I/O failure.
bool write_report(const BenchReport& report, const std::string& path);

/// Structural schema check on a parsed document: required keys, types,
/// series row widths, run metrics shape. Empty result = valid.
std::vector<std::string> validate_report(const JsonValue& value);

/// Renders the report as aligned tables (series verbatim, then one summary
/// table over runs).
std::string render_report(const BenchReport& report);

/// Renders a cell-wise comparison of two reports: matching series (by title
/// and row index) show "a -> b" for changed cells with a relative delta for
/// numeric ones; run summaries are diffed metric-by-metric.
std::string render_diff(const BenchReport& a, const BenchReport& b);

}  // namespace slim::obs
