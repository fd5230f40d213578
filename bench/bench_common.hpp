#pragma once

// Shared helpers for the benchmark harness. Every bench binary regenerates
// one table or figure from the paper's evaluation: it prints the measured
// series (with the paper's qualitative expectation alongside) and registers
// a google-benchmark timer around the core computation.

#include <benchmark/benchmark.h>

#include <cstdint>
#include <string>

#include "src/core/runner.hpp"
#include "src/core/slice.hpp"
#include "src/model/transformer.hpp"
#include "src/obs/report.hpp"
#include "src/parallel/config.hpp"
#include "src/parallel/search.hpp"
#include "src/sched/schemes.hpp"
#include "src/sched/ulysses.hpp"
#include "src/util/table.hpp"
#include "src/util/units.hpp"

namespace slimbench {

inline constexpr std::int64_t kMiTokens = 1024 * 1024;

/// Standard single-node shard spec (8-way TP, the paper's default).
slim::sched::PipelineSpec base_spec(const slim::model::TransformerConfig& cfg,
                                    std::int64_t t, int p, std::int64_t seq,
                                    int m);

/// Opens this binary's machine-readable report. At process exit the
/// accumulated series/runs are written to
/// $SLIMPIPE_RESULTS_DIR (default "results")/bench_<name>.json in the
/// slimpipe-bench-report schema (src/obs/report.hpp) for slimpipe_report.
void open_report(const std::string& name);

/// Prints the bench banner: which paper artifact this regenerates and what
/// shape to expect. Also recorded in the open report's header.
void print_banner(const std::string& artifact, const std::string& setup,
                  const std::string& paper_expectation);

/// Prints a titled table to stdout AND records it as a series in the open
/// report — the single output path every bench uses instead of ad-hoc
/// printf, so terminal output and the JSON report can never diverge.
void print_table(const std::string& title, const slim::Table& table);

/// Records one labelled configuration's ScheduleResult (with its per-stage
/// obs metrics) in the open report's runs.
void add_run(const std::string& label,
             const slim::sched::ScheduleResult& result);

/// True when SLIMPIPE_BENCH_SMOKE is a nonzero integer: the benches that
/// time real kernels or processes shrink their shapes to seconds. Read
/// with util::env_int_or (a malformed value warns and means 0).
bool smoke_mode();

/// "ok" / "OOM" / "--" cell helper.
std::string status_cell(const slim::sched::ScheduleResult& result);

}  // namespace slimbench
