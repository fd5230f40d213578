#pragma once

// Tabular schedule IR.
//
// A pipeline schedule is a table: one row per timed per-device pass, with
// the pass identity (kind, microbatch, slice, chunk), the global stage it
// executes and the *explicit* communication endpoints (which device the
// input payload arrives from, which device the output payload goes to).
// Every scheme in src/sched lowers to this table (ir::lower), the table
// round-trips through a deterministic text format (ir::export_text /
// ir::import_text, byte-identical for canonical tables), and the static
// verification engine (src/analysis/verify) certifies a table before any
// graph is built — so slimpipe_sim can accept external schedules without
// recompiling.
//
// The header carries the schedule-structural knobs core::plan_scheme
// normalizes on the spec (layout, KV retention, checkpoint policy, ...), so
// importing an exported table reproduces the direct run byte-identically.
// Workload knobs (model, GPU, sharding, sequence length) stay outside the
// IR: they come from the spec the table is applied to.

#include <cstdint>
#include <string>
#include <vector>

#include "src/model/activation.hpp"
#include "src/model/flops.hpp"
#include "src/sched/schedule.hpp"

namespace slim::ir {

/// One pipeline device has no such peer for this row's payload.
inline constexpr int kNoEndpoint = -1;

struct Row {
  int device = 0;    // executing pipeline device
  int order = 0;     // position in the device's program (its local clock)
  sched::PassType kind = sched::PassType::Forward;
  std::int32_t microbatch = 0;
  std::int32_t slice = 0;
  std::int32_t chunk = 0;
  std::int32_t stage = 0;      // global stage this row executes
  int recv_from = kNoEndpoint; // device the input payload arrives from
  int send_to = kNoEndpoint;   // device the output payload is shipped to

  bool operator==(const Row&) const = default;
};

struct ScheduleIR {
  std::string scheme;  // display name, e.g. "SlimPipe" (free text, one line)
  int p = 1;
  int v = 1;
  int n = 1;
  int m = 1;
  sched::StageLayoutKind layout = sched::StageLayoutKind::Sequential;

  // Scheme-normalized spec knobs the schedule depends on.
  bool retain_kv = false;
  bool vocab_parallel = false;
  bool context_exchange = false;
  model::CheckpointPolicy policy = model::CheckpointPolicy::None;
  model::CpMode cp_mode = model::CpMode::RingKv;

  /// Declared cap on simultaneously-live activation units (0 = undeclared);
  /// enforced by the sched-inflight-bound rule when positive.
  double max_inflight_units = 0.0;

  /// Rows in canonical order: sorted by (device, order).
  std::vector<Row> rows;

  bool operator==(const ScheduleIR&) const = default;

  /// Sorts rows into canonical (device, order) order.
  void canonicalize();
};

/// The endpoint rule: returns `row` with recv_from/send_to set to the
/// endpoints its stage boundary implies under `layout`. A forward at stage
/// s receives from the device holding stage s-1 and sends to the device
/// holding stage s+1 (when those stages exist and live on another device
/// than row.device); backwards run the boundary in reverse; weight-gradient
/// halves exchange nothing. ir::lower fills every row with it, and the
/// verifier checks a table's declared endpoints against it.
Row with_endpoints(const sched::StageLayout& layout, Row row);

/// Lowers a scheme's per-device programs to the tabular IR, endpoints from
/// the spec's stage layout (with_endpoints).
ScheduleIR lower(const sched::PipelineSpec& spec,
                 const std::vector<sched::DeviceProgram>& programs,
                 const std::string& scheme_name);

/// Reconstructs the per-device programs from the table (rows grouped by
/// device, each device's rows in `order`). Throws on rows whose device is
/// outside [0, p).
std::vector<sched::DeviceProgram> to_programs(const ScheduleIR& ir);

/// Overlays the IR header's schedule-structural knobs onto a workload spec
/// (p, v, n, m, layout, retain_kv, vocab_parallel, context_exchange,
/// policy, cp_mode, max_inflight_units). Everything else (model, GPU,
/// sharding, seq, offload, ...) is kept from `base`.
sched::PipelineSpec apply_header(const ScheduleIR& ir,
                                 sched::PipelineSpec base);

/// Serializes the table to the deterministic text format. The output is
/// canonical: fixed header order, rows sorted by (device, order), single
/// spaces, trailing newline — export(import(text)) == text for canonical
/// text and import(export(ir)) == ir for canonical tables.
std::string export_text(const ScheduleIR& ir);

/// Parses the text format. Throws std::runtime_error with a line-numbered
/// message on malformed input. Rows are canonicalized on import.
ScheduleIR import_text(const std::string& text);

/// Stable one-letter row kind ("F", "B", "BI", "BW").
const char* kind_name(sched::PassType kind);

/// Stable lower-case layout name ("sequential", "interleaved", "vshape").
const char* layout_name(sched::StageLayoutKind kind);

}  // namespace slim::ir
