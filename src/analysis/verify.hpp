#pragma once

// The schedule verifier: the one rule set that judges a schedule.
//
// Runs on the ScheduleIR table *before* any op graph is built, so a
// user-supplied or synthesized schedule is certified (or rejected with a
// named, located finding) without touching the simulator. check_schedule
// (schedule_check.hpp) is its entry point for per-device programs, and
// sched::compile runs it once before building:
//
//   ir-structure          malformed table: duplicate/gapped per-device
//                         order, indices outside (p, v, n, m), stage
//                         inconsistent with the layout's (device, chunk)
//                         mapping
//   verify-causality      every declared recv has a unique matching send
//                         that happens-before it in channel FIFO order;
//                         declared endpoints agree with the stage boundary
//                         the pass crosses; no send is left unconsumed
//   verify-deadlock       the wait-for graph is acyclic; a violation names a
//                         minimal witness cycle. Edges: per-device program
//                         order, matched send -> recv pairs, and the data
//                         edges sched::compile adds inside one device
//                         (F(s-1) -> F(s) and B|BI(s+1) -> B|BI(s) when the
//                         stage boundary stays on the device, F -> B|BI of
//                         the same unit, BI -> BW). Transfers ride pairwise
//                         FIFO channels, so this graph is acyclic exactly
//                         when the built op graph is
//   verify-progress       every (microbatch, slice) unit is completable at
//                         every stage: exactly one forward and exactly one
//                         retiring backward (B, or the BI+BW split) — no
//                         orphaned forwards or backwards
//   sched-inflight-bound  per device, live activation units never exceed
//                         spec.max_inflight_units (0 = undeclared, rule
//                         off), each pass booking its activation share of
//                         sched::SliceMemory: F +1, B -1, BI -(1 - wkeep),
//                         BW -wkeep (Table 2 / Eq. 1 caps)
//   verify-memory-cert    static replay of the in-flight activation/KV
//                         ledger producing a peak-bytes certificate per
//                         stage and per device; flags ledger dips below
//                         zero and, when a budget is given, certificate
//                         peaks above it
//
// The memory certificate books the bytes sched::compile attaches to the
// graph through the same rule, sched::SliceMemory (a pass's share of its
// slice's bytes, KV under the spec's category), so it reconciles with the
// simulator's mem::replay_memory peaks to within the mem::reconcile_peaks
// tolerance — MemoryCertificate::measured_peaks() packages it for exactly
// that check.
// Offload PCIe traffic and logits are outside the certificate's scope (the
// certificate is an upper bound when offload is enabled).

#include <vector>

#include "src/analysis/findings.hpp"
#include "src/ir/schedule_ir.hpp"
#include "src/memory/reconcile.hpp"
#include "src/sched/schedule.hpp"

namespace slim::analysis {

struct VerifyOptions {
  /// Per-device budget on the certified activation+KV peak, in bytes.
  /// <= 0 disables the budget rule.
  double activation_budget_bytes = 0.0;
};

/// Certified peak of one global stage's activation+KV ledger.
struct StageCertificate {
  int stage = 0;
  int device = 0;          // device the stage lives on
  double unit_bytes = 0.0; // bytes one slice unit of this stage books
  double peak_bytes = 0.0; // certified ledger peak
};

struct MemoryCertificate {
  /// Category KV bytes are booked under (mem::kKvCache when the schedule
  /// retains KV, else folded into mem::kActivation): SliceMemory's.
  int kv_category = 0;
  std::vector<StageCertificate> stages;        // indexed by global stage
  std::vector<double> device_activation_peak;  // kActivation ledger, bytes
  std::vector<double> device_kv_peak;          // kKvCache ledger, bytes
  std::vector<double> device_peak;             // combined act+KV, bytes

  /// Packages the certificate as the "measured" side of
  /// mem::reconcile_peaks against a replayed MemoryReport: one entry per
  /// device per booked category, normalized by the device's chunk-0 stage
  /// unit so both sides compare in slice units.
  std::vector<mem::MeasuredPeak> measured_peaks() const;
};

struct VerifyResult {
  std::vector<Finding> findings;
  MemoryCertificate certificate;

  bool ok() const { return !has_errors(findings); }
};

/// Verifies the table against the workload spec (byte model, layout, and
/// the in-flight cap spec.max_inflight_units). The spec must describe the
/// same schedule shape as the table header — ir::apply_header produces one.
/// All passes run even when earlier ones find errors; malformed rows are
/// reported and left out of the later passes.
VerifyResult verify_ir(const ir::ScheduleIR& table,
                       const sched::PipelineSpec& spec,
                       const VerifyOptions& options = {});

}  // namespace slim::analysis
