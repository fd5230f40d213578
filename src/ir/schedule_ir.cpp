#include "src/ir/schedule_ir.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "src/util/fields.hpp"
#include "src/util/logging.hpp"

namespace slim::ir {

namespace {

using sched::PassType;
using sched::StageLayout;
using sched::StageLayoutKind;

const char* cp_mode_name(model::CpMode mode) {
  switch (mode) {
    case model::CpMode::RingKv: return "ringkv";
    case model::CpMode::Commutated: return "commutated";
  }
  return "?";
}

}  // namespace

const char* kind_name(PassType kind) {
  switch (kind) {
    case PassType::Forward: return "F";
    case PassType::Backward: return "B";
    case PassType::BackwardInput: return "BI";
    case PassType::BackwardWeight: return "BW";
  }
  return "?";
}

const char* layout_name(StageLayoutKind kind) {
  switch (kind) {
    case StageLayoutKind::Sequential: return "sequential";
    case StageLayoutKind::Interleaved: return "interleaved";
    case StageLayoutKind::VShape: return "vshape";
  }
  return "?";
}

void ScheduleIR::canonicalize() {
  std::stable_sort(rows.begin(), rows.end(),
                   [](const Row& a, const Row& b) {
                     return a.device != b.device ? a.device < b.device
                                                 : a.order < b.order;
                   });
}

Row with_endpoints(const sched::StageLayout& layout, Row row) {
  row.recv_from = kNoEndpoint;
  row.send_to = kNoEndpoint;
  const bool forward = row.kind == PassType::Forward;
  if (!forward && row.kind != PassType::Backward &&
      row.kind != PassType::BackwardInput) {
    return row;  // BackwardWeight exchanges nothing
  }
  const int num_stages = layout.num_stages();
  const int up = forward ? row.stage - 1 : row.stage + 1;    // input side
  const int down = forward ? row.stage + 1 : row.stage - 1;  // output side
  if (up >= 0 && up < num_stages) {
    const int peer = layout.device_of(up);
    if (peer != row.device) row.recv_from = peer;
  }
  if (down >= 0 && down < num_stages) {
    const int peer = layout.device_of(down);
    if (peer != row.device) row.send_to = peer;
  }
  return row;
}

ScheduleIR lower(const sched::PipelineSpec& spec,
                 const std::vector<sched::DeviceProgram>& programs,
                 const std::string& scheme_name) {
  SLIM_CHECK(static_cast<int>(programs.size()) == spec.p,
             "lower: one program per pipeline device required");
  ScheduleIR ir;
  ir.scheme = scheme_name;
  ir.p = spec.p;
  ir.v = spec.v;
  ir.n = spec.n;
  ir.m = spec.m;
  ir.layout = spec.layout;
  ir.retain_kv = spec.retain_kv;
  ir.vocab_parallel = spec.vocab_parallel;
  ir.context_exchange = spec.context_exchange;
  ir.policy = spec.policy;
  ir.cp_mode = spec.cp_mode;
  ir.max_inflight_units = spec.max_inflight_units;

  const StageLayout layout = spec.stage_layout();
  for (int dev = 0; dev < spec.p; ++dev) {
    const sched::DeviceProgram& program =
        programs[static_cast<std::size_t>(dev)];
    for (std::size_t pos = 0; pos < program.size(); ++pos) {
      const sched::Pass& pass = program[pos];
      Row row;
      row.device = dev;
      row.order = static_cast<int>(pos);
      row.kind = pass.type;
      row.microbatch = pass.microbatch;
      row.slice = pass.slice;
      row.chunk = pass.chunk;
      // Out-of-range chunks cannot be mapped to a stage; keep the row (the
      // verifier will flag it) with the chunk clamped for stage lookup.
      const int chunk =
          std::clamp(static_cast<int>(pass.chunk), 0, spec.v - 1);
      row.stage = layout.stage_of(dev, chunk);
      ir.rows.push_back(with_endpoints(layout, row));
    }
  }
  ir.canonicalize();
  return ir;
}

std::vector<sched::DeviceProgram> to_programs(const ScheduleIR& ir) {
  std::vector<sched::DeviceProgram> programs(
      static_cast<std::size_t>(std::max(1, ir.p)));
  ScheduleIR sorted = ir;
  sorted.canonicalize();
  for (const Row& row : sorted.rows) {
    if (row.device < 0 || row.device >= ir.p) {
      throw std::runtime_error("schedule IR row names device " +
                               std::to_string(row.device) +
                               " outside [0, p=" + std::to_string(ir.p) + ")");
    }
    programs[static_cast<std::size_t>(row.device)].push_back(
        {row.kind, row.microbatch, row.slice, row.chunk});
  }
  return programs;
}

sched::PipelineSpec apply_header(const ScheduleIR& ir,
                                 sched::PipelineSpec base) {
  base.p = ir.p;
  base.v = ir.v;
  base.n = ir.n;
  base.m = ir.m;
  base.layout = ir.layout;
  base.retain_kv = ir.retain_kv;
  base.vocab_parallel = ir.vocab_parallel;
  base.context_exchange = ir.context_exchange;
  base.policy = ir.policy;
  base.cp_mode = ir.cp_mode;
  base.max_inflight_units = ir.max_inflight_units;
  // Slice layouts are a workload knob (kept outside the IR); drop any that
  // no longer match the overlaid schedule shape rather than keep a stale,
  // inconsistent set.
  if (!base.layouts.empty()) {
    bool consistent = static_cast<int>(base.layouts.size()) == base.m;
    for (const auto& layout : base.layouts) {
      consistent = consistent && layout.slices() == base.n;
    }
    if (!consistent) base.layouts.clear();
  }
  return base;
}

// ---------------------------------------------------------------------------
// Text format: the header's and a row's field lists (src/util/fields.hpp),
// walked by export_text and import_text, one token per member
// (util::token_text / read_token).

template <MaybeConst<ScheduleIR> S, class Visit>
void fields(S& ir, Visit&& visit) {
  visit("scheme", ir.scheme);
  visit("p", ir.p);
  visit("v", ir.v);
  visit("n", ir.n);
  visit("m", ir.m);
  visit("layout", ir.layout, layout_name);
  visit("retain-kv", ir.retain_kv);
  visit("vocab-parallel", ir.vocab_parallel);
  visit("context-exchange", ir.context_exchange);
  visit("policy", ir.policy, model::to_string);
  visit("cp-mode", ir.cp_mode, cp_mode_name);
  visit("max-inflight", ir.max_inflight_units);
}

template <MaybeConst<Row> R, class Visit>
void fields(R& row, Visit&& visit) {
  visit("device", row.device);
  visit("order", row.order);
  visit("kind", row.kind, kind_name);
  visit("mb", row.microbatch);
  visit("slice", row.slice);
  visit("chunk", row.chunk);
  visit("stage", row.stage);
  visit("recv", row.recv_from, util::Dot{kNoEndpoint});
  visit("send", row.send_to, util::Dot{kNoEndpoint});
}

namespace {

/// The columns line's value: the row list's keys.
std::string column_keys() {
  std::string keys;
  const Row row;
  fields(row, [&](std::string_view key, const auto&, auto...) {
    if (!keys.empty()) keys += ' ';
    keys += key;
  });
  return keys;
}

}  // namespace

std::string export_text(const ScheduleIR& ir) {
  ScheduleIR sorted = ir;
  sorted.canonicalize();
  std::string out = "slimpipe-ir 1\n";
  fields(sorted, [&](std::string_view key, const auto& member, auto... how) {
    ((out += key) += ' ') += util::token_text(member, how...) + "\n";
  });
  out += "columns " + column_keys() + "\n";
  for (const Row& row : sorted.rows) {
    out += "row";
    fields(row, [&](std::string_view, const auto& member, auto... how) {
      (out += ' ') += util::token_text(member, how...);
    });
    out += "\n";
  }
  return out + "end\n";
}

ScheduleIR import_text(const std::string& text) {
  ScheduleIR ir;
  std::vector<std::string_view> seen;  // header keys read so far
  std::istringstream in(text);
  std::string line;
  int lineno = 0;  // 0 once the error concerns the whole text
  bool saw_magic = false, saw_end = false;
  auto fail = [&](const std::string& what) {
    throw std::runtime_error(
        "schedule IR" +
        (lineno > 0 ? " line " + std::to_string(lineno) : std::string()) +
        ": " + what);
  };
  while (std::getline(in, line)) {
    ++lineno;
    // Strip a trailing CR so CRLF files parse.
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string key, value;  // value: the rest of the line
    std::getline(ls >> key >> std::ws, value);
    if (!saw_magic) {
      if (key != "slimpipe-ir" || value != "1") {
        fail("expected header 'slimpipe-ir 1'");
      }
      saw_magic = true;
    } else if (saw_end) {
      fail("content after 'end'");
    } else if (key == "row") {
      std::istringstream cells(value);
      std::string cell;
      fields(ir.rows.emplace_back(),
             [&](std::string_view column, auto& member, auto... how) {
               if (!(cells >> cell)) fail("missing " + std::string(column));
               if (!util::read_token(cell, &member, how...)) {
                 fail("bad " + std::string(column) + " '" + cell + "'");
               }
             });
      if (cells >> cell) fail("trailing token '" + cell + "'");
    } else if (key == "columns") {
      if (value != column_keys()) {
        fail("unsupported column set (expected '" + column_keys() + "')");
      }
    } else if (key == "end") {
      saw_end = true;
    } else {
      bool known = false;
      fields(ir, [&](std::string_view name, auto& member, auto... how) {
        if (name != key) return;
        known = true;
        if (std::find(seen.begin(), seen.end(), name) != seen.end()) {
          fail("repeated key '" + key + "'");
        }
        seen.push_back(name);
        if (!util::read_token(value, &member, how...)) {
          fail("bad " + key + " '" + value + "'");
        }
      });
      if (!known) fail("unknown directive '" + key + "'");
    }
  }
  lineno = 0;
  if (!saw_magic) fail("missing 'slimpipe-ir 1' header");
  if (!saw_end) fail("missing 'end' terminator");
  fields(ir, [&](std::string_view name, const auto&, auto...) {
    if (std::find(seen.begin(), seen.end(), name) == seen.end()) {
      fail("missing header key '" + std::string(name) + "'");
    }
  });
  if (ir.p < 1) fail("p must be >= 1");
  ir.canonicalize();
  return ir;
}

}  // namespace slim::ir
