#include "src/sched/schedule.hpp"

#include <sstream>

#include "src/memory/category.hpp"
#include "src/util/logging.hpp"
#include "src/util/math.hpp"

namespace slim::sched {

int StageLayout::device_of(int stage) const {
  SLIM_CHECK(stage >= 0 && stage < num_stages(), "stage out of range");
  switch (kind) {
    case StageLayoutKind::Sequential:
      return stage;
    case StageLayoutKind::Interleaved:
      return stage % p;
    case StageLayoutKind::VShape:
      // Down the V then back up: stages 0..p-1 map to devices 0..p-1,
      // stages p..2p-1 map to devices p-1..0.
      return stage < p ? stage : 2 * p - 1 - stage;
  }
  return 0;
}

int StageLayout::chunk_of(int stage) const {
  switch (kind) {
    case StageLayoutKind::Sequential:
      return 0;
    case StageLayoutKind::Interleaved:
      return stage / p;
    case StageLayoutKind::VShape:
      return stage < p ? 0 : 1;
  }
  return 0;
}

int StageLayout::stage_of(int device, int chunk) const {
  SLIM_CHECK(device >= 0 && device < p && chunk >= 0 && chunk < v,
             "device/chunk out of range");
  switch (kind) {
    case StageLayoutKind::Sequential:
      return device;
    case StageLayoutKind::Interleaved:
      return chunk * p + device;
    case StageLayoutKind::VShape:
      return chunk == 0 ? device : 2 * p - 1 - device;
  }
  return 0;
}

core::SliceLayout PipelineSpec::layout_of(int mb) const {
  if (layouts.empty()) {
    return core::SliceLayout::uniform(seq, n, shard.c > 1 ? shard.c : 1);
  }
  SLIM_CHECK(mb >= 0 && mb < static_cast<int>(layouts.size()),
             "microbatch out of range");
  return layouts[mb];
}

std::vector<core::SliceLayout> PipelineSpec::resolved_layouts() const {
  if (!layouts.empty()) return layouts;
  return std::vector<core::SliceLayout>(static_cast<std::size_t>(m),
                                        layout_of(0));
}

std::int64_t PipelineSpec::seq_of(int mb) const {
  return layouts.empty() ? seq : layouts[mb].seq();
}

std::int64_t PipelineSpec::total_tokens() const {
  if (layouts.empty()) return seq * static_cast<std::int64_t>(m);
  std::int64_t total = 0;
  for (const auto& layout : layouts) total += layout.seq();
  return total;
}

bool PipelineSpec::uniform_slices() const {
  if (layouts.empty()) {
    const std::int64_t align = shard.c > 1 ? shard.c : 1;
    if (seq <= 0 || n < 1 || seq % align != 0) return false;
    const std::int64_t units = seq / align;
    return units >= n && units % n == 0;
  }
  for (const auto& layout : layouts) {
    if (!(layout == layouts.front()) || !layout.is_uniform()) return false;
  }
  return true;
}

std::string PipelineSpec::validate() const {
  std::ostringstream err;
  if (p < 1 || v < 1 || m < 1 || n < 1) {
    err << "p, v, m, n must be >= 1; ";
  }
  if (layout == StageLayoutKind::Sequential && v != 1) {
    err << "sequential layout requires v == 1; ";
  }
  if (layout == StageLayoutKind::VShape && v != 2) {
    err << "V-shape layout requires v == 2; ";
  }
  if (cfg.layers < static_cast<std::int64_t>(p * v)) {
    err << "fewer layers (" << cfg.layers << ") than stages (" << p * v
        << "); ";
  }
  if (seq <= 0) {
    err << "sequence length must be positive; ";
  }
  if (n > 1 && n % p != 0) {
    err << "n must be a multiple of p (slice rounds, paper 4.1.2); ";
  }
  const std::int64_t align = shard.c > 1 ? shard.c : 1;
  if (layouts.empty()) {
    if (seq > 0 && seq % align != 0) {
      err << "sequence not divisible by context parallel size; ";
    } else if (seq > 0 && seq / align < n) {
      err << "fewer CP-aligned token blocks than slices; ";
    }
  } else {
    if (static_cast<int>(layouts.size()) != m) {
      err << "slice layouts must cover all m microbatches; ";
    }
    for (const auto& layout : layouts) {
      if (layout.slices() != n) {
        err << "every slice layout must have exactly n slices; ";
        break;
      }
    }
    if (align > 1) {
      for (const auto& layout : layouts) {
        bool aligned = true;
        for (int i = 0; i < layout.slices(); ++i) {
          aligned = aligned && layout.len(i) % align == 0;
        }
        if (!aligned) {
          err << "slice lengths not divisible by context parallel size; ";
          break;
        }
      }
    }
  }
  if (context_exchange && n == 1) {
    err << "context exchange requires slicing (n > 1); ";
  }
  // Derived (empty) layouts stay legal with the exchange planner even when
  // seq % n != 0 — the remainder slices differ by one alignment unit, which
  // the planner's closed-form model absorbs. Custom layouts must be uniform.
  if (context_exchange && n > 1 && !layouts.empty() && !uniform_slices()) {
    err << "context exchange requires uniform equal-length slices; ";
  }
  return err.str();
}

SliceMemory::SliceMemory(const PipelineSpec& spec)
    : spec_(&spec),
      per_token_{model::act_bytes_per_token_layer_no_kv(spec.cfg, spec.shard,
                                                        spec.policy),
                 model::stored_kv_bytes_per_token_layer(
                     spec.cfg, spec.shard, spec.policy, spec.retain_kv)},
      wkeep_(model::wgrad_kept_fraction(spec.cfg, spec.policy)),
      kv_category_(spec.retain_kv ? mem::kKvCache : mem::kActivation) {}

SliceBytes SliceMemory::slice(int stage, std::int64_t tokens) const {
  const double token_layers =
      static_cast<double>(tokens * spec_->layers_of_stage(stage));
  return {per_token_.act * token_layers, per_token_.kv * token_layers};
}

SliceBytes SliceMemory::share(PassType kind) const {
  switch (kind) {
    case PassType::Forward: return {1.0, 1.0};
    case PassType::Backward: return {-1.0, -1.0};
    case PassType::BackwardInput: return {-(1.0 - wkeep_), -1.0};
    case PassType::BackwardWeight: return {-wkeep_, 0.0};
  }
  return {};
}

double vocab_share(const PipelineSpec& spec, int device) {
  if (spec.vocab_parallel) return 1.0 / static_cast<double>(spec.p);
  const StageLayout layout = spec.stage_layout();
  return (layout.device_of(0) == device ? 0.5 : 0.0) +
         (layout.device_of(layout.num_stages() - 1) == device ? 0.5 : 0.0);
}

obs::RunRecord to_run_record(const ScheduleResult& result,
                             const std::string& label) {
  obs::RunRecord run;
  run.label = label;
  run.iteration_time = result.iteration_time;
  run.bubble_fraction = result.bubble_fraction;
  run.mfu = result.mfu;
  run.peak_memory = result.peak_memory;
  run.oom = result.oom;
  run.metrics = result.metrics;
  return run;
}

}  // namespace slim::sched
