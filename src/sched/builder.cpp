#include "src/sched/builder.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "src/analysis/verify.hpp"
#include "src/fault/fault_sim.hpp"
#include "src/ir/schedule_ir.hpp"
#include "src/model/activation.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/sim/trace.hpp"
#include "src/util/logging.hpp"
#include "src/util/math.hpp"
#include "src/util/units.hpp"

namespace slim::sched {

namespace {

constexpr double kMemoryReserveBytes = 3.0 * kGiB;  // runtime + NCCL + workspace

std::atomic<bool> g_compile_lint{true};

std::int64_t pack_key(PassType type, std::int32_t mb, std::int32_t slice,
                      std::int32_t stage) {
  return (static_cast<std::int64_t>(type) << 56) |
         (static_cast<std::int64_t>(mb) << 36) |
         (static_cast<std::int64_t>(slice) << 16) |
         static_cast<std::int64_t>(stage);
}

/// Parameter count on one device (after TP/EP sharding).
double device_params(const model::TransformerConfig& cfg,
                     const model::Shard& shard, double layers_local,
                     double vocab_fraction) {
  const double h = static_cast<double>(cfg.hidden);
  const double attn = 2.0 * h * h + 2.0 * h * static_cast<double>(cfg.kv_hidden());
  double ffn = 3.0 * h * static_cast<double>(cfg.ffn);
  if (cfg.is_moe()) {
    ffn = ffn * static_cast<double>(cfg.experts) /
              static_cast<double>(shard.e) +
          h * static_cast<double>(cfg.experts);
  }
  const double per_layer = (attn + ffn + 2.0 * h) / static_cast<double>(shard.t);
  const double embed = static_cast<double>(cfg.params_embedding()) *
                       vocab_fraction / static_cast<double>(shard.t);
  return layers_local * per_layer + embed;
}

}  // namespace

void set_compile_lint(bool enabled) { g_compile_lint.store(enabled); }
bool compile_lint_enabled() { return g_compile_lint.load(); }

sim::Topology pipeline_topology(const PipelineSpec& spec) {
  const std::int64_t gpus_per_rank = spec.shard.t * spec.shard.c;
  const int ranks_per_node = static_cast<int>(
      std::max<std::int64_t>(1, spec.shard.gpus_per_node / gpus_per_rank));
  sim::Topology topo;
  if (spec.p <= ranks_per_node) {
    topo.num_nodes = 1;
    topo.gpus_per_node = spec.p;
  } else {
    topo.gpus_per_node = ranks_per_node;
    topo.num_nodes =
        static_cast<int>(ceil_div(spec.p, ranks_per_node));
  }
  return topo;
}

DeviceProgram one_f_one_b_program(const std::vector<Pass>& fwd,
                                  const std::vector<Pass>& bwd, int warmup) {
  SLIM_CHECK(fwd.size() == bwd.size(), "forward/backward unit count mismatch");
  const int total = static_cast<int>(fwd.size());
  if (total == 0) return {};
  warmup = std::clamp(warmup, 1, total);
  DeviceProgram program;
  program.reserve(2 * fwd.size());
  for (int i = 0; i < warmup; ++i) program.push_back(fwd[static_cast<std::size_t>(i)]);
  for (int i = 0; i + warmup < total; ++i) {
    program.push_back(bwd[static_cast<std::size_t>(i)]);
    program.push_back(fwd[static_cast<std::size_t>(i + warmup)]);
  }
  for (int i = total - warmup; i < total; ++i) {
    program.push_back(bwd[static_cast<std::size_t>(i)]);
  }
  return program;
}

BuildOutput compile(const PipelineSpec& spec,
                    const std::vector<DeviceProgram>& programs,
                    const ExchangeOracle* exchange) {
  const std::string err = spec.validate();
  SLIM_CHECK(err.empty(), "invalid pipeline spec: " + err);
  SLIM_CHECK(static_cast<int>(programs.size()) == spec.p,
             "one program per pipeline device required");

  // ---- static verification ----
  // Runs *before* any graph is built, so a rejected schedule costs nothing
  // and external (imported) schedules are certified by the same path. The
  // spec carries the scheme's declared in-flight cap (core::plan_scheme
  // fills it in); 0 leaves the sched-inflight-bound rule off.
  if (compile_lint_enabled()) {
    const analysis::VerifyResult verdict =
        analysis::verify_ir(ir::lower(spec, programs, "compile"), spec);
    SLIM_CHECK(verdict.ok(), "static analysis rejected the schedule:\n" +
                                 analysis::render(verdict.findings));
  }

  const StageLayout layout = spec.stage_layout();
  const int num_stages = layout.num_stages();
  // Per-microbatch slice boundaries; uniform specs resolve to the
  // remainder-distributed token split, so every token is costed.
  const std::vector<core::SliceLayout> slice_layouts = spec.resolved_layouts();
  auto len_of = [&](const Pass& pass) {
    return slice_layouts[static_cast<std::size_t>(pass.microbatch)].len(
        pass.slice);
  };
  auto prefix_of = [&](const Pass& pass) {
    return slice_layouts[static_cast<std::size_t>(pass.microbatch)].kv_prefix(
        pass.slice);
  };
  const sim::Topology topo = pipeline_topology(spec);
  const model::CostModel cost(spec.cfg, spec.gpu, topo, spec.shard,
                              spec.policy, spec.cp_mode);

  // --- activation byte model per slice per stage ---
  const double nonkv_per_token = model::act_bytes_per_token_layer_no_kv(
      spec.cfg, spec.shard, spec.policy);
  const bool kv_stored =
      spec.retain_kv || spec.policy != model::CheckpointPolicy::Full;
  const double kv_per_token =
      kv_stored ? model::kv_bytes_per_token_layer(spec.cfg, spec.shard) : 0.0;
  const int kv_category = spec.retain_kv ? mem::kKvCache : mem::kActivation;
  // Per-stage activation bytes (stages may hold uneven layer counts and
  // slices carry per-layout token counts).
  auto act_slice_of = [&](int stage, std::int64_t len) {
    return nonkv_per_token *
           static_cast<double>(len * spec.layers_of_stage(stage));
  };
  auto kv_slice_of = [&](int stage, std::int64_t len) {
    return kv_per_token *
           static_cast<double>(len * spec.layers_of_stage(stage));
  };
  const double wkeep = model::wgrad_kept_fraction(spec.cfg, spec.policy);

  // Fraction of the (tied, single-copy) vocabulary parameters on a device:
  // the embedding sits with the first stage, the output head with the last.
  const StageLayout vf_layout = spec.stage_layout();
  auto vocab_fraction_of = [&](int dev) {
    if (spec.vocab_parallel) return 1.0 / static_cast<double>(spec.p);
    double f = 0.0;
    if (vf_layout.device_of(0) == dev) f += 0.5;
    if (vf_layout.device_of(vf_layout.num_stages() - 1) == dev) f += 0.5;
    return f;
  };
  // Layers on one device across all its chunks.
  auto layers_of_device = [&](int dev) {
    std::int64_t total = 0;
    for (int chunk = 0; chunk < spec.v; ++chunk) {
      total += spec.layers_of_stage(vf_layout.stage_of(dev, chunk));
    }
    return static_cast<double>(total);
  };

  // Vocabulary handling (per-slice token counts).
  const std::int64_t vocab_shards = spec.vocab_parallel ? spec.p : 1;
  auto logits_slice_of = [&](std::int64_t len) {
    return model::logits_bytes(spec.cfg, spec.shard, len, vocab_shards);
  };
  auto vf_time_of = [&](std::int64_t len) {
    return cost.vocab_forward_time(len, vocab_shards);
  };
  auto vb_time_of = [&](std::int64_t len) {
    return cost.vocab_backward_time(len, vocab_shards);
  };
  // With vocabulary parallelism the hidden states are broadcast: each
  // device receives one boundary activation per slice.
  auto vp_broadcast_time_of = [&](std::int64_t len) {
    return spec.vocab_parallel && spec.p > 1
               ? topo.p2p_time(0, spec.p - 1, cost.boundary_bytes(len))
               : 0.0;
  };

  auto output = BuildOutput{};
  output.graph = std::make_unique<sim::OpGraph>(topo);
  sim::OpGraph& graph = *output.graph;

  std::unordered_map<std::int64_t, sim::OpId> index;
  index.reserve(programs.size() * 64);
  // Compute ops per device in creation order (for exchange "previous op").
  std::vector<std::vector<sim::OpId>> device_ops(
      static_cast<std::size_t>(spec.p));

  auto attn_stream = [&](const Pass& pass, bool forward) -> std::int64_t {
    if (forward) {
      return static_cast<std::int64_t>(pass.microbatch) * spec.n + pass.slice;
    }
    return static_cast<std::int64_t>(pass.microbatch) * spec.n +
           (spec.n - 1 - pass.slice);
  };

  struct ExchangeRef {
    sim::OpId op;
    int device;
    ExchangeOracle::PassPlan plan;
  };
  std::vector<ExchangeRef> exchange_refs;
  std::vector<double> exchange_sent(static_cast<std::size_t>(spec.p), 0.0);

  // ---- pass 1: compute ops in program order ----
  for (int dev = 0; dev < spec.p; ++dev) {
    for (const Pass& pass : programs[static_cast<std::size_t>(dev)]) {
      const int stage = layout.stage_of(dev, pass.chunk);
      const std::int64_t stage_layers = spec.layers_of_stage(stage);
      const std::int64_t slice_len = len_of(pass);
      const std::int64_t kv_prefix = prefix_of(pass);
      const double logits_slice = logits_slice_of(slice_len);
      const double vf_time = vf_time_of(slice_len);
      const double vb_time = vb_time_of(slice_len);
      ExchangeOracle::PassPlan plan;
      const bool sliced_attn_pass =
          exchange != nullptr && (pass.type == PassType::Forward ||
                                  pass.type == PassType::Backward);
      if (sliced_attn_pass) {
        plan = exchange->plan(dev, attn_stream(pass, pass.type == PassType::Forward),
                              pass.type == PassType::Forward);
      }

      double duration = 0.0;
      sim::OpClass cls = sim::OpClass::Forward;
      switch (pass.type) {
        case PassType::Forward: {
          cls = sim::OpClass::Forward;
          const double attn =
              sliced_attn_pass
                  ? plan.attn_time * static_cast<double>(stage_layers)
                  : static_cast<double>(stage_layers) *
                        cost.causal_attn_time(slice_len, kv_prefix, true);
          duration = cost.nonattn_time(stage_layers, slice_len, true) + attn;
          if (stage == 0) duration += cost.embedding_time(slice_len);
          if (spec.vocab_parallel) {
            duration += vf_time + vp_broadcast_time_of(slice_len);
          }
          break;
        }
        case PassType::Backward: {
          cls = sim::OpClass::Backward;
          const double attn =
              sliced_attn_pass
                  ? plan.attn_time * static_cast<double>(stage_layers)
                  : static_cast<double>(stage_layers) *
                        cost.causal_attn_time(slice_len, kv_prefix, false);
          duration = cost.nonattn_time(stage_layers, slice_len, false) + attn +
                     cost.recompute_time(stage_layers, slice_len, kv_prefix);
          if (spec.vocab_parallel) duration += vb_time;
          break;
        }
        case PassType::BackwardInput:
          cls = sim::OpClass::BackwardInput;
          duration = cost.backward_input_time(stage_layers, slice_len, kv_prefix);
          break;
        case PassType::BackwardWeight:
          cls = sim::OpClass::BackwardWeight;
          duration = cost.backward_weight_time(stage_layers, slice_len);
          break;
      }

      // Non-parallel vocabulary: backward of the last stage is preceded by
      // the vocabulary/loss backward on the same device.
      const bool is_backward_kind = pass.type == PassType::Backward ||
                                    pass.type == PassType::BackwardInput;
      if (!spec.vocab_parallel && is_backward_kind && stage == num_stages - 1) {
        const sim::OpId vb = graph.add_compute(dev, vb_time,
                                               sim::OpClass::VocabBackward, {});
        graph.set_tag(vb, pass.microbatch, pass.slice, stage);
        graph.add_mem(vb, {dev, mem::kLogits, -logits_slice, /*at_end=*/true});
        index.emplace(pack_key(PassType::BackwardWeight /*unused slot*/,
                               pass.microbatch, pass.slice,
                               stage + num_stages /*VB namespace*/),
                      vb);
        device_ops[static_cast<std::size_t>(dev)].push_back(vb);
      }

      const sim::OpId op = graph.add_compute(dev, duration, cls, {});
      graph.set_tag(op, pass.microbatch, pass.slice, stage);
      index.emplace(pack_key(pass.type, pass.microbatch, pass.slice, stage),
                    op);
      device_ops[static_cast<std::size_t>(dev)].push_back(op);
      if (sliced_attn_pass && !plan.exchanges.empty()) {
        exchange_refs.push_back({op, dev, plan});
        for (const ExchangeOracle::Exchange& ex : plan.exchanges) {
          exchange_sent[static_cast<std::size_t>(dev)] += ex.send_bytes;
        }
      }

      // Memory deltas. With offloading enabled, the forward allocates the
      // full slice; an explicit PCIe store then moves the host share out,
      // and a prefetch restores it ahead of the backward — the transfer
      // windows and PCIe contention are simulated, not assumed (paper 6.5,
      // "pipeline-parallelism-aware offloading").
      const double act_full = act_slice_of(stage, slice_len);
      const double kv_full = kv_slice_of(stage, slice_len);
      const double act_host = spec.offload.host_bytes(act_full);
      const double kv_host = spec.offload.host_bytes(kv_full);
      const bool offloading = spec.offload.enabled() &&
                              (pass.type == PassType::Forward ||
                               pass.type == PassType::Backward);
      const double pcie_time =
          (act_host + kv_host) / spec.offload.pcie_bandwidth;
      switch (pass.type) {
        case PassType::Forward: {
          graph.add_mem(op, {dev, mem::kActivation, act_full, false});
          if (kv_full > 0.0) {
            graph.add_mem(op, {dev, kv_category, kv_full, false});
          }
          if (spec.vocab_parallel && pass.chunk == spec.v - 1) {
            graph.add_mem(op, {dev, mem::kLogits, logits_slice, true});
          }
          if (offloading) {
            const sim::OpId store = graph.add_on_resource(
                graph.pcie_resource(dev), dev, pcie_time, sim::OpClass::Other,
                {op});
            graph.set_tag(store, pass.microbatch, pass.slice, stage);
            graph.add_mem(store, {dev, mem::kActivation, -act_host, true});
            if (kv_host > 0.0) {
              graph.add_mem(store, {dev, kv_category, -kv_host, true});
            }
          }
          break;
        }
        case PassType::Backward: {
          if (offloading) {
            // Prefetch launched from two passes back so it overlaps; the
            // backward waits for it.
            const auto& own = device_ops[static_cast<std::size_t>(dev)];
            std::vector<sim::OpId> pdeps;
            if (own.size() >= 2) pdeps.push_back(own[own.size() - 2]);
            const sim::OpId prefetch = graph.add_on_resource(
                graph.pcie_resource(dev), dev, pcie_time, sim::OpClass::Other,
                std::move(pdeps));
            graph.set_tag(prefetch, pass.microbatch, pass.slice, stage);
            graph.add_mem(prefetch, {dev, mem::kActivation, act_host, false});
            if (kv_host > 0.0) {
              graph.add_mem(prefetch, {dev, kv_category, kv_host, false});
            }
            graph.op(op).deps.push_back(prefetch);
          }
          graph.add_mem(op, {dev, mem::kActivation, -act_full, true});
          if (kv_full > 0.0) {
            graph.add_mem(op, {dev, kv_category, -kv_full, true});
          }
          if (spec.vocab_parallel && pass.chunk == spec.v - 1) {
            graph.add_mem(op, {dev, mem::kLogits, -logits_slice, false});
          }
          break;
        }
        case PassType::BackwardInput:
          graph.add_mem(
              op, {dev, mem::kActivation, -act_full * (1.0 - wkeep), true});
          if (kv_full > 0.0) {
            graph.add_mem(op, {dev, kv_category, -kv_full, true});
          }
          break;
        case PassType::BackwardWeight:
          graph.add_mem(op, {dev, mem::kActivation, -act_full * wkeep, true});
          break;
      }

      // Non-parallel vocabulary: forward of the last stage is followed by
      // the output GEMM + loss on the same device.
      if (!spec.vocab_parallel && pass.type == PassType::Forward &&
          stage == num_stages - 1) {
        const sim::OpId vf = graph.add_compute(dev, vf_time,
                                               sim::OpClass::VocabForward,
                                               {op});
        graph.set_tag(vf, pass.microbatch, pass.slice, stage);
        graph.add_mem(vf, {dev, mem::kLogits, logits_slice, false});
        index.emplace(pack_key(PassType::BackwardWeight,
                               pass.microbatch, pass.slice,
                               stage + 2 * num_stages /*VF namespace*/),
                      vf);
        device_ops[static_cast<std::size_t>(dev)].push_back(vf);
      }
    }

    // Optimizer tail: parameter update + exposed data-parallel gradient
    // communication.
    const double params = device_params(spec.cfg, spec.shard,
                                        layers_of_device(dev),
                                        vocab_fraction_of(dev));
    const double update_time = params * 18.0 / spec.gpu.hbm_bandwidth;
    double dp_time = 0.0;
    if (spec.d > 1) {
      const double rs = topo.ring_collective_time(static_cast<int>(spec.d),
                                                  params * 4.0, true);
      const double ag = topo.ring_collective_time(static_cast<int>(spec.d),
                                                  params * 2.0, true);
      dp_time = spec.dp_exposed_fraction * (rs + ag);
    }
    const sim::OpId opt = graph.add_compute(dev, update_time + dp_time,
                                            sim::OpClass::Optimizer, {});
    graph.set_tag(opt, -1, -1, -1);
  }

  // ---- pass 2: dependencies and transfers ----
  auto find = [&](PassType type, std::int32_t mb, std::int32_t slice,
                  std::int32_t stage) -> sim::OpId {
    auto it = index.find(pack_key(type, mb, slice, stage));
    return it == index.end() ? sim::kInvalidOp : it->second;
  };
  auto find_vocab = [&](bool forward, std::int32_t mb,
                        std::int32_t slice) -> sim::OpId {
    const std::int32_t ns = forward ? 2 * num_stages : num_stages;
    auto it = index.find(pack_key(PassType::BackwardWeight, mb, slice,
                                  (num_stages - 1) + ns));
    return it == index.end() ? sim::kInvalidOp : it->second;
  };

  for (int dev = 0; dev < spec.p; ++dev) {
    for (const Pass& pass : programs[static_cast<std::size_t>(dev)]) {
      const int stage = layout.stage_of(dev, pass.chunk);
      const double boundary = cost.boundary_bytes(len_of(pass));
      const sim::OpId op = find(pass.type, pass.microbatch, pass.slice, stage);
      SLIM_CHECK(op != sim::kInvalidOp, "op disappeared from index");

      // Lane 0: forward activations; lane 1: backward gradients. Distinct
      // lanes mirror the separate communicators a real stack uses and keep
      // unrelated traffic from serializing.
      auto link_from = [&](sim::OpId producer, int producer_stage, int lane) {
        SLIM_CHECK(producer != sim::kInvalidOp,
                   "missing producer pass for stage dependency");
        const int src = layout.device_of(producer_stage);
        if (src == dev) {
          graph.op(op).deps.push_back(producer);
        } else {
          const sim::OpId xfer = graph.add_transfer(
              src, dev, boundary, sim::OpClass::Send, {producer}, lane);
          graph.set_tag(xfer, pass.microbatch, pass.slice, stage);
          graph.op(op).deps.push_back(xfer);
        }
      };

      switch (pass.type) {
        case PassType::Forward:
          if (stage > 0) {
            link_from(find(PassType::Forward, pass.microbatch, pass.slice,
                           stage - 1),
                      stage - 1, /*lane=*/0);
          }
          break;
        case PassType::Backward:
        case PassType::BackwardInput: {
          const sim::OpId fwd =
              find(PassType::Forward, pass.microbatch, pass.slice, stage);
          SLIM_CHECK(fwd != sim::kInvalidOp, "backward without forward");
          graph.op(op).deps.push_back(fwd);
          if (stage < num_stages - 1) {
            // The next stage retires the unit with a full B or with a BI,
            // independently of this pass's kind.
            sim::OpId producer = find(PassType::Backward, pass.microbatch,
                                      pass.slice, stage + 1);
            if (producer == sim::kInvalidOp) {
              producer = find(PassType::BackwardInput, pass.microbatch,
                              pass.slice, stage + 1);
            }
            link_from(producer, stage + 1, /*lane=*/1);
          } else if (!spec.vocab_parallel) {
            const sim::OpId vf = find_vocab(true, pass.microbatch, pass.slice);
            const sim::OpId vb = find_vocab(false, pass.microbatch, pass.slice);
            SLIM_CHECK(vf != sim::kInvalidOp && vb != sim::kInvalidOp,
                       "missing vocabulary ops at last stage");
            graph.op(vb).deps.push_back(vf);
            graph.op(op).deps.push_back(vb);
          }
          break;
        }
        case PassType::BackwardWeight: {
          const sim::OpId bi = find(PassType::BackwardInput, pass.microbatch,
                                    pass.slice, stage);
          SLIM_CHECK(bi != sim::kInvalidOp, "weight grad without input grad");
          graph.op(op).deps.push_back(bi);
          break;
        }
      }
    }
  }

  // ---- context-exchange transfers ----
  // The incoming payload (Q+KV for the lighter device, partial O for the
  // heavier one) is launched as soon as the previous pass of the pipeline
  // tick completes ("Early Key-Value Exchange"), so it overlaps with
  // compute unless the interconnect is the bottleneck. In an aligned
  // (balanced) pipeline the partner's previous pass ends at the same tick
  // as the receiver's, so the receiver's own previous op is used as the
  // launch anchor — this keeps the graph acyclic by construction.
  if (!exchange_refs.empty()) {
    std::unordered_map<sim::OpId, int> pos;
    for (int dev = 0; dev < spec.p; ++dev) {
      const auto& ops = device_ops[static_cast<std::size_t>(dev)];
      for (std::size_t i = 0; i < ops.size(); ++i) {
        pos.emplace(ops[i], static_cast<int>(i));
      }
    }
    for (const ExchangeRef& ref : exchange_refs) {
      const auto& own_ops = device_ops[static_cast<std::size_t>(ref.device)];
      const int my_pos = pos.at(ref.op);
      // "Early Key-Value Exchange" (§5): the payload is mostly KV of
      // *earlier* slices, so it can launch two passes ahead and overlap
      // with the previous pass's compute.
      sim::OpId anchor = sim::kInvalidOp;
      if (my_pos >= 2) {
        anchor = own_ops[static_cast<std::size_t>(my_pos - 2)];
      } else if (my_pos == 1) {
        anchor = own_ops[0];
      }
      for (const ExchangeOracle::Exchange& ex : ref.plan.exchanges) {
        if (ex.recv_bytes <= 0.0) continue;
        SLIM_CHECK(ex.partner >= 0 && ex.partner < spec.p,
                   "bad exchange partner");
        std::vector<sim::OpId> deps;
        if (anchor != sim::kInvalidOp) deps.push_back(anchor);
        const sim::OpId xfer = graph.add_transfer(
            ex.partner, ref.device, ex.recv_bytes, sim::OpClass::ExchangeSend,
            std::move(deps), /*lane=*/2);
        const sim::Op& main_op = graph.op(ref.op);
        graph.set_tag(xfer, main_op.microbatch, main_op.slice, main_op.stage);
        graph.op(ref.op).deps.push_back(xfer);
      }
    }
  }
  output.exchange_bytes_max_device =
      *std::max_element(exchange_sent.begin(), exchange_sent.end());

  // ---- static model-state baseline ----
  for (int dev = 0; dev < spec.p; ++dev) {
    const double params = device_params(spec.cfg, spec.shard,
                                        layers_of_device(dev),
                                        vocab_fraction_of(dev));
    output.baseline.push_back({dev, mem::kParams, params * 2.0});
    // fp32 main gradients (mixed-precision accumulation, paper 6.1).
    output.baseline.push_back({dev, mem::kGrads, params * 4.0});
    output.baseline.push_back(
        {dev, mem::kOptimizer,
         params * 12.0 / static_cast<double>(std::max<std::int64_t>(1, spec.d))});
  }
  return output;
}

namespace {

ScheduleResult assemble_result(const PipelineSpec& spec,
                               const BuildOutput& built,
                               const sim::ExecResult& exec,
                               const std::string& scheme_name,
                               bool want_timeline) {
  const mem::MemoryReport memory =
      mem::replay_memory(*built.graph, exec, spec.p, built.baseline);

  const model::CostModel cost(spec.cfg, spec.gpu, pipeline_topology(spec),
                              spec.shard, spec.policy, spec.cp_mode);
  ScheduleResult result;
  result.scheme = scheme_name;
  result.iteration_time = exec.makespan;
  result.bubble_fraction = exec.mean_bubble_fraction(spec.p);
  const double gpus = static_cast<double>(spec.shard.t * spec.shard.c) *
                      static_cast<double>(spec.p);
  // Sum per-microbatch model FLOPs so elastic (variable-length) iterations
  // get the right basis; uniform specs reduce to model_flops_iteration.
  double model_flops = 0.0;
  for (int mb = 0; mb < spec.m; ++mb) {
    model_flops += 3.0 * cost.model_flops_forward(spec.seq_of(mb));
  }
  result.mfu = model_flops / (exec.makespan * gpus * spec.gpu.peak_flops);
  result.peak_memory = memory.max_peak();
  result.first_device_memory = memory.devices.front().peak;
  result.last_device_memory = memory.devices.back().peak;
  for (const mem::DeviceMemory& dev : memory.devices) {
    result.device_peaks.push_back(dev.peak);
  }
  result.exchange_bytes_max_device = built.exchange_bytes_max_device;
  result.oom = result.peak_memory >
               spec.gpu.memory_bytes - kMemoryReserveBytes;
  if (want_timeline) {
    result.ascii_timeline = sim::ascii_timeline(*built.graph, exec);
  }
  result.metrics = obs::metrics_from_sim(*built.graph, exec, spec.p, &memory);
  result.metrics.scheme = scheme_name;
  result.memory = memory;
  return result;
}

}  // namespace

ScheduleResult run_pipeline(const PipelineSpec& spec,
                            const std::vector<DeviceProgram>& programs,
                            const ExchangeOracle* exchange,
                            const std::string& scheme_name,
                            bool want_timeline, obs::Trace* trace,
                            const fault::FaultPlan* faults,
                            fault::FaultReport* report) {
  if (faults != nullptr) {
    const std::vector<fault::PlanIssue> issues =
        fault::validate(*faults, spec.p);
    SLIM_CHECK(issues.empty(),
               "invalid fault plan:\n" + fault::render(issues));
  }
  // The trace wants the structured fault events even when the caller did
  // not ask for a report.
  fault::FaultReport local_report;
  if (report == nullptr) report = &local_report;
  BuildOutput built = compile(spec, programs, exchange);
  const double injected =
      faults != nullptr ? fault::apply_to_graph(*built.graph, *faults, report)
                        : 0.0;
  const sim::ExecResult exec = sim::execute(*built.graph);
  ScheduleResult result =
      assemble_result(spec, built, exec, scheme_name, want_timeline);
  if (faults != nullptr) {
    const double recovery =
        fault::recovery_overhead(*built.graph, exec, *faults, report);
    result.fault_injected_seconds = injected;
    result.fault_recovery_seconds = recovery;
    result.iteration_time += recovery;
    // MFU degrades with the effective iteration time.
    result.mfu *= exec.makespan / result.iteration_time;
  }
  if (trace != nullptr) {
    *trace = obs::trace_from_sim(*built.graph, exec);
    if (faults != nullptr) obs::append_fault_events(*trace, report->events);
  }
  return result;
}

}  // namespace slim::sched
