// train_long / train_fine: one training step on the threaded runtime and the
// same step on the multi-process runtime, same inputs, same model seed.

#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>

#include "perfbench.hpp"
#include "src/dist/process_pipeline.hpp"
#include "src/dist/wire.hpp"
#include "src/numerics/attention.hpp"
#include "src/numerics/cross_entropy.hpp"
#include "src/numerics/norm_act.hpp"
#include "src/runtime/pipeline_runtime.hpp"
#include "src/util/thread_pool.hpp"

namespace perfbench {
namespace {

using Batch = std::vector<std::vector<std::int64_t>>;
using Result = rt::ThreadedPipeline::Result;

constexpr double kMiB = 1024.0 * 1024.0;
constexpr float kReferenceTolerance = 5e-5f;

struct TrainShape {
  num::BlockDims dims;
  std::int64_t vocab = 0;
  int layers = 0;
  int stages = 0;
  int microbatches = 0;
  std::int64_t seq = 0;
  int slices = 0;

  std::int64_t slice_len() const { return seq / slices; }
  std::int64_t tokens() const { return microbatches * seq; }
};

// train_long: kernels fill the stages' busy time (64 data frames a step).
// train_fine: the same stage discipline driven by 2,048 tiny frames a step,
// so runtime and transport overhead dominate.
TrainShape train_shape(const Run& run) {
  if (run.tiny) return {{32, 4, 2, 48}, 32, 3, 3, 2, 32, 4};
  if (run.workload == "train_long") return {{128, 8, 4, 384}, 512, 3, 3, 2, 1024, 8};
  return {{32, 8, 4, 64}, 64, 3, 3, 8, 256, 64};
}

/// The kernel cap the threaded runtime gives each stage by default.
int stage_kernel_cap(const TrainShape& shape) {
  return std::max(1, util::ThreadPool::global().max_threads() / shape.stages);
}

struct Rig {
  TrainShape shape;
  Batch tokens, targets;
  std::unique_ptr<rt::ThreadedPipeline> threaded;
  std::unique_ptr<dist::ProcessPipeline> process;

  Rig(const TrainShape& s, std::uint64_t seed) : shape(s) {
    Rng data(seed);
    for (int mb = 0; mb < s.microbatches; ++mb) {
      std::vector<std::int64_t> tok, tgt;
      for (std::int64_t i = 0; i < s.seq; ++i) {
        tok.push_back(static_cast<std::int64_t>(
            data.next_below(static_cast<std::uint64_t>(s.vocab))));
        tgt.push_back(static_cast<std::int64_t>(
            data.next_below(static_cast<std::uint64_t>(s.vocab))));
      }
      tokens.push_back(std::move(tok));
      targets.push_back(std::move(tgt));
    }
    // Both backends build their weights from the same model seed.
    const std::uint64_t model_seed = seed * 0x9e3779b97f4a7c15ULL + 1;
    Rng threaded_rng(model_seed);
    Rng process_rng(model_seed);
    threaded = std::make_unique<rt::ThreadedPipeline>(
        s.dims, s.vocab, s.layers, s.stages, threaded_rng);
    process = std::make_unique<dist::ProcessPipeline>(
        s.dims, s.vocab, s.layers, s.stages, process_rng);
  }
};

struct Step {
  Result threaded, process;
  double threaded_s = 0.0;
  double process_s = 0.0;
};

Step run_step(Rig& rig, obs::Recorder* rec) {
  Step step;
  rt::RunOptions threaded_options;
  threaded_options.n_slices = rig.shape.slices;
  threaded_options.recorder = rec;
  step.threaded_s = timed(rec, "threaded step", [&] {
    step.threaded =
        rig.threaded->run_iteration(rig.tokens, rig.targets, threaded_options);
  });
  dist::ProcessOptions process_options;
  process_options.n_slices = rig.shape.slices;
  process_options.recorder = rec;
  step.process_s = timed(rec, "process step", [&] {
    step.process =
        rig.process->run_iteration(rig.tokens, rig.targets, process_options);
  });
  return step;
}

/// Paper Eq. 1: stage r holds n + 2(p-1-r) live slices at its peak, capped
/// at the m*n slices a step has.
void expect_eq1(Checks& checks, const char* backend, const TrainShape& s,
                const std::vector<int>& peaks) {
  checks.expect(static_cast<int>(peaks.size()) == s.stages,
                std::string(backend) + ": one peak per stage");
  for (std::size_t r = 0; r < peaks.size(); ++r) {
    const int want = std::min(s.slices + 2 * (s.stages - 1 - static_cast<int>(r)),
                              s.microbatches * s.slices);
    checks.expect(peaks[r] == want,
                  std::string(backend) + ": stage " + std::to_string(r) +
                      " peak live slices " + std::to_string(peaks[r]) +
                      " != Eq. 1 " + std::to_string(want));
  }
}

void check_step(Checks& checks, const Rig& rig, const Step& step,
                const Result& reference) {
  const TrainShape& s = rig.shape;
  checks.expect(step.threaded.grads.max_abs_diff(step.process.grads) == 0.0f,
                "threaded and process gradients differ");
  for (const auto& [name, result] :
       {std::pair<const char*, const Result*>{"threaded", &step.threaded},
        {"process", &step.process}}) {
    checks.expect(std::abs(result->loss - reference.loss) <= kReferenceTolerance,
                  std::string(name) + " loss is off the reference");
    checks.expect(result->grads.max_abs_diff(reference.grads) <=
                      kReferenceTolerance,
                  std::string(name) + " gradients are off the reference");
    expect_eq1(checks, name, s, result->stats.peak_live_slices);
  }
  // Fault-free wire reconciliation (bench_dist_sockets): each interior
  // boundary carries m*n frames each way.
  const auto& stages = step.process.stats.metrics.stages;
  checks.expect(static_cast<int>(stages.size()) == s.stages,
                "process: one metrics row per stage");
  for (std::size_t r = 0; r < stages.size(); ++r) {
    const std::int64_t links = (r > 0 ? 1 : 0) +
                               (static_cast<int>(r) + 1 < s.stages ? 1 : 0);
    const std::int64_t frames = links * s.microbatches * s.slices;
    checks.expect(stages[r].frames_sent == frames &&
                      stages[r].frames_recv == frames,
                  "process: stage " + std::to_string(r) +
                      " frames do not reconcile with links*m*n");
    checks.expect(stages[r].crc_rejects == 0 && stages[r].send_retries == 0,
                  "process: CRC rejects or send retries on a fault-free run");
  }
  checks.expect(step.process.stats.replayed_microbatches.empty(),
                "process: microbatches replayed on a fault-free run");
}

Result reference_of(Rig& rig) {
  return rig.threaded->run_reference(rig.tokens, rig.targets);
}

// ---------------------------------------------------------------------------
// Per-layer probes

/// One step's per-stage compute replayed through the numerics calls each
/// stage makes: its layers' forward_slice / backward_slice for every
/// microbatch and, on the head stage, the output head of every slice.
struct Replay {
  std::vector<double> stage_s;
  std::vector<double> layer_fwd_s;  // per (layer, microbatch)
  std::vector<double> layer_bwd_s;
  std::vector<double> head_s;       // per slice: matmul_nt + cross_entropy
};

Replay replay_step(const rt::PipelineModel& model, const TrainShape& s,
                   const Batch& targets, int kernel_cap, obs::Recorder* rec) {
  util::ScopedKernelThreads cap(kernel_cap);
  Rng rng(7);
  const std::int64_t len = s.slice_len();
  const std::int64_t hidden = s.dims.hidden;
  Replay out;
  for (int stage = 0; stage < s.stages; ++stage) {
    const auto [lo, hi] = model.stage_layers[static_cast<std::size_t>(stage)];
    const bool head = stage == model.head_stage();
    num::ArenaStats arena;  // outlives the layers whose arenas report to it
    std::vector<num::Layer> layers;
    for (int l = lo; l < hi; ++l) {
      layers.emplace_back(model.dims, model.layer_weights[static_cast<std::size_t>(l)]);
      layers.back().set_arena_stats(&arena);
    }
    std::vector<num::LayerGrads> grads(layers.size(),
                                       num::LayerGrads::zeros(model.dims));
    num::Tensor norm_grad(1, hidden);
    num::Tensor head_grad(model.vocab, hidden);
    double stage_s = 0.0;
    for (int mb = 0; mb < s.microbatches; ++mb) {
      std::vector<double> fwd(layers.size(), 0.0), bwd(layers.size(), 0.0);
      for (int j = 0; j < s.slices; ++j) {
        num::Tensor x = num::Tensor::randn(len, hidden, rng, 1.0f);
        for (std::size_t l = 0; l < layers.size(); ++l) {
          fwd[l] += timed(rec, "replay forward_slice",
                          [&] { x = layers[l].forward_slice(x, j * len, mb); });
        }
        if (!head) continue;
        const auto& mb_targets = targets[static_cast<std::size_t>(mb)];
        const std::vector<std::int64_t> slice_targets(
            mb_targets.begin() + j * len, mb_targets.begin() + (j + 1) * len);
        num::Tensor hid;
        num::CeResult ce;
        const double head_s = timed(rec, "replay head", [&] {
          hid = num::rmsnorm(x, model.final_norm);
          const num::Tensor logits = num::matmul_nt(hid, model.embedding);
          ce = num::cross_entropy(logits, slice_targets);
        });
        out.head_s.push_back(head_s);
        stage_s += head_s + timed(rec, "replay head backward", [&] {
          head_grad.add_(num::matmul_tn(ce.dlogits, hid));
          const num::Tensor dhidden = num::matmul(ce.dlogits, model.embedding);
          num::rmsnorm_bwd(x, model.final_norm, dhidden, norm_grad);
        });
      }
      for (int j = s.slices - 1; j >= 0; --j) {
        num::Tensor dx = num::Tensor::randn(len, hidden, rng, 1.0f);
        for (std::size_t l = layers.size(); l-- > 0;) {
          bwd[l] += timed(rec, "replay backward_slice",
                          [&] { dx = layers[l].backward_slice(dx, grads[l], mb); });
        }
      }
      for (std::size_t l = 0; l < layers.size(); ++l) {
        out.layer_fwd_s.push_back(fwd[l]);
        out.layer_bwd_s.push_back(bwd[l]);
        stage_s += fwd[l] + bwd[l];
      }
    }
    out.stage_s.push_back(stage_s);
  }
  return out;
}

/// attn_streamed / attn_streamed_bwd for the last slice, all heads, in
/// parallel over heads the way Layer calls them. Returns {fwd, bwd} seconds.
std::pair<double, double> attention_probe(const TrainShape& s, int kernel_cap) {
  util::ScopedKernelThreads cap(kernel_cap);
  Rng rng(11);
  const std::int64_t len = s.slice_len();
  const std::int64_t hd = s.dims.head_dim();
  const std::int64_t heads = s.dims.heads;
  const std::int64_t group = heads / s.dims.kv_heads;
  const std::int64_t q_offset = (s.slices - 1) * len;
  const float scale = 1.0f / std::sqrt(static_cast<float>(hd));
  std::vector<num::Tensor> q, dout;
  for (std::int64_t h = 0; h < heads; ++h) {
    q.push_back(num::Tensor::randn(len, hd, rng, 1.0f));
    dout.push_back(num::Tensor::randn(len, hd, rng, 1.0f));
  }
  std::vector<std::vector<num::KvChunk>> chunks(
      static_cast<std::size_t>(s.dims.kv_heads));
  for (auto& per_head : chunks) {
    for (int j = 0; j < s.slices; ++j) {
      per_head.push_back({num::Tensor::randn(len, hd, rng, 1.0f),
                          num::Tensor::randn(len, hd, rng, 1.0f), j * len});
    }
  }
  std::vector<num::AttnPartial> fwd(static_cast<std::size_t>(heads));
  auto& pool = util::ThreadPool::global();
  const double fwd_s = time_per_call([&] {
    pool.parallel_for(0, heads, 1, [&](std::int64_t h0, std::int64_t h1) {
      for (std::int64_t h = h0; h < h1; ++h) {
        fwd[static_cast<std::size_t>(h)] = num::attn_streamed(
            q[static_cast<std::size_t>(h)],
            chunks[static_cast<std::size_t>(h / group)], q_offset, scale);
      }
    });
  });
  const double bwd_s = time_per_call([&] {
    pool.parallel_for(0, heads, 1, [&](std::int64_t h0, std::int64_t h1) {
      for (std::int64_t h = h0; h < h1; ++h) {
        const auto& kv = chunks[static_cast<std::size_t>(h / group)];
        std::vector<num::Tensor> dk, dv;
        for (const num::KvChunk& c : kv) {
          dk.emplace_back(c.k.rows(), hd);
          dv.emplace_back(c.v.rows(), hd);
        }
        num::Tensor dq;
        num::attn_streamed_bwd(q[static_cast<std::size_t>(h)], kv, q_offset,
                               scale, fwd[static_cast<std::size_t>(h)],
                               dout[static_cast<std::size_t>(h)], dq, dk, dv);
      }
    });
  });
  return {fwd_s, bwd_s};
}

/// GFLOP/s of the three matmul variants at the FFN projection shapes: the
/// gate projection and the two products of its backward.
void matmul_probe(const TrainShape& s, int kernel_cap, Metrics& out) {
  util::ScopedKernelThreads cap(kernel_cap);
  Rng rng(13);
  const std::int64_t len = s.slice_len();
  const std::int64_t h = s.dims.hidden;
  const std::int64_t f = s.dims.ffn;
  const num::Tensor x = num::Tensor::randn(len, h, rng);
  const num::Tensor w_gate = num::Tensor::randn(h, f, rng);
  const num::Tensor w_down = num::Tensor::randn(f, h, rng);
  const num::Tensor dgate = num::Tensor::randn(len, f, rng);
  const double gflop = 2.0 * static_cast<double>(len * h * f) / 1e9;
  put(out, "numerics.matmul_gflops",
      gflop / time_per_call([&] { num::matmul(x, w_gate); }), "GFLOP/s");
  put(out, "numerics.matmul_nt_gflops",
      gflop / time_per_call([&] { num::matmul_nt(x, w_down); }), "GFLOP/s");
  put(out, "numerics.matmul_tn_gflops",
      gflop / time_per_call([&] { num::matmul_tn(x, dgate); }), "GFLOP/s");
}

/// Model FLOPs of one step, GFLOP: three times the forward (projections,
/// causal attention, output head).
double step_gflop(const TrainShape& s) {
  const double seq = static_cast<double>(s.seq);
  const double h = static_cast<double>(s.dims.hidden);
  const double kvh = static_cast<double>(s.dims.kv_hidden());
  const double f = static_cast<double>(s.dims.ffn);
  const double proj = 2.0 * seq * (2.0 * h * h + 2.0 * h * kvh + 3.0 * h * f);
  const double attn = 4.0 * h * seq * (seq + 1.0) / 2.0;
  const double head = 2.0 * seq * h * static_cast<double>(s.vocab);
  const double forward = static_cast<double>(s.layers) * (proj + attn) + head;
  return 3.0 * forward * static_cast<double>(s.microbatches) / 1e9;
}

/// send_frame + recv_frame round trip of one slice payload over a socket
/// pair, microseconds; and CRC-32 throughput over the same bytes, GB/s.
void wire_probe(const TrainShape& s, Checks& checks, Metrics& out) {
  const std::size_t payload =
      16 + static_cast<std::size_t>(s.slice_len() * s.dims.hidden) * 4;
  dist::SocketPair pair = dist::make_socket_pair();
  dist::Frame frame;
  frame.kind = dist::FrameKind::Forward;
  frame.stage = 0;
  frame.mb = 0;
  frame.slice = 0;
  frame.payload.assign(payload, 0x5a);
  dist::Frame got;
  bool ok = true;
  const double round_trip_s = time_per_call([&] {
    ok = ok && dist::send_frame(pair.a.get(), frame) &&
         dist::recv_frame(pair.b.get(), &got) == dist::IoStatus::Ok;
  });
  checks.expect(ok && got.payload == frame.payload,
                "wire probe: frame did not round-trip");
  put(out, "dist.wire_frame_us", round_trip_s * 1e6, "us");
  const double crc_s = time_per_call(
      [&] { dist::crc32(frame.payload.data(), frame.payload.size()); });
  put(out, "dist.crc_gb_per_s", static_cast<double>(payload) / crc_s / 1e9,
      "GB/s");
}

/// The per-layer view of one step on one backend, from the PipelineStats
/// the call returned.
Metrics step_layers(const std::string& prefix, const Result& r, double wall_s,
                    const TrainShape& s, const Replay& replay) {
  Metrics out;
  const auto& stages = r.stats.metrics.stages;
  double busy_max = 0.0, blocked = 0.0, comm = 0.0, overhead = 0.0,
         stage_peak = 0.0, frames = 0.0, bytes = 0.0, crc = 0.0,
         retries = 0.0, queue = 0.0, messages = 0.0;
  int live = 0;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const obs::StageMetrics& sm = stages[i];
    busy_max = std::max(busy_max, sm.compute_seconds);
    blocked += sm.blocked_recv_seconds;
    comm += sm.comm_seconds;
    overhead += sm.compute_seconds - replay.stage_s[i];
    stage_peak = std::max(stage_peak, sm.measured_peak_total / kMiB);
    frames += static_cast<double>(sm.frames_sent);
    bytes += sm.p2p_bytes;
    crc += static_cast<double>(sm.crc_rejects);
    retries += static_cast<double>(sm.send_retries);
    queue = std::max(queue, static_cast<double>(sm.peak_queue_depth));
    messages += static_cast<double>(sm.p2p_messages);
    live = std::max(live, sm.peak_live_slices);
  }
  put(out, prefix + ".tokens_per_s", static_cast<double>(s.tokens()) / wall_s,
      "1/s");
  put(out, prefix + ".busy_max_s", busy_max, "s");
  put(out, prefix + ".bubble_frac", r.stats.metrics.mean_bubble_fraction(),
      "frac");
  put(out, prefix + ".blocked_recv_s", blocked, "s");
  put(out, prefix + ".overhead_s", overhead, "s");
  put(out, prefix + ".stage_peak_mib", stage_peak, "MiB");
  if (prefix == "runtime") {
    put(out, "runtime.messages", messages, "count");
    put(out, "runtime.peak_queue_depth", queue, "count");
    put(out, "runtime.peak_live_slices", live, "count");
  } else {
    put(out, "dist.comm_s", comm, "s");
    put(out, "dist.frames", frames, "count");
    put(out, "dist.bytes", bytes, "B");
    put(out, "dist.crc_rejects", crc, "count");
    put(out, "dist.send_retries", retries, "count");
    put(out, "dist.replayed_mb",
        static_cast<double>(r.stats.replayed_microbatches.size()), "count");
  }
  return out;
}

}  // namespace

std::string train_threads(const Run& run) {
  const TrainShape s = train_shape(run);
  return "stages=" + std::to_string(s.stages) + " stage_threads=" +
         std::to_string(s.stages) + " kernel_cap=" +
         std::to_string(stage_kernel_cap(s)) + " worker_processes=" +
         std::to_string(s.stages) + " worker_kernel_threads=1";
}

Samples train_e2e(const Run& run, Tally& tally) {
  Samples out;
  const TrainShape shape = train_shape(run);
  constexpr int kSetups = 3;
  std::unique_ptr<Rig> rig;
  std::optional<Result> reference;
  for (int i = 0; i < kSetups; ++i) {
    Step warm;
    tally.attempt("train set-up", [&](Checks& checks) {
      const auto start = Clock::now();
      rig.reset();
      rig = std::make_unique<Rig>(shape, run.seed);
      warm = run_step(*rig, nullptr);
      out.setup_s.push_back(since(start));
      if (!reference) reference = reference_of(*rig);  // untimed
      check_step(checks, *rig, warm, *reference);
    });
  }
  out.peak_rss_mib = peak_rss_mib();
  if (rig && reference) {
    for_seconds(run.seconds, [&] {
      tally.attempt("train step", [&](Checks& checks) {
        const Step step = run_step(*rig, nullptr);
        out.op_s.push_back(step.threaded_s + step.process_s);
        check_step(checks, *rig, step, *reference);
      });
    });
  }
  return out;
}

Metrics train_layers(const Run& run, Tally& tally, obs::Recorder* rec) {
  const TrainShape shape = train_shape(run);
  Metrics out;
  Rig rig(shape, run.seed);
  Result reference;
  const double reference_s =
      timed(rec, "run_reference", [&] { reference = reference_of(rig); });
  tally.attempt("train warm-up", [&](Checks& checks) {
    check_step(checks, rig, run_step(rig, nullptr), reference);
  });

  const int cap = stage_kernel_cap(shape);
  // Forked stage workers run their kernels single-threaded.
  const Replay threaded_replay =
      replay_step(rig.threaded->model(), shape, rig.targets, cap, rec);
  const Replay process_replay =
      cap == 1 ? threaded_replay
               : replay_step(rig.threaded->model(), shape, rig.targets, 1, rec);
  put(out, "numerics.layer_fwd_ms", 1e3 * median(threaded_replay.layer_fwd_s), "ms");
  put(out, "numerics.layer_bwd_ms", 1e3 * median(threaded_replay.layer_bwd_s), "ms");
  std::pair<double, double> attn;
  timed(rec, "attention probe", [&] { attn = attention_probe(shape, cap); });
  put(out, "numerics.attn_fwd_ms", 1e3 * attn.first, "ms");
  put(out, "numerics.attn_bwd_ms", 1e3 * attn.second, "ms");
  timed(rec, "matmul probe", [&] { matmul_probe(shape, cap, out); });
  put(out, "numerics.head_ms", 1e3 * median(threaded_replay.head_s), "ms");
  put(out, "numerics.step_gflop", step_gflop(shape), "GFLOP");
  put(out, "numerics.fma_peak_gflops", fma_peak_gflops(), "GFLOP/s");
  put(out, "runtime.single_worker_tokens_per_s",
      static_cast<double>(shape.tokens()) / reference_s, "1/s");
  tally.attempt("wire probe", [&](Checks& checks) {
    timed(rec, "wire probe", [&] { wire_probe(shape, checks, out); });
  });

  // Untraced steps give the layer numbers; traced ones the tracing cost.
  // Only the first traced step records into the exported trace.
  std::vector<Metrics> samples;
  std::vector<double> untraced_s, traced_s;
  for_seconds(run.seconds, [&] {
    tally.attempt("train step", [&](Checks& checks) {
      const Step step = run_step(rig, nullptr);
      check_step(checks, rig, step, reference);
      untraced_s.push_back(step.threaded_s + step.process_s);
      Metrics sample = step_layers("runtime", step.threaded, step.threaded_s,
                                   shape, threaded_replay);
      merge_missing(sample, step_layers("dist", step.process, step.process_s,
                                        shape, process_replay));
      samples.push_back(std::move(sample));
    });
    if (rec == nullptr) return;
    tally.attempt("traced train step", [&](Checks& checks) {
      obs::Recorder scratch;
      const Step step = run_step(rig, traced_s.empty() ? rec : &scratch);
      check_step(checks, rig, step, reference);
      traced_s.push_back(step.threaded_s + step.process_s);
    });
  });
  merge_missing(out, median_of(samples));
  if (rec != nullptr) {
    put(out, "obs.trace_overhead_s", median(traced_s) - median(untraced_s), "s");
  }
  return out;
}

}  // namespace perfbench
