// Numerics-kernel throughput on the shared parallel engine
// (src/util/thread_pool.hpp). For each hot kernel the bench sweeps the
// pool width in-process (ThreadPool::set_threads), reporting GFLOP/s,
// speedup over the serial run, and — the engine's contract — whether the
// output is bit-identical to the 1-thread result at every width. Next to
// the sweep it runs each kernel serially on every ISA path the CPU supports
// (src/numerics/isa.hpp) and requires the same bits on each; either
// mismatch makes the process exit nonzero.
//
// SLIMPIPE_BENCH_SMOKE=1 shrinks the shapes so the sweep finishes in
// seconds (the `perf`-labelled ctest smoke uses it); the full shapes
// include the 1024^3 matmul the roadmap's speedup target is quoted on.

#include "bench_common.hpp"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "src/numerics/arena.hpp"
#include "src/numerics/cross_entropy.hpp"
#include "src/numerics/isa.hpp"
#include "src/numerics/norm_act.hpp"
#include "src/numerics/tensor.hpp"
#include "src/numerics/transformer_block.hpp"
#include "src/util/rng.hpp"
#include "src/util/thread_pool.hpp"
#include "src/util/units.hpp"

using namespace slim;
using num::Tensor;

namespace {

bool g_all_identical = true;
bool g_paths_identical = true;

double seconds_of(const std::function<void()>& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  const auto stop = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(stop - start).count();
}

std::vector<int> sweep_widths() {
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  std::vector<int> widths = {1, 2, 4, 8};
  if (hw > 1) {
    bool present = false;
    for (int w : widths) present = present || w == hw;
    if (!present) widths.push_back(hw);
  }
  return widths;
}

bool same_bits(const Tensor& a, const Tensor& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(),
                      static_cast<std::size_t>(a.size()) * sizeof(float)) ==
              0);
}

/// Runs `fn` (which returns the kernel output) at every pool width,
/// appending one row per width to `widths` with GFLOP/s, speedup over the
/// 1-thread time, heap-allocation count, peak workspace bytes, and the
/// bit-identity verdict against the 1-thread output. Workspace peak is the
/// high-water mark across every thread's scratch arena during the call;
/// allocs counts Tensor heap buffers the call churned. Then runs `fn` on one
/// thread on every ISA path, appending one row per path to `paths` with
/// GFLOP/s, the speedup over the baseline path and whether every output bit
/// matches the baseline path's.
void sweep_kernel(Table& widths, Table& paths, const std::string& kernel,
                  double gflop, const std::function<Tensor()>& fn) {
  util::ThreadPool& pool = util::ThreadPool::global();
  const int restore = pool.max_threads();
  double serial_time = 0.0;
  Tensor serial_out;
  for (int width : sweep_widths()) {
    pool.set_threads(width);
    Tensor out;
    num::workspace_stats().reset();
    const std::int64_t heap_before = num::tensor_heap_allocs();
    const double time = seconds_of([&] { out = fn(); });
    const std::int64_t heap_allocs = num::tensor_heap_allocs() - heap_before;
    const std::int64_t peak_ws = num::workspace_stats().total_peak_bytes();
    if (width == 1) {
      serial_time = time;
      serial_out = out;
    }
    const bool identical = out.max_abs_diff(serial_out) == 0.0f;
    g_all_identical = g_all_identical && identical;
    char gflops[32], speedup[32];
    std::snprintf(gflops, sizeof gflops, "%.2f", gflop / time);
    std::snprintf(speedup, sizeof speedup, "%.2fx", serial_time / time);
    widths.add_row({kernel, std::to_string(width), format_time(time), gflops,
                    speedup, std::to_string(heap_allocs),
                    format_bytes(static_cast<double>(peak_ws)),
                    identical ? "yes" : "NO"});
  }

  pool.set_threads(1);
  double baseline_time = 0.0;
  Tensor baseline_out;
  for (num::detail::Isa isa : num::detail::available_isas()) {
    num::detail::ScopedIsa path(isa);
    Tensor out;
    const double time = seconds_of([&] { out = fn(); });
    if (isa == num::detail::Isa::kBaseline) {
      baseline_time = time;
      baseline_out = out;
    }
    const bool identical = same_bits(out, baseline_out);
    g_paths_identical = g_paths_identical && identical;
    char gflops[32], speedup[32];
    std::snprintf(gflops, sizeof gflops, "%.2f", gflop / time);
    std::snprintf(speedup, sizeof speedup, "%.2fx", baseline_time / time);
    paths.add_row({kernel, num::detail::isa_name(isa), format_time(time),
                   gflops, speedup, identical ? "yes" : "NO"});
  }
  pool.set_threads(restore);
}

}  // namespace

static void BM_Matmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  Rng rng(7);
  const Tensor a = Tensor::randn(n, n, rng);
  const Tensor b = Tensor::randn(n, n, rng);
  for (auto _ : state) benchmark::DoNotOptimize(num::matmul(a, b));
}
BENCHMARK(BM_Matmul)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond);

int main(int argc, char** argv) {
  slimbench::open_report("numerics_kernels");
  const bool smoke = slimbench::smoke_mode();
  slimbench::print_banner(
      "numerics kernels on the parallel engine",
      smoke ? "smoke shapes (SLIMPIPE_BENCH_SMOKE)" : "full shapes",
      "near-linear speedup until memory bandwidth saturates; outputs "
      "bit-identical at every thread count (the determinism contract)");

  Rng rng(7);
  Table table({"kernel", "threads", "time", "GFLOP/s", "speedup", "allocs",
               "peak ws", "bit-identical"});
  Table paths({"kernel", "ISA path", "time", "GFLOP/s", "vs baseline",
               "bit-identical"});

  // --- matmul: the roadmap's speedup target is quoted on 1024^3 ---
  {
    const std::int64_t n = smoke ? 128 : 1024;
    const Tensor a = Tensor::randn(n, n, rng);
    const Tensor b = Tensor::randn(n, n, rng);
    const double gflop = 2.0 * static_cast<double>(n) * n * n * 1e-9;
    const std::string shape = " " + std::to_string(n) + "^3";
    sweep_kernel(table, paths, "matmul" + shape, gflop,
                 [&] { return num::matmul(a, b); });
    sweep_kernel(table, paths, "matmul_nt" + shape, gflop,
                 [&] { return num::matmul_nt(a, b); });
    sweep_kernel(table, paths, "matmul_tn" + shape, gflop,
                 [&] { return num::matmul_tn(a, b); });
  }

  // --- rmsnorm over a long activation slab ---
  {
    const std::int64_t rows = smoke ? 256 : 8192, cols = smoke ? 128 : 1024;
    const Tensor x = Tensor::randn(rows, cols, rng);
    Tensor w(1, cols);
    w.fill(1.0f);
    const double gflop = 3.0 * static_cast<double>(rows) * cols * 1e-9;
    sweep_kernel(table, paths, "rmsnorm", gflop,
                 [&] { return num::rmsnorm(x, w); });
  }

  // --- transformer block forward and backward (one slice; the runtime's
  // unit of work) ---
  {
    num::BlockDims dims;
    dims.hidden = smoke ? 128 : 512;
    dims.heads = 8;
    dims.kv_heads = 4;
    dims.ffn = smoke ? 256 : 1536;
    const std::int64_t s = smoke ? 128 : 1024;
    num::Layer layer(dims, num::LayerWeights::random(dims, rng));
    const Tensor x = Tensor::randn(s, dims.hidden, rng);
    // Projections + FFN + attention (scores and values), approximately.
    const double gflop =
        (2.0 * s * dims.hidden *
             (2.0 * dims.hidden + 2.0 * dims.kv_hidden() + 3.0 * dims.ffn) +
         4.0 * s * s * dims.hidden) *
        1e-9;
    sweep_kernel(table, paths, "block fwd", gflop, [&] {
      layer.reset();
      return layer.forward_slice(x, 0, 0);
    });
    // A forward, then the same slice's backward (counted as twice the
    // forward's work): the only row that runs attention's backward body.
    Rng grad_rng(17);
    const Tensor dy = Tensor::randn(s, dims.hidden, grad_rng);
    sweep_kernel(table, paths, "block bwd", 3.0 * gflop, [&] {
      layer.reset();
      layer.forward_slice(x, 0, 0);
      num::LayerGrads grads = num::LayerGrads::zeros(dims);
      return layer.backward_slice(dy, grads, 0);
    });
  }

  // --- cross entropy (the output head's loss kernel) ---
  {
    const std::int64_t tokens = smoke ? 256 : 4096;
    const std::int64_t vocab = smoke ? 512 : 8192;
    const Tensor logits = Tensor::randn(tokens, vocab, rng);
    std::vector<std::int64_t> targets(static_cast<std::size_t>(tokens));
    for (std::size_t t = 0; t < targets.size(); ++t) {
      targets[t] = static_cast<std::int64_t>(t) % vocab;
    }
    const double gflop = 5.0 * static_cast<double>(tokens) * vocab * 1e-9;
    sweep_kernel(table, paths, "cross entropy", gflop,
                 [&] { return num::cross_entropy(logits, targets).dlogits; });
  }

  slimbench::print_table(std::string("kernel throughput vs pool width (") +
                             num::detail::isa_name(num::detail::active_isa()) +
                             " path)",
                         table);
  slimbench::print_table("kernel throughput per ISA path (1 thread)", paths);

  // --- arena vs heap ownership: block fwd+bwd over two slices ---
  //
  // The heap row churns one allocation per retained tensor per slice; the
  // arena row routes all of them through one per-microbatch bump arena,
  // collapsing the churn to block-granular reservations. In smoke mode the
  // measured arena peaks also gate the process exit: each category's
  // high-water mark must match Layer::slice_footprint's prediction for the
  // peak slice count within 0.5 slice units (the reconciliation contract
  // tests/test_arena.cpp asserts at model scale).
  bool reconcile_ok = true;
  {
    num::BlockDims dims;
    dims.hidden = smoke ? 128 : 512;
    dims.heads = 8;
    dims.kv_heads = 4;
    dims.ffn = smoke ? 256 : 1536;
    const std::int64_t s = smoke ? 128 : 1024;
    const num::LayerWeights weights = num::LayerWeights::random(dims, rng);
    const Tensor x0 = Tensor::randn(s, dims.hidden, rng);
    const Tensor x1 = Tensor::randn(s, dims.hidden, rng);

    Table ownership({"ownership", "time", "heap allocs", "arena allocs",
                     "peak retained"});
    const auto run = [&](num::ArenaStats* stats, const char* label) {
      num::Layer layer(dims, weights);
      if (stats != nullptr) layer.set_arena_stats(stats);
      num::LayerGrads grads = num::LayerGrads::zeros(dims);
      const std::int64_t heap_before = num::tensor_heap_allocs();
      const std::int64_t arena_before = num::tensor_arena_allocs();
      std::int64_t peak_retained = 0;
      const double time = seconds_of([&] {
        const Tensor y0 = layer.forward_slice(x0, 0);
        const Tensor y1 = layer.forward_slice(x1, s);
        if (stats != nullptr) peak_retained = stats->total_peak_bytes();
        Tensor dy(y1.rows(), y1.cols());
        dy.fill(0.01f);
        layer.backward_slice(dy, grads);
        Tensor dy0(y0.rows(), y0.cols());
        dy0.fill(0.01f);
        layer.backward_slice(dy0, grads);
      });
      ownership.add_row(
          {label, format_time(time),
           std::to_string(num::tensor_heap_allocs() - heap_before),
           std::to_string(num::tensor_arena_allocs() - arena_before),
           stats != nullptr
               ? format_bytes(static_cast<double>(peak_retained))
               : std::string("-")});
    };
    run(nullptr, "heap");
    num::ArenaStats stats;
    run(&stats, "arena");
    slimbench::print_table("block fwd+bwd x2 slices: retained-tensor "
                           "ownership",
                           ownership);

    // Reconcile the measured peaks against the analytical footprint: two
    // slices live at the peak (both forwards done, no backward yet).
    const num::Layer probe(dims, weights);
    const auto fp = probe.slice_footprint(s);
    const double kPeakSlices = 2.0;
    const double kTolerance = 0.5;  // slice units
    const struct {
      const char* name;
      std::int64_t measured;
      std::int64_t unit;
    } checks[] = {
        {"activation", stats.peak_bytes(mem::kActivation),
         fp.activation_bytes},
        {"kv", stats.peak_bytes(mem::kKvCache), fp.kv_bytes},
        {"grads", stats.peak_bytes(mem::kGrads), fp.grad_bytes},
    };
    for (const auto& check : checks) {
      const double units = check.unit > 0
                               ? static_cast<double>(check.measured) /
                                     static_cast<double>(check.unit)
                               : -1.0;
      if (units < kPeakSlices - kTolerance ||
          units > kPeakSlices + kTolerance) {
        std::fprintf(stderr,
                     "FAIL: measured %s peak %lld bytes is %.3f slice units "
                     "(analytical prediction %.1f +- %.1f)\n",
                     check.name, static_cast<long long>(check.measured),
                     units, kPeakSlices, kTolerance);
        reconcile_ok = false;
      }
    }
  }

  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  if (!g_all_identical) {
    std::fprintf(stderr,
                 "FAIL: some kernel output was not bit-identical across "
                 "pool widths\n");
    return 1;
  }
  if (!g_paths_identical) {
    std::fprintf(stderr,
                 "FAIL: some kernel output was not bit-identical across "
                 "ISA paths\n");
    return 1;
  }
  if (!reconcile_ok) return 1;
  return 0;
}
