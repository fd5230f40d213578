// Unit tests for the transformer model descriptions, the FLOPs/cost model
// and the activation/model-state memory model. Anchors: Table 3 parameter
// counts and the paper's §3 worked example (Llama 70B, 1M context, full
// recompute, t=8 -> 160 GiB of activations).

#include <gtest/gtest.h>

#include "src/model/activation.hpp"
#include "src/model/flops.hpp"
#include "src/model/hardware.hpp"
#include "src/model/transformer.hpp"
#include "src/sim/topology.hpp"
#include "src/util/units.hpp"

namespace slim::model {
namespace {

TEST(TransformerTest, Table3ParameterCounts) {
  // Table 3 reports #Params including the 128,000-entry vocabulary.
  EXPECT_NEAR(llama13b().params_total() / 1e9, 13.3, 0.15);
  EXPECT_NEAR(llama70b().params_total() / 1e9, 69.5, 0.7);
  EXPECT_NEAR(llama149b().params_total() / 1e9, 148.9, 1.5);
  EXPECT_NEAR(mixtral8x7b().params_total() / 1e9, 47.0, 0.5);
  EXPECT_NEAR(mixtral8x22b().params_total() / 1e9, 141.0, 1.5);
}

TEST(TransformerTest, GqaDimensions) {
  const TransformerConfig cfg = llama70b();
  EXPECT_EQ(cfg.kv_heads(), 8);
  EXPECT_EQ(cfg.head_dim(), 128);
  EXPECT_EQ(cfg.kv_hidden(), 1024);
  const TransformerConfig mha = llama13b();
  EXPECT_EQ(mha.kv_heads(), mha.heads);
  EXPECT_EQ(mha.kv_hidden(), mha.hidden);
}

TEST(TransformerTest, MoeActiveExperts) {
  EXPECT_EQ(mixtral8x7b().active_experts(), 2);
  EXPECT_EQ(llama13b().active_experts(), 1);
  EXPECT_TRUE(mixtral8x22b().is_moe());
  EXPECT_FALSE(llama149b().is_moe());
}

TEST(TransformerTest, ZooLookup) {
  EXPECT_EQ(model_by_name("70b")->hidden, 8192);
  EXPECT_EQ(model_by_name("7b")->layers, 32);
  EXPECT_EQ(model_by_name("8x22b")->name, mixtral8x22b().name);
  EXPECT_FALSE(model_by_name("GPT-5").has_value());
  EXPECT_EQ(model_zoo().size(), 5u);
}

TEST(ActivationTest, PaperFullRecomputeExample) {
  // 1048576 * 8192 * 80 * 2 / 8 = 160 GiB (paper §3).
  const TransformerConfig cfg = llama70b();
  const Shard shard{8, 1, 1, 8};
  const double per_token = act_bytes_per_token_layer(
      cfg, shard, CheckpointPolicy::Full, /*retain_kv=*/false);
  const double total = per_token * 1048576.0 * 80.0;
  EXPECT_NEAR(total / kGiB, 160.0, 0.01);
}

TEST(ActivationTest, PolicyOrdering) {
  const TransformerConfig cfg = llama13b();
  const Shard shard{8, 1, 1, 8};
  const double none =
      act_bytes_per_token_layer(cfg, shard, CheckpointPolicy::None, false);
  const double sel = act_bytes_per_token_layer(cfg, shard,
                                               CheckpointPolicy::Selective,
                                               false);
  const double full =
      act_bytes_per_token_layer(cfg, shard, CheckpointPolicy::Full, false);
  EXPECT_GT(none, sel);
  EXPECT_GT(sel, full);
}

TEST(ActivationTest, KvRetentionAddsToFullCheckpointOnly) {
  const TransformerConfig cfg = llama70b();
  const Shard shard{8, 1, 1, 8};
  const double full_nokv =
      act_bytes_per_token_layer(cfg, shard, CheckpointPolicy::Full, false);
  const double full_kv =
      act_bytes_per_token_layer(cfg, shard, CheckpointPolicy::Full, true);
  EXPECT_GT(full_kv, full_nokv);
  // Under None, K/V are stored anyway: retain_kv changes nothing.
  const double none_nokv =
      act_bytes_per_token_layer(cfg, shard, CheckpointPolicy::None, false);
  const double none_kv =
      act_bytes_per_token_layer(cfg, shard, CheckpointPolicy::None, true);
  EXPECT_DOUBLE_EQ(none_nokv, none_kv);
}

TEST(ActivationTest, ShardingDividesActivations) {
  const TransformerConfig cfg = llama13b();
  const double t1 = act_bytes_per_token_layer(cfg, Shard{1, 1, 1, 8},
                                              CheckpointPolicy::None, false);
  const double t8 = act_bytes_per_token_layer(cfg, Shard{8, 1, 1, 8},
                                              CheckpointPolicy::None, false);
  const double t8c2 = act_bytes_per_token_layer(cfg, Shard{8, 2, 1, 8},
                                                CheckpointPolicy::None, false);
  EXPECT_NEAR(t1 / t8, 8.0, 1e-9);
  EXPECT_NEAR(t8 / t8c2, 2.0, 1e-9);
}

TEST(ActivationTest, LogitsExample) {
  // Paper §4.3.1: 256K context, 128000 vocabulary, 8-way TP -> ~16 GiB.
  const TransformerConfig cfg = llama13b();
  const Shard shard{8, 1, 1, 8};
  const double bytes = logits_bytes(cfg, shard, 256 * 1024, 1);
  // fp32 logits alone: 256K * 128000/8 * 4 = 16 GiB; we also count the
  // bf16 GEMM output, so expect [16, 26) GiB.
  EXPECT_GE(bytes / kGiB, 16.0);
  EXPECT_LT(bytes / kGiB, 26.0);
  // Vocabulary parallelism divides it by p.
  EXPECT_NEAR(logits_bytes(cfg, shard, 256 * 1024, 8) * 8.0, bytes, 1.0);
}

TEST(ActivationTest, ModelStatesScale) {
  const TransformerConfig cfg = llama13b();
  const Shard shard{8, 1, 1, 8};
  const double full = model_state_bytes(cfg, shard, 40, 1.0, 1);
  const double half_layers = model_state_bytes(cfg, shard, 20, 1.0, 1);
  EXPECT_GT(full, half_layers);
  // Optimizer sharding reduces, but never below the resident bf16 portion.
  const double sharded = model_state_bytes(cfg, shard, 40, 1.0, 8);
  EXPECT_LT(sharded, full);
  EXPECT_GT(sharded, full / 4.0);
}

TEST(ActivationTest, WgradKeptFractionBounds) {
  for (const auto& cfg : model_zoo()) {
    for (auto policy : {CheckpointPolicy::None, CheckpointPolicy::Selective,
                        CheckpointPolicy::Full}) {
      const double f = wgrad_kept_fraction(cfg, policy);
      EXPECT_GT(f, 0.0);
      EXPECT_LE(f, 1.0);
    }
  }
}

TEST(HardwareTest, RooflineMax) {
  const GpuSpec gpu = hopper80();
  // Compute bound: big flops, no bytes.
  const double tc = gpu.op_time(989e12 * 0.65, 0.0, OpCategory::Gemm);
  EXPECT_NEAR(tc, 1.0, 1e-9);
  // Memory bound: tiny flops, lots of bytes.
  const double tm = gpu.op_time(1.0, 3.35e12, OpCategory::Gemm);
  EXPECT_NEAR(tm, 1.0, 1e-9);
}

TEST(HardwareTest, EfficiencyTableOrdering) {
  const GpuSpec gpu = hopper80();
  EXPECT_GT(gpu.efficiency(OpCategory::Gemm),
            gpu.efficiency(OpCategory::Attention));
  EXPECT_GT(gpu.efficiency(OpCategory::Attention),
            gpu.efficiency(OpCategory::AttentionBwd));
}

class CostModelTest : public ::testing::Test {
 protected:
  CostModelTest()
      : cost_(llama13b(), hopper80(), sim::make_cluster(8),
              Shard{8, 1, 1, 8}, CheckpointPolicy::None) {}
  CostModel cost_;
};

TEST_F(CostModelTest, AttentionQuadraticInContext) {
  const double t1 = cost_.causal_attn_time(65536, 0, true);
  const double t2 = cost_.causal_attn_time(131072, 0, true);
  EXPECT_NEAR(t2 / t1, 4.0, 0.3);
}

TEST_F(CostModelTest, LaterSlicesCostMore) {
  const double first = cost_.causal_attn_time(8192, 0, true);
  const double later = cost_.causal_attn_time(8192, 8 * 8192, true);
  EXPECT_GT(later, 2.0 * first);
}

TEST_F(CostModelTest, CausalSliceCostsSumToFullCost) {
  // Attention flops of n uniform slices with growing prefixes must equal
  // the monolithic causal cost.
  const std::int64_t seq = 65536, n = 8, len = seq / n;
  double sliced = 0.0;
  for (std::int64_t i = 0; i < n; ++i) {
    sliced += cost_.attn_block_flops(
        static_cast<double>(len),
        CostModel::causal_kv_equiv(len, i * len));
  }
  const double full = cost_.attn_block_flops(
      static_cast<double>(seq), CostModel::causal_kv_equiv(seq, 0));
  EXPECT_NEAR(sliced / full, 1.0, 1e-9);
}

TEST_F(CostModelTest, BackwardCostsMoreThanForward) {
  EXPECT_GT(cost_.backward_time(10, 65536, 0),
            1.5 * cost_.forward_time(10, 65536, 0));
}

TEST_F(CostModelTest, ZbSplitSumsToFullBackward) {
  const double bi = cost_.backward_input_time(10, 65536, 0);
  const double bw = cost_.backward_weight_time(10, 65536);
  const double b = cost_.backward_time(10, 65536, 0);
  EXPECT_NEAR((bi + bw) / b, 1.0, 0.15);
  // Attention has no weight gradient: the input half dominates.
  EXPECT_GT(bi, bw);
}

TEST_F(CostModelTest, RecomputePolicies) {
  const CostModel full(llama13b(), hopper80(), sim::make_cluster(8),
                       Shard{8, 1, 1, 8}, CheckpointPolicy::Full);
  const CostModel sel(llama13b(), hopper80(), sim::make_cluster(8),
                      Shard{8, 1, 1, 8}, CheckpointPolicy::Selective);
  EXPECT_DOUBLE_EQ(cost_.recompute_time(10, 65536, 0), 0.0);
  EXPECT_GT(sel.recompute_time(10, 65536, 0), 0.0);
  EXPECT_GT(full.recompute_time(10, 65536, 0),
            sel.recompute_time(10, 65536, 0));
  // Full recompute re-runs the forward.
  EXPECT_NEAR(full.recompute_time(10, 65536, 0),
              full.forward_time(10, 65536, 0), 1e-9);
}

TEST_F(CostModelTest, VocabShardingDividesTime) {
  const double full = cost_.vocab_forward_time(65536, 1);
  const double sharded = cost_.vocab_forward_time(65536, 8);
  EXPECT_GT(full, 6.0 * sharded);
}

TEST_F(CostModelTest, ModelFlopsIterationIsThreeForwards) {
  const double fwd = cost_.model_flops_forward(65536);
  EXPECT_DOUBLE_EQ(cost_.model_flops_iteration(65536, 2), 6.0 * fwd);
}

TEST_F(CostModelTest, BoundaryBytesShardAware) {
  const CostModel wide(llama13b(), hopper80(), sim::make_cluster(8),
                       Shard{4, 2, 1, 8}, CheckpointPolicy::None);
  // len * h * 2 / (t * c)
  EXPECT_NEAR(wide.boundary_bytes(8192), 8192.0 * 5120.0 * 2.0 / 8.0, 1.0);
}

TEST(CostModelComm, MoeAllToAllAddsTime) {
  const GpuSpec gpu = hopper80();
  const CostModel dense(llama13b(), gpu, sim::make_cluster(8),
                        Shard{1, 1, 1, 8}, CheckpointPolicy::None);
  const CostModel moe_e1(mixtral8x7b(), gpu, sim::make_cluster(8),
                         Shard{1, 1, 1, 8}, CheckpointPolicy::None);
  const CostModel moe_e8(mixtral8x7b(), gpu, sim::make_cluster(8),
                         Shard{1, 1, 8, 8}, CheckpointPolicy::None);
  // EP adds all-to-all time relative to local experts.
  EXPECT_GT(moe_e8.nonattn_time(8, 65536, true),
            moe_e1.nonattn_time(8, 65536, true));
  (void)dense;
}

TEST(CostModelComm, CrossNodeCpIsMoreExpensive) {
  const GpuSpec gpu = hopper80();
  // Same t and c; only the node boundary differs (gpus_per_node 4 forces
  // the t*c = 8 group across nodes).
  const CostModel cross(llama13b(), gpu, sim::make_cluster(16),
                        Shard{4, 2, 1, 4}, CheckpointPolicy::None);
  const CostModel local(llama13b(), gpu, sim::make_cluster(16),
                        Shard{4, 2, 1, 8}, CheckpointPolicy::None);
  const double tc = cross.nonattn_time(8, 65536, true);
  const double tl = local.nonattn_time(8, 65536, true);
  EXPECT_GT(tc, tl);
}

TEST(CostModelComm, CommutatedCpCheaperWithKvCache) {
  const GpuSpec gpu = hopper80();
  const CostModel ring(llama13b(), gpu, sim::make_cluster(16),
                       Shard{8, 2, 1, 8}, CheckpointPolicy::None,
                       CpMode::RingKv);
  const CostModel comm(llama13b(), gpu, sim::make_cluster(16),
                       Shard{8, 2, 1, 8}, CheckpointPolicy::None,
                       CpMode::Commutated);
  // With a long cached prefix, ring attention re-communicates the cache;
  // the commutated variant's volume is independent of the prefix (§5).
  const double tr = ring.backward_input_time(8, 8192, 256 * 1024);
  const double tc = comm.backward_input_time(8, 8192, 256 * 1024);
  EXPECT_GT(tr, tc);
}

}  // namespace
}  // namespace slim::model
