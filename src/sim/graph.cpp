#include "src/sim/graph.hpp"

#include <algorithm>

namespace slim::sim {

bool is_compute_class(OpClass cls) {
  switch (cls) {
    case OpClass::Forward:
    case OpClass::Backward:
    case OpClass::BackwardInput:
    case OpClass::BackwardWeight:
    case OpClass::Recompute:
    case OpClass::VocabForward:
    case OpClass::VocabBackward:
    case OpClass::Optimizer:
      return true;
    default:
      return false;
  }
}

const char* op_class_name(OpClass cls) {
  switch (cls) {
    case OpClass::Forward: return "forward";
    case OpClass::Backward: return "backward";
    case OpClass::BackwardInput: return "backward_input";
    case OpClass::BackwardWeight: return "backward_weight";
    case OpClass::Recompute: return "recompute";
    case OpClass::VocabForward: return "vocab_forward";
    case OpClass::VocabBackward: return "vocab_backward";
    case OpClass::Optimizer: return "optimizer";
    case OpClass::Send: return "send";
    case OpClass::ExchangeSend: return "exchange_send";
    case OpClass::Collective: return "collective";
    case OpClass::Other: return "other";
  }
  return "unknown";
}

OpGraph::OpGraph(Topology topology) : topology_(topology) {}

ResId OpGraph::intern_resource(std::int64_t key) {
  auto it = resource_index_.find(key);
  if (it != resource_index_.end()) return it->second;
  const ResId id = static_cast<ResId>(resource_count_++);
  resource_index_.emplace(key, id);
  programs_.emplace_back();
  return id;
}

ResId OpGraph::compute_resource(int device) {
  // Compute streams use key = device; channels use a shifted pair encoding
  // that can never collide with a plain device id.
  return intern_resource(static_cast<std::int64_t>(device));
}

ResId OpGraph::channel_resource(int src, int dst, int lane) {
  SLIM_CHECK(src != dst, "channel requires distinct endpoints");
  SLIM_CHECK(lane >= 0 && lane < 8, "lane out of range");
  const std::int64_t w = topology_.world_size();
  const std::int64_t pair = static_cast<std::int64_t>(src) * w + dst;
  const std::int64_t key = w + pair * 8 + lane;
  return intern_resource(key);
}

OpId OpGraph::add_compute(int device, double duration, OpClass cls,
                          std::vector<OpId> deps) {
  SLIM_CHECK(duration >= 0.0, "negative op duration");
  Op op;
  op.id = static_cast<OpId>(ops_.size());
  op.resource = compute_resource(device);
  op.duration = duration;
  op.cls = cls;
  op.device = device;
  op.deps = std::move(deps);
  programs_[op.resource].push_back(op.id);
  ops_.push_back(std::move(op));
  return ops_.back().id;
}

ResId OpGraph::pcie_resource(int device) {
  const std::int64_t w = topology_.world_size();
  // Distinct keyspace beyond the pairwise channels.
  const std::int64_t key = w + w * w * 8 + device;
  return intern_resource(key);
}

OpId OpGraph::add_on_resource(ResId resource, int device, double duration,
                              OpClass cls, std::vector<OpId> deps) {
  SLIM_CHECK(duration >= 0.0, "negative op duration");
  Op op;
  op.id = static_cast<OpId>(ops_.size());
  op.resource = resource;
  op.duration = duration;
  op.cls = cls;
  op.device = device;
  op.deps = std::move(deps);
  programs_[op.resource].push_back(op.id);
  ops_.push_back(std::move(op));
  return ops_.back().id;
}

OpId OpGraph::add_transfer(int src, int dst, double bytes, OpClass cls,
                           std::vector<OpId> deps, int lane) {
  Op op;
  op.id = static_cast<OpId>(ops_.size());
  // Pairwise channels for every transfer: per-link FIFO order then always
  // matches both endpoints' program order, which keeps arbitrary schedules
  // deadlock-free by construction. NIC-port oversubscription (one device
  // talking to several remote peers at once) is therefore not modelled —
  // see DESIGN.md "known modeling limits".
  op.resource = channel_resource(src, dst, lane);
  op.duration = topology_.p2p_time(src, dst, bytes);
  op.cls = cls;
  op.device = src;
  op.peer = dst;
  op.bytes = bytes;
  op.deps = std::move(deps);
  programs_[op.resource].push_back(op.id);
  ops_.push_back(std::move(op));
  return ops_.back().id;
}

void OpGraph::add_mem(OpId id, MemDelta delta) { op(id).mem.push_back(delta); }

void OpGraph::set_tag(OpId id, std::int32_t microbatch, std::int32_t slice,
                      std::int32_t stage) {
  Op& o = op(id);
  o.microbatch = microbatch;
  o.slice = slice;
  o.stage = stage;
}

Op& OpGraph::op(OpId id) {
  SLIM_CHECK(id >= 0 && static_cast<std::size_t>(id) < ops_.size(),
             "op id out of range");
  return ops_[static_cast<std::size_t>(id)];
}

const Op& OpGraph::op(OpId id) const {
  SLIM_CHECK(id >= 0 && static_cast<std::size_t>(id) < ops_.size(),
             "op id out of range");
  return ops_[static_cast<std::size_t>(id)];
}

}  // namespace slim::sim
