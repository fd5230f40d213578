#include "src/dist/wire.hpp"

#include <cstring>

#include "src/util/logging.hpp"

namespace slim::dist {

namespace {

constexpr std::uint32_t kMagic = 0x534C4D46u;  // 'SLMF'
constexpr std::size_t kHeaderSize = 36;
// Generous payload ceiling: tiny-model tensors are kilobytes; anything near
// this is a corrupt length field, not a real message.
constexpr std::uint64_t kMaxPayload = 1ull << 30;

void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  put_u32(p, static_cast<std::uint32_t>(v));
  put_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

}  // namespace

const char* frame_kind_name(FrameKind kind) {
  switch (kind) {
    case FrameKind::Hello: return "hello";
    case FrameKind::Forward: return "fwd";
    case FrameKind::Backward: return "bwd";
    case FrameKind::Heartbeat: return "heartbeat";
    case FrameKind::Commit: return "commit";
    case FrameKind::Error: return "error";
    case FrameKind::Done: return "done";
    case FrameKind::Telemetry: return "telemetry";
  }
  return "?";
}

std::uint32_t crc32(const void* data, std::size_t n) {
  static const std::uint32_t* table = [] {
    static std::uint32_t t[256];
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ p[i]) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

bool send_frame(int fd, const Frame& frame) {
  std::vector<std::uint8_t> buf(kHeaderSize + frame.payload.size());
  put_u32(buf.data(), kMagic);
  buf[4] = static_cast<std::uint8_t>(frame.kind);
  buf[5] = buf[6] = buf[7] = 0;
  put_u32(buf.data() + 8, static_cast<std::uint32_t>(frame.stage));
  put_u32(buf.data() + 12, static_cast<std::uint32_t>(frame.mb));
  put_u32(buf.data() + 16, static_cast<std::uint32_t>(frame.slice));
  put_u64(buf.data() + 20, frame.payload.size());
  put_u32(buf.data() + 28,
          frame.payload.empty() ? 0u
                                : crc32(frame.payload.data(),
                                        frame.payload.size()));
  put_u32(buf.data() + 32, crc32(buf.data(), 32));
  if (!frame.payload.empty()) {
    std::memcpy(buf.data() + kHeaderSize, frame.payload.data(),
                frame.payload.size());
  }
  return send_all(fd, buf.data(), buf.size());
}

IoStatus recv_frame(int fd, Frame* out) {
  std::uint8_t header[kHeaderSize];
  const IoStatus head = recv_all(fd, header, kHeaderSize);
  if (head != IoStatus::Ok) return head;
  if (get_u32(header) != kMagic) return IoStatus::Corrupt;
  if (get_u32(header + 32) != crc32(header, 32)) return IoStatus::Corrupt;
  const std::uint64_t payload_size = get_u64(header + 20);
  if (payload_size > kMaxPayload) return IoStatus::Corrupt;
  out->kind = static_cast<FrameKind>(header[4]);
  out->stage = static_cast<std::int32_t>(get_u32(header + 8));
  out->mb = static_cast<std::int32_t>(get_u32(header + 12));
  out->slice = static_cast<std::int32_t>(get_u32(header + 16));
  out->payload.resize(payload_size);
  if (payload_size > 0) {
    const IoStatus body = recv_all(fd, out->payload.data(), payload_size);
    if (body != IoStatus::Ok) {
      // EOF mid-payload is a torn frame either way.
      return IoStatus::Torn;
    }
    if (crc32(out->payload.data(), payload_size) != get_u32(header + 28)) {
      return IoStatus::Corrupt;
    }
  }
  return IoStatus::Ok;
}

// ---------------------------------------------------------------------------
// Writer / Reader

void Writer::u8(std::uint8_t v) { bytes_.push_back(v); }

void Writer::i32(std::int32_t v) {
  const std::size_t at = bytes_.size();
  bytes_.resize(at + 4);
  put_u32(bytes_.data() + at, static_cast<std::uint32_t>(v));
}

void Writer::i64(std::int64_t v) {
  const std::size_t at = bytes_.size();
  bytes_.resize(at + 8);
  put_u64(bytes_.data() + at, static_cast<std::uint64_t>(v));
}

void Writer::f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, 8);
  const std::size_t at = bytes_.size();
  bytes_.resize(at + 8);
  put_u64(bytes_.data() + at, bits);
}

void Writer::str(const std::string& v) {
  i64(static_cast<std::int64_t>(v.size()));
  bytes_.insert(bytes_.end(), v.begin(), v.end());
}

void Writer::tensor(const num::Tensor& t) {
  i64(t.rows());
  i64(t.cols());
  const std::size_t n = static_cast<std::size_t>(t.size()) * sizeof(float);
  const std::size_t at = bytes_.size();
  bytes_.resize(at + n);
  if (n > 0) std::memcpy(bytes_.data() + at, t.data(), n);
}

std::uint8_t Reader::u8() {
  SLIM_CHECK(pos_ + 1 <= bytes_.size(), "wire payload underrun");
  return bytes_[pos_++];
}

std::int32_t Reader::i32() {
  SLIM_CHECK(pos_ + 4 <= bytes_.size(), "wire payload underrun");
  const std::int32_t v =
      static_cast<std::int32_t>(get_u32(bytes_.data() + pos_));
  pos_ += 4;
  return v;
}

std::int64_t Reader::i64() {
  SLIM_CHECK(pos_ + 8 <= bytes_.size(), "wire payload underrun");
  const std::int64_t v =
      static_cast<std::int64_t>(get_u64(bytes_.data() + pos_));
  pos_ += 8;
  return v;
}

double Reader::f64() {
  SLIM_CHECK(pos_ + 8 <= bytes_.size(), "wire payload underrun");
  const std::uint64_t bits = get_u64(bytes_.data() + pos_);
  pos_ += 8;
  double v;
  std::memcpy(&v, &bits, 8);
  return v;
}

std::string Reader::str() {
  const std::int64_t n = i64();
  SLIM_CHECK(n >= 0 && pos_ + static_cast<std::size_t>(n) <= bytes_.size(),
             "wire payload underrun");
  std::string v(reinterpret_cast<const char*>(bytes_.data() + pos_),
                static_cast<std::size_t>(n));
  pos_ += static_cast<std::size_t>(n);
  return v;
}

num::Tensor Reader::tensor() {
  const std::int64_t rows = i64();
  const std::int64_t cols = i64();
  SLIM_CHECK(rows >= 0 && cols >= 0, "wire tensor with negative shape");
  if (rows == 0 || cols == 0) return {};
  num::Tensor t = num::Tensor::uninit(rows, cols);
  const std::size_t n = static_cast<std::size_t>(t.size()) * sizeof(float);
  SLIM_CHECK(pos_ + n <= bytes_.size(), "wire payload underrun");
  std::memcpy(t.data(), bytes_.data() + pos_, n);
  pos_ += n;
  return t;
}

// ---------------------------------------------------------------------------
// Structured payloads

namespace {

void write_channel_stats(Writer& w, const WireChannelStats& c) {
  w.i64(c.frames_out);
  w.i64(c.frames_in);
  w.i64(c.bytes_out);
  w.i64(c.bytes_in);
  w.i64(c.crc_rejects);
  w.i64(c.retries);
}

WireChannelStats read_channel_stats(Reader& r) {
  WireChannelStats c;
  c.frames_out = r.i64();
  c.frames_in = r.i64();
  c.bytes_out = r.i64();
  c.bytes_in = r.i64();
  c.crc_rejects = r.i64();
  c.retries = r.i64();
  return c;
}

}  // namespace

void write_status(Writer& w, const WireStatus& status) {
  w.i64(status.messages);
  w.i32(status.done_f);
  w.i32(status.done_b);
  w.i32(status.live);
  w.i32(status.queue);
  w.i32(status.committed);
  w.i32(status.last_mb);
  w.i32(status.state);
  w.f64(status.injected_delay_seconds);
  write_channel_stats(w, status.prev);
  write_channel_stats(w, status.next);
  w.i64(status.flight_recorded);
}

WireStatus read_status(Reader& r) {
  WireStatus status;
  status.messages = r.i64();
  status.done_f = r.i32();
  status.done_b = r.i32();
  status.live = r.i32();
  status.queue = r.i32();
  status.committed = r.i32();
  status.last_mb = r.i32();
  status.state = r.i32();
  status.injected_delay_seconds = r.f64();
  status.prev = read_channel_stats(r);
  status.next = read_channel_stats(r);
  status.flight_recorded = r.i64();
  return status;
}

void write_event(Writer& w, const fault::FaultEvent& event) {
  w.u8(static_cast<std::uint8_t>(event.kind));
  w.i32(event.device);
  w.f64(event.time);
  w.i64(event.index);
  w.str(event.detail);
}

fault::FaultEvent read_event(Reader& r) {
  fault::FaultEvent event;
  event.kind = static_cast<fault::FaultEvent::Kind>(r.u8());
  event.device = r.i32();
  event.time = r.f64();
  event.index = r.i64();
  event.detail = r.str();
  return event;
}

void write_flight_flush(Writer& w, const WireFlightFlush& flush) {
  w.i64(static_cast<std::int64_t>(flush.dropped));
  w.i32(static_cast<std::int32_t>(flush.events.size()));
  for (const obs::FlightEvent& ev : flush.events) {
    w.f64(ev.ts);
    w.i64(static_cast<std::int64_t>(ev.seq));
    w.u8(static_cast<std::uint8_t>(ev.kind));
    w.i32(ev.mb);
    w.i32(ev.slice);
    w.i64(ev.value);
    w.str(ev.label_str());
  }
}

WireFlightFlush read_flight_flush(Reader& r) {
  WireFlightFlush flush;
  flush.dropped = static_cast<std::uint64_t>(r.i64());
  const std::int32_t n = r.i32();
  SLIM_CHECK(n >= 0, "telemetry frame with negative event count");
  flush.events.reserve(static_cast<std::size_t>(n));
  for (std::int32_t i = 0; i < n; ++i) {
    obs::FlightEvent ev;
    ev.ts = r.f64();
    ev.seq = static_cast<std::uint64_t>(r.i64());
    ev.kind = static_cast<obs::FlightKind>(r.u8());
    ev.mb = r.i32();
    ev.slice = r.i32();
    ev.value = r.i64();
    ev.set_label(r.str());
    flush.events.push_back(ev);
  }
  return flush;
}

std::int64_t wire_flow_id(int attempt, bool backward, int src_stage, int mb,
                          int slice) {
  // Mixed-radix fold; the radices bound any run this repo can set up.
  constexpr std::int64_t kStages = 64, kMb = 1 << 20, kSlices = 256;
  constexpr std::int64_t kBase = std::int64_t{1} << 56;
  std::int64_t id = attempt;
  id = id * 2 + (backward ? 1 : 0);
  id = id * kStages + src_stage;
  id = id * kMb + mb;
  id = id * kSlices + slice;
  return kBase + id;
}

namespace {

void write_layer_grads(Writer& w, const num::LayerGrads& g) {
  SLIM_CHECK(!g.moe.has_value(),
             "MoE layer gradients are not wire-serializable yet");
  w.tensor(g.wq);
  w.tensor(g.wk);
  w.tensor(g.wv);
  w.tensor(g.wo);
  w.tensor(g.w_gate);
  w.tensor(g.w_up);
  w.tensor(g.w_down);
  w.tensor(g.norm1);
  w.tensor(g.norm2);
}

num::LayerGrads read_layer_grads(Reader& r) {
  num::LayerGrads g;
  g.wq = r.tensor();
  g.wk = r.tensor();
  g.wv = r.tensor();
  g.wo = r.tensor();
  g.w_gate = r.tensor();
  g.w_up = r.tensor();
  g.w_down = r.tensor();
  g.norm1 = r.tensor();
  g.norm2 = r.tensor();
  return g;
}

}  // namespace

void write_commit(Writer& w, const rt::StageCommit& commit) {
  w.f64(commit.loss);
  w.i32(static_cast<std::int32_t>(commit.layers.size()));
  for (const num::LayerGrads& g : commit.layers) write_layer_grads(w, g);
  w.tensor(commit.embed_in);
  w.tensor(commit.head_shard);
  w.tensor(commit.final_norm);
}

rt::StageCommit read_commit(Reader& r) {
  rt::StageCommit commit;
  commit.loss = r.f64();
  const std::int32_t n_layers = r.i32();
  SLIM_CHECK(n_layers >= 0, "commit frame with negative layer count");
  for (std::int32_t i = 0; i < n_layers; ++i) {
    commit.layers.push_back(read_layer_grads(r));
  }
  commit.embed_in = r.tensor();
  commit.head_shard = r.tensor();
  commit.final_norm = r.tensor();
  commit.complete = true;
  return commit;
}

void write_stage_done(Writer& w, const WireStageDone& done) {
  write_status(w, done.status);
  w.f64(done.busy_seconds);
  w.f64(done.comm_seconds);
  w.f64(done.blocked_recv_seconds);
  w.i64(done.p2p_messages);
  w.f64(done.p2p_bytes);
  w.i32(done.peak_queue);
  w.i32(done.peak_live);
  w.i32(static_cast<std::int32_t>(done.arena_peak_bytes.size()));
  for (const std::int64_t b : done.arena_peak_bytes) w.i64(b);
  w.i64(done.arena_peak_total);
  w.i32(static_cast<std::int32_t>(done.events.size()));
  for (const fault::FaultEvent& e : done.events) write_event(w, e);
  w.i32(static_cast<std::int32_t>(done.spans.size()));
  for (const WireSpan& s : done.spans) {
    w.f64(s.start);
    w.f64(s.end);
    w.str(s.name);
    w.str(s.category);
    w.i32(s.mb);
    w.i32(s.slice);
    w.i32(s.stage);
  }
  w.i32(static_cast<std::int32_t>(done.instants.size()));
  for (const WireInstant& i : done.instants) {
    w.f64(i.time);
    w.str(i.name);
    w.str(i.category);
    w.str(i.detail);
  }
  w.i32(static_cast<std::int32_t>(done.flows.size()));
  for (const WireFlow& f : done.flows) {
    w.i64(f.id);
    w.f64(f.ts);
    w.u8(f.begin);
    w.u8(f.backward);
  }
}

WireStageDone read_stage_done(Reader& r) {
  WireStageDone done;
  done.status = read_status(r);
  done.busy_seconds = r.f64();
  done.comm_seconds = r.f64();
  done.blocked_recv_seconds = r.f64();
  done.p2p_messages = r.i64();
  done.p2p_bytes = r.f64();
  done.peak_queue = r.i32();
  done.peak_live = r.i32();
  const std::int32_t n_cat = r.i32();
  for (std::int32_t i = 0; i < n_cat; ++i) {
    done.arena_peak_bytes.push_back(r.i64());
  }
  done.arena_peak_total = r.i64();
  const std::int32_t n_events = r.i32();
  for (std::int32_t i = 0; i < n_events; ++i) {
    done.events.push_back(read_event(r));
  }
  const std::int32_t n_spans = r.i32();
  for (std::int32_t i = 0; i < n_spans; ++i) {
    WireSpan s;
    s.start = r.f64();
    s.end = r.f64();
    s.name = r.str();
    s.category = r.str();
    s.mb = r.i32();
    s.slice = r.i32();
    s.stage = r.i32();
    done.spans.push_back(std::move(s));
  }
  const std::int32_t n_instants = r.i32();
  for (std::int32_t i = 0; i < n_instants; ++i) {
    WireInstant inst;
    inst.time = r.f64();
    inst.name = r.str();
    inst.category = r.str();
    inst.detail = r.str();
    done.instants.push_back(std::move(inst));
  }
  const std::int32_t n_flows = r.i32();
  for (std::int32_t i = 0; i < n_flows; ++i) {
    WireFlow f;
    f.id = r.i64();
    f.ts = r.f64();
    f.begin = r.u8();
    f.backward = r.u8();
    done.flows.push_back(f);
  }
  return done;
}

}  // namespace slim::dist
