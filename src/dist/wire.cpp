#include "src/dist/wire.hpp"

#include <array>
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
    case FrameKind::Forward: return "fwd";
    case FrameKind::Backward: return "bwd";
    case FrameKind::Heartbeat: return "heartbeat";
    case FrameKind::Commit: return "commit";
    case FrameKind::Done: return "done";
  }
  return "?";
}

std::uint32_t crc32(const void* data, std::size_t n) {
  // Slicing-by-8: t[0] is the bytewise CRC table, and t[k][b] is t[0][b]
  // run through k further zero bytes. Eight lookups then fold eight bytes
  // per step, with the same values as the bytewise loop.
  using Tables = std::array<std::array<std::uint32_t, 256>, 8>;
  static const Tables t = [] {
    Tables tables{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1u) != 0 ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      tables[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = tables[k - 1][i];
        tables[k][i] = tables[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
    return tables;
  }();
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = static_cast<const std::uint8_t*>(data);
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ get_u32(p);
    const std::uint32_t hi = get_u32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
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

void write_progress(Writer& w, const rt::StageProgress& p) {
  w.i32(static_cast<std::int32_t>(p.state));
  w.i64(p.messages);
  for (const int v : {p.done_f, p.done_b, p.due, p.live, p.cap, p.queue,
                      p.committed, p.microbatches, p.last_mb}) {
    w.i32(v);
  }
  w.f64(p.at);
}

rt::StageProgress read_progress(Reader& r) {
  rt::StageProgress p;
  p.state = static_cast<rt::StageState>(r.i32());
  p.messages = r.i64();
  for (int* v : {&p.done_f, &p.done_b, &p.due, &p.live, &p.cap, &p.queue,
                 &p.committed, &p.microbatches, &p.last_mb}) {
    *v = r.i32();
  }
  p.at = r.f64();
  return p;
}

void write_metrics(Writer& w, const obs::StageMetrics& m) {
  w.i32(m.device);
  for (const double v :
       {m.compute_seconds, m.comm_seconds, m.idle_seconds, m.bubble_fraction,
        m.p2p_bytes, m.exchange_bytes, m.blocked_recv_seconds,
        m.peak_memory_bytes, m.bytes_recv, m.measured_peak_total}) {
    w.f64(v);
  }
  for (const std::int64_t v : {m.p2p_messages, m.frames_sent, m.frames_recv,
                               m.crc_rejects, m.send_retries}) {
    w.i64(v);
  }
  w.i32(m.peak_live_slices);
  w.i32(m.peak_queue_depth);
  w.i32(static_cast<std::int32_t>(m.measured_peak_bytes.size()));
  for (const double v : m.measured_peak_bytes) w.f64(v);
}

obs::StageMetrics read_metrics(Reader& r) {
  obs::StageMetrics m;
  m.device = r.i32();
  for (double* v :
       {&m.compute_seconds, &m.comm_seconds, &m.idle_seconds,
        &m.bubble_fraction, &m.p2p_bytes, &m.exchange_bytes,
        &m.blocked_recv_seconds, &m.peak_memory_bytes, &m.bytes_recv,
        &m.measured_peak_total}) {
    *v = r.f64();
  }
  for (std::int64_t* v : {&m.p2p_messages, &m.frames_sent, &m.frames_recv,
                          &m.crc_rejects, &m.send_retries}) {
    *v = r.i64();
  }
  m.peak_live_slices = r.i32();
  m.peak_queue_depth = r.i32();
  const std::int32_t n = r.i32();
  for (std::int32_t i = 0; i < n; ++i) m.measured_peak_bytes.push_back(r.f64());
  return m;
}

// The records a worker makes — spans, instants and flow points; the
// supervisor names every track and process itself.
void write_trace(Writer& w, const obs::Trace& t) {
  w.i32(static_cast<std::int32_t>(t.spans.size()));
  for (const obs::TraceSpan& s : t.spans) {
    w.i32(s.track);
    w.f64(s.start);
    w.f64(s.end);
    w.str(s.name);
    w.str(s.cat);
    w.i32(s.microbatch);
    w.i32(s.slice);
    w.i32(s.stage);
  }
  w.i32(static_cast<std::int32_t>(t.instants.size()));
  for (const obs::TraceInstant& i : t.instants) {
    w.i32(i.track);
    w.f64(i.ts);
    w.str(i.name);
    w.str(i.cat);
    w.str(i.detail);
  }
  w.i32(static_cast<std::int32_t>(t.flows.size()));
  for (const obs::TraceFlowPoint& f : t.flows) {
    w.i64(f.id);
    w.i32(f.track);
    w.f64(f.ts);
    w.u8(f.begin ? 1 : 0);
    w.str(f.name);
  }
}

obs::Trace read_trace(Reader& r) {
  obs::Trace t;
  for (std::int32_t n = r.i32(), i = 0; i < n; ++i) {
    obs::TraceSpan s;
    s.track = r.i32();
    s.start = r.f64();
    s.end = r.f64();
    s.name = r.str();
    s.cat = r.str();
    s.microbatch = r.i32();
    s.slice = r.i32();
    s.stage = r.i32();
    t.spans.push_back(std::move(s));
  }
  for (std::int32_t n = r.i32(), i = 0; i < n; ++i) {
    obs::TraceInstant inst;
    inst.track = r.i32();
    inst.ts = r.f64();
    inst.name = r.str();
    inst.cat = r.str();
    inst.detail = r.str();
    t.instants.push_back(std::move(inst));
  }
  for (std::int32_t n = r.i32(), i = 0; i < n; ++i) {
    obs::TraceFlowPoint f;
    f.id = r.i64();
    f.track = r.i32();
    f.ts = r.f64();
    f.begin = r.u8() != 0;
    f.name = r.str();
    t.flows.push_back(std::move(f));
  }
  return t;
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

}  // namespace

void write_status(Writer& w, const WireStatus& status) {
  write_progress(w, status.progress);
  write_metrics(w, status.metrics);
  w.f64(status.injected_delay_seconds);
  w.i32(static_cast<std::int32_t>(status.flight.size()));
  for (const obs::FlightEvent& ev : status.flight) {
    w.f64(ev.ts);
    w.i64(static_cast<std::int64_t>(ev.seq));
    w.u8(static_cast<std::uint8_t>(ev.kind));
    w.i32(ev.mb);
    w.i32(ev.slice);
    w.i64(ev.value);
    w.str(ev.label_str());
  }
}

WireStatus read_status(Reader& r) {
  WireStatus status;
  status.progress = read_progress(r);
  status.metrics = read_metrics(r);
  status.injected_delay_seconds = r.f64();
  for (std::int32_t n = r.i32(), i = 0; i < n; ++i) {
    obs::FlightEvent& ev = status.flight.emplace_back();
    ev.ts = r.f64();
    ev.seq = static_cast<std::uint64_t>(r.i64());
    ev.kind = static_cast<obs::FlightKind>(r.u8());
    ev.mb = r.i32();
    ev.slice = r.i32();
    ev.value = r.i64();
    ev.set_label(r.str());
  }
  return status;
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
  w.i32(static_cast<std::int32_t>(done.events.size()));
  for (const fault::FaultEvent& e : done.events) write_event(w, e);
  write_trace(w, done.trace);
  w.str(done.error);
}

WireStageDone read_stage_done(Reader& r) {
  WireStageDone done;
  done.status = read_status(r);
  for (std::int32_t n = r.i32(), i = 0; i < n; ++i) {
    done.events.push_back(read_event(r));
  }
  done.trace = read_trace(r);
  done.error = r.str();
  return done;
}

}  // namespace slim::dist
