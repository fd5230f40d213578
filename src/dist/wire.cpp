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
  std::uint8_t header[kHeaderSize];
  put_u32(header, kMagic);
  header[4] = static_cast<std::uint8_t>(frame.kind);
  header[5] = header[6] = header[7] = 0;
  put_u32(header + 8, static_cast<std::uint32_t>(frame.stage));
  put_u32(header + 12, static_cast<std::uint32_t>(frame.mb));
  put_u32(header + 16, static_cast<std::uint32_t>(frame.slice));
  put_u64(header + 20, frame.payload.size());
  put_u32(header + 28,
          frame.payload.empty() ? 0u
                                : crc32(frame.payload.data(),
                                        frame.payload.size()));
  put_u32(header + 32, crc32(header, 32));
  // The payload goes out from where it lies, behind the header.
  return send_all(fd, header, kHeaderSize, frame.payload.data(),
                  frame.payload.size());
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
  // The shape must fit the bytes left before anything is allocated for it.
  const auto floats_left =
      static_cast<std::int64_t>((bytes_.size() - pos_) / sizeof(float));
  SLIM_CHECK(rows >= 0 && cols >= 0 &&
                 (rows == 0 || cols <= floats_left / rows),
             "wire tensor shape exceeds the payload");
  if (rows == 0 || cols == 0) return {};
  num::Tensor t = num::Tensor::uninit(rows, cols);
  const std::size_t n = static_cast<std::size_t>(t.size()) * sizeof(float);
  std::memcpy(t.data(), bytes_.data() + pos_, n);
  pos_ += n;
  return t;
}

// ---------------------------------------------------------------------------
// Field lists of the payload records (src/util/fields.hpp); a record's
// wire layout is its list's order. obs::StageMetrics keeps its list beside
// the struct, since the report JSON walks it too.

template <MaybeConst<obs::StageProgress> P, class Visit>
void fields(P& p, Visit&& visit) {
  visit("state", p.state);
  visit("messages", p.messages);
  visit("done_f", p.done_f);
  visit("done_b", p.done_b);
  visit("due", p.due);
  visit("live", p.live);
  visit("cap", p.cap);
  visit("queue", p.queue);
  visit("committed", p.committed);
  visit("microbatches", p.microbatches);
  visit("last_mb", p.last_mb);
  visit("at", p.at);
}

template <MaybeConst<obs::FlightEvent> E, class Visit>
void fields(E& e, Visit&& visit) {
  visit("ts", e.ts);
  visit("seq", e.seq);
  visit("kind", e.kind);
  visit("mb", e.mb);
  visit("slice", e.slice);
  visit("value", e.value);
  visit("label", e.label);  // the fixed array travels as its string
}

template <MaybeConst<fault::FaultEvent> E, class Visit>
void fields(E& e, Visit&& visit) {
  visit("kind", e.kind);
  visit("device", e.device);
  visit("time", e.time);
  visit("index", e.index);
  visit("detail", e.detail);
}

// A worker's trace records: spans, instants and flow points. The
// supervisor names every track and process itself.
template <MaybeConst<obs::TraceSpan> S, class Visit>
void fields(S& s, Visit&& visit) {
  visit("track", s.track);
  visit("start", s.start);
  visit("end", s.end);
  visit("name", s.name);
  visit("cat", s.cat);
  visit("microbatch", s.microbatch);
  visit("slice", s.slice);
  visit("stage", s.stage);
}

template <MaybeConst<obs::TraceInstant> I, class Visit>
void fields(I& i, Visit&& visit) {
  visit("track", i.track);
  visit("ts", i.ts);
  visit("name", i.name);
  visit("cat", i.cat);
  visit("detail", i.detail);
}

template <MaybeConst<obs::TraceFlowPoint> F, class Visit>
void fields(F& f, Visit&& visit) {
  visit("id", f.id);
  visit("track", f.track);
  visit("ts", f.ts);
  visit("begin", f.begin);
  visit("name", f.name);
}

template <MaybeConst<num::LayerGrads> G, class Visit>
void fields(G& g, Visit&& visit) {
  SLIM_CHECK(!g.moe.has_value(),
             "MoE layer gradients are not wire-serializable yet");
  visit("wq", g.wq);
  visit("wk", g.wk);
  visit("wv", g.wv);
  visit("wo", g.wo);
  visit("w_gate", g.w_gate);
  visit("w_up", g.w_up);
  visit("w_down", g.w_down);
  visit("norm1", g.norm1);
  visit("norm2", g.norm2);
}

// `complete` stays behind: a Commit frame goes out only at retirement, so
// read_commit sets it.
template <MaybeConst<rt::StageCommit> C, class Visit>
void fields(C& c, Visit&& visit) {
  visit("loss", c.loss);
  visit("layers", c.layers);
  visit("embed_in", c.embed_in);
  visit("head_shard", c.head_shard);
  visit("final_norm", c.final_norm);
}

template <MaybeConst<obs::StageStatus> S, class Visit>
void fields(S& s, Visit&& visit) {
  visit("progress", s.progress);
  visit("metrics", s.metrics);
  visit("injected_delay_seconds", s.injected_delay_seconds);
  visit("flight", s.flight);
}

template <MaybeConst<WireStageDone> D, class Visit>
void fields(D& d, Visit&& visit) {
  visit("status", d.status);
  visit("events", d.events);
  visit("spans", d.trace.spans);
  visit("instants", d.trace.instants);
  visit("flows", d.trace.flows);
  visit("error", d.error);
}

void write_status(Writer& w, const obs::StageStatus& s) { fields(s, w); }

obs::StageStatus read_status(Reader& r) {
  obs::StageStatus status;
  fields(status, r);
  return status;
}

void write_commit(Writer& w, const rt::StageCommit& commit) {
  fields(commit, w);
}

rt::StageCommit read_commit(Reader& r) {
  rt::StageCommit commit;
  fields(commit, r);
  commit.complete = true;
  return commit;
}

void write_stage_done(Writer& w, const WireStageDone& done) {
  fields(done, w);
}

WireStageDone read_stage_done(Reader& r) {
  WireStageDone done;
  fields(done, r);
  return done;
}

}  // namespace slim::dist
