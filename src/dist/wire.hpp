#pragma once

// Message framing and tensor (de)serialization for the socket transport.
//
// Every message on a data or control socket is one frame:
//
//   header (36 bytes, little-endian):
//     u32 magic 'SLMF'   u8 kind  u8 pad[3]
//     i32 stage  i32 mb  i32 slice
//     u64 payload_size
//     u32 payload_crc32  u32 header_crc32 (over the preceding 32 bytes)
//   payload (payload_size bytes)
//
// Both CRCs make torn and corrupt frames detectable instead of silently
// consumable: a worker SIGKILLed mid-write leaves a frame whose header or
// payload fails validation, the supervisor discards the tail, and the
// microbatch it belonged to simply stays uncommitted — the crash-consistent
// half of the at-most-once commit protocol. Payloads are built/read with
// the little-endian Writer/Reader below; tensors travel as raw fp32 bytes
// (bit-exact — gradient bit-identity across the process boundary depends
// on it).

#include <cstdint>
#include <string>
#include <vector>

#include "src/dist/socket.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/numerics/tensor.hpp"
#include "src/obs/flight_recorder.hpp"
#include "src/runtime/commit.hpp"

namespace slim::dist {

enum class FrameKind : std::uint8_t {
  Hello = 1,      // worker -> supervisor: alive, transport up
  Forward = 2,    // activation slice, stage s -> s+1
  Backward = 3,   // gradient slice, stage s -> s-1
  Heartbeat = 4,  // worker -> supervisor: progress snapshot
  Commit = 5,     // worker -> supervisor: retired microbatch's staged grads
  Error = 7,      // worker -> supervisor: structured failure, then exit(2)
  Done = 8,       // worker -> supervisor: all work finished + metrics
  Telemetry = 9,  // worker -> supervisor: flight-recorder flush
};

const char* frame_kind_name(FrameKind kind);

struct Frame {
  FrameKind kind = FrameKind::Hello;
  std::int32_t stage = -1;
  std::int32_t mb = -1;
  std::int32_t slice = -1;
  std::vector<std::uint8_t> payload;
};

/// CRC-32 (IEEE 802.3, reflected) over a byte range.
std::uint32_t crc32(const void* data, std::size_t n);

/// Serializes and writes one frame. Returns false when the peer is gone
/// (the caller decides whether a dead peer is fatal).
bool send_frame(int fd, const Frame& frame);

/// Reads and validates one frame: Ok, Eof (clean close at a frame
/// boundary), Torn (peer died mid-frame) or Corrupt (magic/CRC mismatch).
IoStatus recv_frame(int fd, Frame* out);

// ---------------------------------------------------------------------------
// Little-endian payload builder / sequential reader.

class Writer {
 public:
  void u8(std::uint8_t v);
  void i32(std::int32_t v);
  void i64(std::int64_t v);
  void f64(double v);
  void str(const std::string& v);
  void tensor(const num::Tensor& t);  // rows, cols, raw fp32 bytes
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}
  std::uint8_t u8();
  std::int32_t i32();
  std::int64_t i64();
  double f64();
  std::string str();
  num::Tensor tensor();
  bool done() const { return pos_ == bytes_.size(); }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Structured payloads shared by stage workers and the supervisor.

/// Per-data-link transport counters (one per neighbor direction). Bytes are
/// payload bytes (frame headers excluded), matching p2p_bytes elsewhere.
struct WireChannelStats {
  std::int64_t frames_out = 0;
  std::int64_t frames_in = 0;
  std::int64_t bytes_out = 0;
  std::int64_t bytes_in = 0;
  std::int64_t crc_rejects = 0;  // frames discarded by CRC/framing checks
  std::int64_t retries = 0;      // retransmits after injected drops
};

/// Heartbeat payload: the per-stage progress snapshot — the multi-process
/// analogue of the threaded runtime's StageStatus atomics, and the source
/// of the supervisor's postmortem blocked-on table.
struct WireStatus {
  std::int64_t messages = 0;
  std::int32_t done_f = 0;
  std::int32_t done_b = 0;
  std::int32_t live = 0;
  std::int32_t queue = 0;     // worker inbox depth
  std::int32_t committed = 0;
  std::int32_t last_mb = -1;  // last received microbatch id
  std::int32_t state = 0;     // worker-local StageState as int
  double injected_delay_seconds = 0.0;
  WireChannelStats prev;  // link toward stage-1 (empty on stage 0)
  WireChannelStats next;  // link toward stage+1 (empty on the last stage)
  std::int64_t flight_recorded = 0;  // flight-recorder events so far
};

void write_status(Writer& w, const WireStatus& status);
WireStatus read_status(Reader& r);

void write_event(Writer& w, const fault::FaultEvent& event);
fault::FaultEvent read_event(Reader& r);

/// Telemetry payload: one flight-recorder flush (see obs/flight_recorder.hpp).
/// `dropped` counts ring-overwritten events lost between flushes.
struct WireFlightFlush {
  std::uint64_t dropped = 0;
  std::vector<obs::FlightEvent> events;
};

void write_flight_flush(Writer& w, const WireFlightFlush& flush);
WireFlightFlush read_flight_flush(Reader& r);

/// Deterministic cross-process flow-arrow id: the sender of a data frame and
/// its receiver derive the same id from (attempt, direction, sending stage,
/// microbatch, slice) without coordinating, so the supervisor can pair the
/// two endpoints into one Chrome-trace arrow. Ids start at a high base so
/// they never collide with Recorder::begin_flow's 0-based counter.
std::int64_t wire_flow_id(int attempt, bool backward, int src_stage, int mb,
                          int slice);

/// One flow-arrow endpoint recorded by a worker (times on the run clock).
struct WireFlow {
  std::int64_t id = -1;
  double ts = 0.0;
  std::uint8_t begin = 1;     // 1 = send side, 0 = receive side
  std::uint8_t backward = 0;  // direction, for the arrow label
};

/// Commit payload: one retired (stage, microbatch) StageCommit.
void write_commit(Writer& w, const rt::StageCommit& commit);
rt::StageCommit read_commit(Reader& r);

/// Worker trace records, stamped on the run clock (the worker inherits the
/// run epoch) and recorded verbatim once the Done frame arrives.
struct WireSpan {
  double start = 0.0;
  double end = 0.0;
  std::string name;
  std::string category;
  std::int32_t mb = -1;
  std::int32_t slice = -1;
  std::int32_t stage = -1;
};

struct WireInstant {
  double time = 0.0;
  std::string name;
  std::string category;
  std::string detail;
};

/// Done payload: the worker's final status, fault events, per-category
/// arena peaks and trace records — everything observability needs to
/// survive the process boundary.
struct WireStageDone {
  WireStatus status;
  double busy_seconds = 0.0;
  double comm_seconds = 0.0;  // data-frame send time incl. injected latency
  double blocked_recv_seconds = 0.0;
  std::int64_t p2p_messages = 0;
  double p2p_bytes = 0.0;
  std::int32_t peak_queue = 0;
  std::int32_t peak_live = 0;
  std::vector<std::int64_t> arena_peak_bytes;  // per mem::Category
  std::int64_t arena_peak_total = 0;
  std::vector<fault::FaultEvent> events;
  std::vector<WireSpan> spans;
  std::vector<WireInstant> instants;
  std::vector<WireFlow> flows;
};

void write_stage_done(Writer& w, const WireStageDone& done);
WireStageDone read_stage_done(Reader& r);

}  // namespace slim::dist
