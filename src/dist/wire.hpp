#pragma once

// Message framing and tensor (de)serialization for the socket transport.
//
// A data socket carries Forward and Backward frames between neighbouring
// stages. A worker's control socket carries three kinds to the supervisor:
// Heartbeat (its status), Commit (a retired microbatch's gradients) and
// Done (its final status, fault events and trace, plus the error message
// when it failed). Every message on either socket is one frame:
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
// on it). A worker's status and trace travel as the same records the
// threaded runtime keeps in memory: obs::StageStatus (progress, metrics,
// injected delay and the flight recorder's tail, obs/telemetry.hpp) in
// every heartbeat and the Done frame, obs::Trace's records in the Done
// frame. Each payload record has one field list (src/util/fields.hpp) that
// Writer and Reader both walk, so a record's layout is its list's order:
// both ends are the same binary.

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "src/dist/socket.hpp"
#include "src/fault/fault_plan.hpp"
#include "src/numerics/tensor.hpp"
#include "src/obs/flight_recorder.hpp"
#include "src/obs/telemetry.hpp"
#include "src/obs/trace.hpp"
#include "src/runtime/commit.hpp"
#include "src/util/fields.hpp"
#include "src/util/logging.hpp"

namespace slim::dist {

enum class FrameKind : std::uint8_t {
  Forward = 2,    // activation slice, stage s -> s+1
  Backward = 3,   // gradient slice, stage s -> s-1
  Heartbeat = 4,  // worker -> supervisor: status (obs::StageStatus)
  Commit = 5,     // worker -> supervisor: retired microbatch's staged grads
  Done = 8,       // worker -> supervisor: final report, then exit
};

const char* frame_kind_name(FrameKind kind);

struct Frame {
  FrameKind kind = FrameKind::Heartbeat;
  std::int32_t stage = -1;
  std::int32_t mb = -1;
  std::int32_t slice = -1;
  std::vector<std::uint8_t> payload;
};

/// CRC-32 (IEEE 802.3, reflected) over a byte range.
std::uint32_t crc32(const void* data, std::size_t n);

/// Writes one frame: its 36-byte header and the payload in place, with one
/// sendmsg while the socket takes both. Returns false when the peer is gone
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

  /// Field-list visit (src/util/fields.hpp): appends one member in its
  /// type's wire form; the key and any tag stay behind.
  template <class T, class... Tag>
  void operator()(const char* /*key*/, const T& member, Tag...) {
    put(member);
  }

 private:
  // Integers and enums at their width, a bool as a u8, a fixed char array
  // (the flight label) as its string, a vector as an i32 count and its
  // elements, a record as its field list.
  template <class T>
  void put(const T& v) {
    if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::underlying_type_t<T>>(v));
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 1) {
      u8(static_cast<std::uint8_t>(v));
    } else if constexpr (std::is_same_v<T, std::int32_t>) {
      i32(v);
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 8) {
      i64(static_cast<std::int64_t>(v));
    } else if constexpr (std::is_same_v<T, double>) {
      f64(v);
    } else if constexpr (std::is_same_v<T, std::string>) {
      str(v);
    } else if constexpr (std::is_same_v<T, num::Tensor>) {
      tensor(v);
    } else if constexpr (std::is_array_v<T>) {
      str(std::string(v, strnlen(v, std::extent_v<T>)));
    } else if constexpr (is_vector_v<T>) {
      i32(static_cast<std::int32_t>(v.size()));
      for (const auto& element : v) put(element);
    } else {
      fields(v, *this);
    }
  }

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

  /// Field-list visit: reads one member back from its type's wire form.
  /// Every read is bounds-checked; a short or corrupt payload throws.
  template <class T, class... Tag>
  void operator()(const char* /*key*/, T& member, Tag...) {
    get(member);
  }

 private:
  // The inverse of Writer::put. A vector's element count must lie in
  // [0, bytes left] (every element takes at least one byte); it is checked
  // before any element is read and never used to reserve memory.
  template <class T>
  void get(T& v) {
    if constexpr (std::is_enum_v<T>) {
      std::underlying_type_t<T> raw;
      get(raw);
      v = static_cast<T>(raw);
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 1) {
      v = static_cast<T>(u8());  // a bool: any nonzero byte is true
    } else if constexpr (std::is_same_v<T, std::int32_t>) {
      v = i32();
    } else if constexpr (std::is_integral_v<T> && sizeof(T) == 8) {
      v = static_cast<T>(i64());
    } else if constexpr (std::is_same_v<T, double>) {
      v = f64();
    } else if constexpr (std::is_same_v<T, std::string>) {
      v = str();
    } else if constexpr (std::is_same_v<T, num::Tensor>) {
      v = tensor();
    } else if constexpr (std::is_array_v<T>) {  // keeps N - 1 bytes at most
      const std::string s = str();
      const std::size_t n = std::min(s.size(), std::extent_v<T> - 1);
      std::memcpy(v, s.data(), n);
      std::memset(v + n, 0, std::extent_v<T> - n);
    } else if constexpr (is_vector_v<T>) {
      const std::int32_t n = i32();
      SLIM_CHECK(n >= 0 && static_cast<std::size_t>(n) <= bytes_.size() - pos_,
                 "wire element count out of range");
      for (std::int32_t i = 0; i < n; ++i) get(v.emplace_back());
    } else {
      fields(v, *this);
    }
  }

  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Structured payloads shared by stage workers and the supervisor.

/// Heartbeat payload: the stage's status — the source of the supervisor's
/// per-stage rows (live snapshots and postmortem) and, with the flight
/// tail, of the postmortem's breadcrumbs.
void write_status(Writer& w, const obs::StageStatus& status);
obs::StageStatus read_status(Reader& r);

/// Commit payload: one retired (stage, microbatch) StageCommit.
void write_commit(Writer& w, const rt::StageCommit& commit);
rt::StageCommit read_commit(Reader& r);

/// Done payload: the worker's final status, its fault events, its trace
/// (recorded on the inherited run epoch, appended by the supervisor as is)
/// and, when the worker failed (exit code 2), the error message.
struct WireStageDone {
  obs::StageStatus status;
  std::vector<fault::FaultEvent> events;
  obs::Trace trace;
  std::string error;  // empty: the worker ran until done or starved
};

void write_stage_done(Writer& w, const WireStageDone& done);
WireStageDone read_stage_done(Reader& r);

}  // namespace slim::dist
