// The byte-stream protocol every peer pair speaks: sweep and replay
// workers with their coordinator (net/, dist/, replay/), serve clients with
// ncb_serve (serve/), and — through the LE codec and the frame header —
// the event log's record stream (serve/event_log).
//
// Everything between two peers travels as length-prefixed frames over a
// byte stream (a socketpair, AF_UNIX or TCP connection; the framing never
// assumes more than an ordered stream, so any other transport reuses it
// unchanged):
//
//     u32 payload-length (LE) | u8 message-type | payload bytes
//
// The first frame in each direction is a versioned handshake (Hello /
// HelloAck); mismatched protocol or application-schema versions abort the
// run with a clear error instead of misinterpreting bytes. The schema word
// of the Hello is application-defined: sweep workers send the sweep output
// schema, serve clients send the serve wire schema. Payloads are packed
// with WireWriter/WireReader (fixed-width LE integers, bit-cast doubles,
// u32-length-prefixed strings); every decoder validates lengths, so
// truncated or oversized frames are rejected, never trusted.
//
// This file holds the framing and the worker-admission messages (Hello,
// HelloAck, WorkerInfo, WorkerError, Shutdown). Each application keeps its
// own payloads next to its code: serve's in wire/serve_messages.hpp, the
// sweep job messages in dist/protocol.hpp, the replay messages in
// replay/dispatch.cpp.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

namespace ncb::wire {

/// The peer disappeared (EPIPE/ECONNRESET on write). Distinct from other
/// I/O failures so a worker can treat a vanished coordinator as a clean
/// shutdown in every race ordering.
class PeerClosedError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// First payload word of a Hello frame; guards against a non-worker process
/// accidentally connected to the coordinator fd.
inline constexpr std::uint32_t kProtocolMagic = 0x4e434250;  // "NCBP"
/// Bump on any framing or payload layout change.
/// v2: serve frame types (DecideRequest / DecideReply / Feedback).
/// v3: WorkerInfo admission frame + distributed-replay frame types.
/// v4: StatsRequest / StatsReply live-metrics frames.
inline constexpr std::uint32_t kProtocolVersion = 4;
/// Upper bound on a frame payload; a corrupted length prefix fails fast
/// instead of attempting a multi-gigabyte allocation.
inline constexpr std::uint32_t kMaxFramePayload = 16u << 20;

enum class MsgType : std::uint8_t {
  kHello = 1,          ///< client/worker → server: magic + versions.
  kHelloAck = 2,       ///< server → client/worker: protocol version echo.
  kJobAssign = 3,      ///< coordinator → worker: one SweepJob + run options.
  kJobResult = 4,      ///< worker → coordinator: rendered job record.
  kWorkerError = 5,    ///< worker → coordinator: fatal job/protocol error.
  kShutdown = 6,       ///< coordinator → worker: drain and exit 0.
  kDecideRequest = 7,  ///< serve client → server: one decision request.
  kDecideReply = 8,    ///< server → serve client: action + propensity.
  kFeedback = 9,       ///< serve client → server: reward join (no reply).
  kWorkerInfo = 10,    ///< worker → coordinator: identity after Hello.
  kReplayInit = 11,    ///< replay coordinator → worker: config + model.
  kReplayEvents = 12,  ///< replay coordinator → worker: one log chunk.
  kReplayAssign = 13,  ///< replay coordinator → worker: one candidate.
  kReplayResult = 14,  ///< replay worker → coordinator: estimator state.
  kStatsRequest = 15,  ///< serve client → server: metrics poll (no payload).
  kStatsReply = 16,    ///< server → serve client: flattened registry stats.
};

/// Stable display name of a message type ("Hello", "DecideReply", ...);
/// "unknown" for values outside the enum.
[[nodiscard]] const char* frame_type_name(MsgType type) noexcept;

/// Name plus the numeric value, e.g. "DecideReply (8)" or "unknown (42)" —
/// what the framing layer puts in error messages.
[[nodiscard]] std::string frame_type_label(std::uint8_t raw_type);

struct Frame {
  MsgType type = MsgType::kShutdown;
  std::string payload;
};

// ----------------------------------------------- little-endian words ---

/// Appends `v` as sizeof(T) little-endian bytes. The one LE store every
/// wire and event-log integer goes through.
template <typename T>
void append_le(std::string& out, T v) {
  static_assert(std::is_unsigned_v<T>, "unsigned integer expected");
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// Reads sizeof(T) little-endian bytes at `p` (the caller checks bounds).
template <typename T>
[[nodiscard]] T load_le(const char* p) {
  static_assert(std::is_unsigned_v<T>, "unsigned integer expected");
  T v = 0;
  for (std::size_t i = 0; i < sizeof(T); ++i) {
    v |= static_cast<T>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

// ------------------------------------------------------- frame header ---

/// `u32 payload-length (LE) | u8 type`: the header of every frame and of
/// every serve/event_log record.
inline constexpr std::size_t kFrameHeaderBytes = 5;

struct FrameHeader {
  std::uint32_t length = 0;
  std::uint8_t type = 0;
};

/// Appends a header announcing `length` payload bytes of `type`.
void append_frame_header(std::string& out, std::uint32_t length,
                         std::uint8_t type);
/// Parses the kFrameHeaderBytes at `p`; the caller validates the fields.
[[nodiscard]] FrameHeader parse_frame_header(const char* p);

// ------------------------------------------------------------ payloads ---

/// Little-endian payload packer. Strings are u32-length-prefixed. Packs
/// into its own buffer (take() hands it over), or appends to a caller's.
class WireWriter {
 public:
  WireWriter() = default;
  explicit WireWriter(std::string& out) : out_(&out) {}
  WireWriter(const WireWriter&) = delete;
  WireWriter& operator=(const WireWriter&) = delete;

  void put_u8(std::uint8_t v);
  void put_u32(std::uint32_t v);
  void put_u64(std::uint64_t v);
  void put_double(double v);  ///< IEEE-754 bit pattern as u64 (exact).
  void put_string(std::string_view s);

  /// Bytes packed so far (for callers batching payloads up to a budget).
  [[nodiscard]] std::size_t size() const noexcept { return out_->size(); }
  [[nodiscard]] std::string take() { return std::move(*out_); }

 private:
  std::string buffer_;
  std::string* out_ = &buffer_;
};

/// Bounds-checked payload unpacker over a view (so a record decodes in
/// place); throws std::invalid_argument on any truncation or over-long
/// string, and finish() rejects trailing bytes.
class WireReader {
 public:
  explicit WireReader(std::string_view payload) : payload_(payload) {}

  [[nodiscard]] std::uint8_t get_u8();
  [[nodiscard]] std::uint32_t get_u32();
  [[nodiscard]] std::uint64_t get_u64();
  [[nodiscard]] double get_double();
  [[nodiscard]] std::string get_string();
  /// Bytes not yet read.
  [[nodiscard]] std::size_t remaining() const noexcept {
    return payload_.size() - at_;
  }
  /// Throws unless `count` items of at least `min_item_bytes` each fit in
  /// the unread payload — call before reserving storage for a count read
  /// off the wire, so a corrupt count is rejected, not allocated.
  void check_count(std::uint64_t count, std::size_t min_item_bytes,
                   const char* what) const;
  /// Throws when decoded messages leave unread payload behind.
  void finish() const;

 private:
  template <typename T>
  [[nodiscard]] T get_le(const char* what);

  std::string_view payload_;
  std::size_t at_ = 0;
};

// ---------------------------------------------- worker admission ---

struct HelloMsg {
  std::uint32_t magic = kProtocolMagic;
  std::uint32_t protocol_version = kProtocolVersion;
  /// Application schema word: exp::kSweepSchemaVersion for sweep workers,
  /// kServeWireSchema for serve clients.
  std::uint32_t schema = 0;
};

struct WorkerErrorMsg {
  std::string key;  ///< Empty when not tied to a job.
  std::string message;
};

/// Worker self-identification, sent immediately after Hello. Admission is
/// gated on receiving it: a peer that never identifies is never dispatched
/// to. `threads` lets the coordinator report fleet capacity.
struct WorkerInfoMsg {
  std::string host;
  std::uint64_t pid = 0;
  std::uint64_t threads = 0;
};

[[nodiscard]] std::string encode_hello(const HelloMsg& msg);
[[nodiscard]] HelloMsg decode_hello(const std::string& payload);
/// Empty optional when the hello is acceptable; otherwise a human-readable
/// mismatch description (magic / protocol version / sweep schema).
[[nodiscard]] std::optional<std::string> validate_hello(
    const HelloMsg& msg, std::uint32_t expected_schema);

[[nodiscard]] std::string encode_hello_ack();
/// Throws std::invalid_argument on a version mismatch.
void decode_hello_ack(const std::string& payload);

[[nodiscard]] std::string encode_worker_error(const WorkerErrorMsg& msg);
[[nodiscard]] WorkerErrorMsg decode_worker_error(const std::string& payload);

[[nodiscard]] std::string encode_worker_info(const WorkerInfoMsg& msg);
[[nodiscard]] WorkerInfoMsg decode_worker_info(const std::string& payload);

// ------------------------------------------------------------- framing ---

/// Incremental frame assembler for the coordinator's poll loop: feed()
/// whatever recv() produced, then drain next() until it returns nullopt.
/// Throws std::invalid_argument on an oversized length prefix or an unknown
/// message type (the stream is unrecoverable after either).
class FrameDecoder {
 public:
  void feed(const char* data, std::size_t size);
  [[nodiscard]] std::optional<Frame> next();

 private:
  std::string buffer_;
  std::size_t consumed_ = 0;
};

/// Appends one framed message (header + payload) to `out`. The buffered
/// counterpart of write_frame for reactor loops that coalesce replies into
/// one per-connection output buffer.
void append_frame(std::string& out, MsgType type, const std::string& payload);

/// Blocking frame write, restarted across EINTR/short writes. Uses
/// send(MSG_NOSIGNAL) on sockets (a dead peer yields EPIPE, not SIGPIPE)
/// and write() on other fds. Throws std::runtime_error on I/O failure;
/// error messages name the frame type being written.
void write_frame(int fd, MsgType type, const std::string& payload);

/// Blocking frame read. Returns nullopt on clean EOF at a frame boundary;
/// throws std::runtime_error on EOF mid-frame or I/O errors and
/// std::invalid_argument on oversized frames or unknown types.
[[nodiscard]] std::optional<Frame> read_frame(int fd);

}  // namespace ncb::wire
