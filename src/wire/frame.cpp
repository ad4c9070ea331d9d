#include "wire/frame.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace ncb::wire {

// ------------------------------------------------------- frame header ---

void append_frame_header(std::string& out, std::uint32_t length,
                         std::uint8_t type) {
  append_le(out, length);
  out.push_back(static_cast<char>(type));
}

FrameHeader parse_frame_header(const char* p) {
  return {load_le<std::uint32_t>(p),
          static_cast<std::uint8_t>(static_cast<unsigned char>(p[4]))};
}

// ------------------------------------------------------------ payloads ---

void WireWriter::put_u8(std::uint8_t v) {
  out_->push_back(static_cast<char>(v));
}

void WireWriter::put_u32(std::uint32_t v) { append_le(*out_, v); }

void WireWriter::put_u64(std::uint64_t v) { append_le(*out_, v); }

void WireWriter::put_double(double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v, "IEEE-754 double expected");
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(bits);
}

void WireWriter::put_string(std::string_view s) {
  if (s.size() > kMaxFramePayload) {
    throw std::invalid_argument("wire: string exceeds frame limit");
  }
  put_u32(static_cast<std::uint32_t>(s.size()));
  out_->append(s);
}

namespace {

[[noreturn]] void truncated(const char* what) {
  throw std::invalid_argument(std::string("wire: truncated payload (") + what +
                              ")");
}

}  // namespace

template <typename T>
T WireReader::get_le(const char* what) {
  if (remaining() < sizeof(T)) truncated(what);
  const T v = load_le<T>(payload_.data() + at_);
  at_ += sizeof(T);
  return v;
}

std::uint8_t WireReader::get_u8() { return get_le<std::uint8_t>("u8"); }

std::uint32_t WireReader::get_u32() { return get_le<std::uint32_t>("u32"); }

std::uint64_t WireReader::get_u64() { return get_le<std::uint64_t>("u64"); }

double WireReader::get_double() {
  const std::uint64_t bits = get_u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::string WireReader::get_string() {
  const std::uint32_t size = get_u32();
  if (size > kMaxFramePayload || size > remaining()) truncated("string");
  std::string out(payload_.substr(at_, size));
  at_ += size;
  return out;
}

void WireReader::check_count(std::uint64_t count, std::size_t min_item_bytes,
                             const char* what) const {
  if (count > remaining() / min_item_bytes) {
    throw std::invalid_argument("wire: " + std::string(what) + " count " +
                                std::to_string(count) + " exceeds the " +
                                std::to_string(remaining()) +
                                " bytes left in the payload");
  }
}

void WireReader::finish() const {
  if (at_ != payload_.size()) {
    throw std::invalid_argument("wire: trailing bytes after message");
  }
}

const char* frame_type_name(MsgType type) noexcept {
  switch (type) {
    case MsgType::kHello:
      return "Hello";
    case MsgType::kHelloAck:
      return "HelloAck";
    case MsgType::kJobAssign:
      return "JobAssign";
    case MsgType::kJobResult:
      return "JobResult";
    case MsgType::kWorkerError:
      return "WorkerError";
    case MsgType::kShutdown:
      return "Shutdown";
    case MsgType::kDecideRequest:
      return "DecideRequest";
    case MsgType::kDecideReply:
      return "DecideReply";
    case MsgType::kFeedback:
      return "Feedback";
    case MsgType::kWorkerInfo:
      return "WorkerInfo";
    case MsgType::kReplayInit:
      return "ReplayInit";
    case MsgType::kReplayEvents:
      return "ReplayEvents";
    case MsgType::kReplayAssign:
      return "ReplayAssign";
    case MsgType::kReplayResult:
      return "ReplayResult";
    case MsgType::kStatsRequest:
      return "StatsRequest";
    case MsgType::kStatsReply:
      return "StatsReply";
  }
  return "unknown";
}

std::string frame_type_label(std::uint8_t raw_type) {
  return std::string(frame_type_name(static_cast<MsgType>(raw_type))) + " (" +
         std::to_string(raw_type) + ")";
}

std::string encode_hello(const HelloMsg& msg) {
  WireWriter out;
  out.put_u32(msg.magic);
  out.put_u32(msg.protocol_version);
  out.put_u32(msg.schema);
  return out.take();
}

HelloMsg decode_hello(const std::string& payload) {
  WireReader in(payload);
  HelloMsg msg;
  msg.magic = in.get_u32();
  msg.protocol_version = in.get_u32();
  msg.schema = in.get_u32();
  in.finish();
  return msg;
}

std::optional<std::string> validate_hello(const HelloMsg& msg,
                                          std::uint32_t expected_schema) {
  if (msg.magic != kProtocolMagic) {
    char magic[16];
    std::snprintf(magic, sizeof magic, "0x%08x", msg.magic);
    return "handshake: bad magic " + std::string(magic) +
           " (peer does not speak the ncb protocol)";
  }
  if (msg.protocol_version != kProtocolVersion) {
    return "handshake: protocol version mismatch (peer v" +
           std::to_string(msg.protocol_version) + ", expected v" +
           std::to_string(kProtocolVersion) + ")";
  }
  if (msg.schema != expected_schema) {
    return "handshake: schema mismatch (peer schema " +
           std::to_string(msg.schema) + ", expected schema " +
           std::to_string(expected_schema) + ")";
  }
  return std::nullopt;
}

std::string encode_hello_ack() {
  WireWriter out;
  out.put_u32(kProtocolVersion);
  return out.take();
}

void decode_hello_ack(const std::string& payload) {
  WireReader in(payload);
  const std::uint32_t version = in.get_u32();
  in.finish();
  if (version != kProtocolVersion) {
    throw std::invalid_argument(
        "handshake: coordinator protocol version mismatch (coordinator v" +
        std::to_string(version) + ", worker v" +
        std::to_string(kProtocolVersion) + ")");
  }
}

std::string encode_worker_error(const WorkerErrorMsg& msg) {
  WireWriter out;
  out.put_string(msg.key);
  out.put_string(msg.message);
  return out.take();
}

WorkerErrorMsg decode_worker_error(const std::string& payload) {
  WireReader in(payload);
  WorkerErrorMsg msg;
  msg.key = in.get_string();
  msg.message = in.get_string();
  in.finish();
  return msg;
}

std::string encode_worker_info(const WorkerInfoMsg& msg) {
  WireWriter out;
  out.put_string(msg.host);
  out.put_u64(msg.pid);
  out.put_u64(msg.threads);
  return out.take();
}

WorkerInfoMsg decode_worker_info(const std::string& payload) {
  WireReader in(payload);
  WorkerInfoMsg msg;
  msg.host = in.get_string();
  msg.pid = in.get_u64();
  msg.threads = in.get_u64();
  in.finish();
  return msg;
}

// ------------------------------------------------------------- framing ---

namespace {

bool valid_type(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(MsgType::kHello) &&
         type <= static_cast<std::uint8_t>(MsgType::kStatsReply);
}

/// Parses a frame header; throws on an unusable length or type.
FrameHeader checked_header(const char* p) {
  const FrameHeader header = parse_frame_header(p);
  if (header.length > kMaxFramePayload) {
    throw std::invalid_argument("frame: oversized payload length " +
                                std::to_string(header.length) + " for " +
                                frame_type_label(header.type) + " frame");
  }
  if (!valid_type(header.type)) {
    throw std::invalid_argument("frame: unknown message type " +
                                frame_type_label(header.type));
  }
  return header;
}

}  // namespace

void FrameDecoder::feed(const char* data, std::size_t size) {
  // Compact lazily so repeated small feeds stay amortized O(n).
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

std::optional<Frame> FrameDecoder::next() {
  const std::size_t available = buffer_.size() - consumed_;
  if (available < kFrameHeaderBytes) return std::nullopt;
  const char* head = buffer_.data() + consumed_;
  const FrameHeader header = checked_header(head);
  if (available < kFrameHeaderBytes + header.length) return std::nullopt;
  Frame frame;
  frame.type = static_cast<MsgType>(header.type);
  frame.payload.assign(head + kFrameHeaderBytes, header.length);
  consumed_ += kFrameHeaderBytes + header.length;
  return frame;
}

namespace {

/// send() on sockets so a vanished peer surfaces as EPIPE instead of
/// SIGPIPE; plain write() for pipe-based transports.
ssize_t write_some(int fd, const char* data, std::size_t size) {
  const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
  if (n >= 0 || errno != ENOTSOCK) return n;
  return ::write(fd, data, size);
}

}  // namespace

void append_frame(std::string& out, MsgType type, const std::string& payload) {
  if (payload.size() > kMaxFramePayload) {
    throw std::runtime_error("frame: payload exceeds limit for " +
                             frame_type_label(static_cast<std::uint8_t>(type)) +
                             " frame");
  }
  out.reserve(out.size() + kFrameHeaderBytes + payload.size());
  append_frame_header(out, static_cast<std::uint32_t>(payload.size()),
                      static_cast<std::uint8_t>(type));
  out.append(payload);
}

void write_frame(int fd, MsgType type, const std::string& payload) {
  std::string wire;
  append_frame(wire, type, payload);

  std::size_t sent = 0;
  while (sent < wire.size()) {
    const ssize_t n = write_some(fd, wire.data() + sent, wire.size() - sent);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string detail =
          std::string("frame write failed (") + frame_type_name(type) +
          "): " + std::strerror(errno);
      if (errno == EPIPE || errno == ECONNRESET) {
        throw PeerClosedError(detail);
      }
      throw std::runtime_error(detail);
    }
    sent += static_cast<std::size_t>(n);
  }
}

namespace {

/// Reads exactly `size` bytes. Returns false only on EOF with zero bytes
/// read; throws on mid-buffer EOF or I/O errors. A connection reset counts
/// as EOF — a peer that died with data in flight is still just "gone".
bool read_exact(int fd, char* out, std::size_t size) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::read(fd, out + got, size - got);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno != ECONNRESET) {
        throw std::runtime_error(std::string("frame read failed: ") +
                                 std::strerror(errno));
      }
    }
    if (n <= 0) {
      if (got == 0) return false;
      throw std::runtime_error("frame read failed: EOF mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return true;
}

}  // namespace

std::optional<Frame> read_frame(int fd) {
  char header[kFrameHeaderBytes];
  if (!read_exact(fd, header, sizeof header)) return std::nullopt;
  const FrameHeader parsed = checked_header(header);
  Frame frame;
  frame.type = static_cast<MsgType>(parsed.type);
  frame.payload.resize(parsed.length);
  if (parsed.length > 0 &&
      !read_exact(fd, frame.payload.data(), parsed.length)) {
    throw std::runtime_error(std::string("frame read failed: EOF before ") +
                             frame_type_name(frame.type) + " payload");
  }
  return frame;
}

}  // namespace ncb::wire
