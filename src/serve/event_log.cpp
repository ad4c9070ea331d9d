#include "serve/event_log.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <stdexcept>
#include <unordered_map>

#include "wire/frame.hpp"

namespace ncb::serve {

namespace {

constexpr std::size_t kHeaderBytes = 8;  // u32 magic + u32 version.

/// Caps one record's payload; a corrupted length fails fast instead of
/// swallowing the rest of the file as "one record".
constexpr std::uint32_t kMaxRecordPayload = 1u << 20;

obs::MetricsRegistry& log_registry(const EventLog::Options& options) {
  return options.metrics != nullptr ? *options.metrics
                                    : obs::MetricsRegistry::global();
}

}  // namespace

EventLog::EventLog(Options options)
    : options_(std::move(options)),
      m_records_(log_registry(options_).counter("serve.log.records")),
      m_flushes_(log_registry(options_).counter("serve.log.flushes")),
      m_flushed_bytes_(
          log_registry(options_).counter("serve.log.flushed_bytes")),
      m_flush_stalls_(
          log_registry(options_).counter("serve.log.flush_stalls")),
      m_write_failures_(
          log_registry(options_).counter("serve.log.write_failures")),
      m_buffered_bytes_(
          log_registry(options_).gauge("serve.log.buffered_bytes")) {
  if (options_.path.empty()) {
    throw std::runtime_error("event log: empty path");
  }
  fd_ = ::open(options_.path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
               0644);
  if (fd_ < 0) {
    throw std::runtime_error("event log: cannot open '" + options_.path +
                             "': " + std::strerror(errno));
  }
  wire::WireWriter header;
  header.put_u32(kEventLogMagic);
  header.put_u32(kEventLogVersion);
  const std::string bytes = header.take();
  write_all(bytes);  // single-threaded here: the flusher starts below
  bytes_written_ = bytes.size();
  flusher_ = std::thread([this] { flusher_main(); });
}

EventLog::~EventLog() {
  try {
    close();
  } catch (const std::exception&) {
    // Destructor: the file keeps whatever prefix made it to disk; the
    // reader tolerates exactly that.
  }
}

void EventLog::append_decision(std::uint64_t decision_id,
                               const std::string& key, ArmId action,
                               double propensity) {
  append_record({EventType::kDecision, decision_id, key, action, propensity,
                 0.0});
}

void EventLog::append_feedback(std::uint64_t decision_id, double reward) {
  append_record({EventType::kFeedback, decision_id, {}, kNoArm, 0.0, reward});
}

void EventLog::append_record(const EventRecord& record) {
  bool signal = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) throw std::logic_error("event log: append after close");
    append_event_record(active_, record);
    ++records_;
    signal = active_.size() >= options_.flush_bytes;
    // A full buffer while the previous batch is still being written means
    // appends are outpacing the disk — the stall signal a saturated log
    // shows before it starts growing without bound.
    if (signal && write_in_progress_) m_flush_stalls_.inc();
    m_buffered_bytes_.set(static_cast<std::int64_t>(active_.size()));
  }
  m_records_.inc();
  if (signal) wake_flusher_.notify_one();
}

void EventLog::flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  if (closed_) throw std::logic_error("event log: flush after close");
  force_flush_ = true;
  wake_flusher_.notify_one();
  flush_done_.wait(lock,
                   [this] { return active_.empty() && !write_in_progress_; });
}

void EventLog::close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_flusher_.notify_one();
  if (flusher_.joinable()) flusher_.join();
  std::lock_guard<std::mutex> lock(mutex_);
  if (closed_) return;
  // The flusher drains active_ before exiting, so everything appended
  // before close() is on disk here.
  closed_ = true;
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

std::uint64_t EventLog::records_appended() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

std::uint64_t EventLog::bytes_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_written_;
}

std::uint64_t EventLog::flush_batches() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return flush_batches_;
}

bool EventLog::write_failed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return write_failed_;
}

void EventLog::flusher_main() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    // Wake early for a full buffer, a forced flush, or shutdown; a timeout
    // with a small non-empty buffer is the age threshold firing (worst
    // case one extra wait of flush_ms for a just-appended record).
    wake_flusher_.wait_for(
        lock, std::chrono::milliseconds(options_.flush_ms), [this] {
          return stop_ || force_flush_ ||
                 active_.size() >= options_.flush_bytes;
        });
    if (active_.empty()) {
      force_flush_ = false;
      flush_done_.notify_all();
      if (stop_) break;
      continue;
    }
    writing_.clear();
    writing_.swap(active_);
    write_in_progress_ = true;
    m_buffered_bytes_.set(0);
    const bool already_failed = write_failed_;
    lock.unlock();
    bool wrote = true;
    try {
      write_all(writing_);
    } catch (const std::exception& e) {
      // An I/O failure (disk full, revoked mount) must not terminate the
      // process from a detached-ish thread: drop the batch, warn once, and
      // keep serving. The log simply ends at the last good record.
      wrote = false;
      if (!already_failed) {
        std::fprintf(stderr, "event log: %s — further records dropped\n",
                     e.what());
      }
    }
    lock.lock();
    write_in_progress_ = false;
    if (wrote) {
      bytes_written_ += writing_.size();
      ++flush_batches_;
      m_flushes_.inc();
      m_flushed_bytes_.inc(writing_.size());
    } else {
      write_failed_ = true;
      m_write_failures_.inc();
    }
    if (active_.empty()) force_flush_ = false;
    flush_done_.notify_all();
  }
}

void EventLog::write_all(const std::string& batch) {
  std::size_t written = 0;
  while (written < batch.size()) {
    const ssize_t n =
        ::write(fd_, batch.data() + written, batch.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("event log: write failed: " +
                               std::string(std::strerror(errno)));
    }
    written += static_cast<std::size_t>(n);
  }
}

void append_event_record(std::string& out, const EventRecord& record) {
  const bool decision = record.type == EventType::kDecision;
  // The payload layouts in the header comment, field by field.
  const std::size_t length =
      decision ? 8 + 4 + record.key.size() + 4 + 8 : 8 + 8;
  if (length > kMaxRecordPayload) {
    throw std::invalid_argument("event log: record payload too large");
  }
  wire::append_frame_header(out, static_cast<std::uint32_t>(length),
                            static_cast<std::uint8_t>(record.type));
  wire::WireWriter payload(out);
  payload.put_u64(record.decision_id);
  if (decision) {
    payload.put_string(record.key);
    payload.put_u32(static_cast<std::uint32_t>(record.action));
    payload.put_double(record.propensity);
  } else {
    payload.put_double(record.reward);
  }
}

std::size_t scan_event_records(std::string_view bytes,
                               std::vector<EventRecord>& out) {
  std::size_t at = 0;
  while (bytes.size() - at >= wire::kFrameHeaderBytes) {
    const wire::FrameHeader header =
        wire::parse_frame_header(bytes.data() + at);
    if (header.length > kMaxRecordPayload) {
      throw std::invalid_argument("event log: oversized record (" +
                                  std::to_string(header.length) +
                                  " bytes) at offset " + std::to_string(at));
    }
    if (header.type != static_cast<std::uint8_t>(EventType::kDecision) &&
        header.type != static_cast<std::uint8_t>(EventType::kFeedback)) {
      throw std::invalid_argument("event log: unknown record type " +
                                  std::to_string(header.type) + " at offset " +
                                  std::to_string(at));
    }
    const std::size_t end = at + wire::kFrameHeaderBytes + header.length;
    if (end > bytes.size()) break;  // complete header, incomplete payload
    wire::WireReader payload(
        bytes.substr(at + wire::kFrameHeaderBytes, header.length));
    EventRecord record;
    record.type = static_cast<EventType>(header.type);
    // A complete record that fails to decode is corruption, not truncation:
    // WireReader's invalid_argument propagates.
    record.decision_id = payload.get_u64();
    if (record.type == EventType::kDecision) {
      record.key = payload.get_string();
      record.action = static_cast<ArmId>(payload.get_u32());
      record.propensity = payload.get_double();
    } else {
      record.reward = payload.get_double();
    }
    payload.finish();
    out.push_back(std::move(record));
    at = end;
  }
  return at;
}

EventLogScan read_event_log(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("event log: cannot read '" + path + "'");
  }
  // One buffer, sized up front when the file has a size (a pipe has none):
  // the whole image is held while it is scanned, so it is held once.
  std::string data;
  std::error_code no_size;
  const std::uintmax_t size = std::filesystem::file_size(path, no_size);
  if (!no_size) data.reserve(static_cast<std::size_t>(size));
  char block[1 << 16];
  while (in.read(block, sizeof block), in.gcount() > 0) {
    data.append(block, static_cast<std::size_t>(in.gcount()));
  }

  EventLogScan scan;
  if (data.size() < kHeaderBytes) {
    scan.truncated_tail = true;  // not even a complete header
    return scan;
  }
  if (wire::load_le<std::uint32_t>(data.data()) != kEventLogMagic) {
    throw std::invalid_argument("event log: bad magic in '" + path +
                                "' (not an ncb event log)");
  }
  scan.version = wire::load_le<std::uint32_t>(data.data() + 4);
  if (scan.version != kEventLogVersion) {
    throw std::invalid_argument(
        "event log: unsupported version " + std::to_string(scan.version) +
        " (reader supports " + std::to_string(kEventLogVersion) + ")");
  }
  const std::string_view records = std::string_view(data).substr(kHeaderBytes);
  scan.valid_bytes = kHeaderBytes + scan_event_records(records, scan.records);
  scan.truncated_tail = scan.valid_bytes != data.size();

  std::set<std::uint64_t> decision_ids;
  for (const EventRecord& record : scan.records) {
    if (record.type == EventType::kDecision) {
      ++scan.decisions;
      decision_ids.insert(record.decision_id);
    } else {
      ++scan.feedbacks;
      if (decision_ids.count(record.decision_id)) ++scan.joined;
    }
  }
  return scan;
}

EventLogJoin join_event_log(const EventLogScan& scan) {
  EventLogJoin join;
  join.min_propensity = std::numeric_limits<double>::infinity();
  std::unordered_map<std::uint64_t, std::size_t> by_id;
  by_id.reserve(scan.decisions);
  for (const EventRecord& record : scan.records) {
    if (record.type == EventType::kDecision) {
      if (!(record.propensity > 0.0)) {
        throw std::invalid_argument(
            "event log: decision " + std::to_string(record.decision_id) +
            " has non-positive propensity " +
            std::to_string(record.propensity) +
            " — cannot importance-weight this log");
      }
      JoinedEvent event;
      event.decision_id = record.decision_id;
      event.key = record.key;
      event.action = record.action;
      event.propensity = record.propensity;
      by_id[record.decision_id] = join.events.size();
      join.events.push_back(std::move(event));
      ++join.decisions;
      if (record.propensity < join.min_propensity) {
        join.min_propensity = record.propensity;
      }
    } else {
      const auto it = by_id.find(record.decision_id);
      if (it == by_id.end()) {
        ++join.orphan_feedbacks;
        continue;
      }
      JoinedEvent& event = join.events[it->second];
      if (event.has_reward) {
        ++join.duplicate_feedbacks;
        continue;
      }
      event.reward = record.reward;
      event.has_reward = true;
      ++join.joined;
    }
  }
  return join;
}

}  // namespace ncb::serve
