// Append-only, schema-versioned binary event log for the decision service.
//
// The log is the durable source of truth for counterfactual evaluation
// (the MWT Decision Service model): every decision lands as a
// (decision_id, key, action, propensity) record, every reward join as a
// (decision_id, reward) record. Records reuse the dist/protocol wire
// codecs (WireWriter/WireReader) and its frame header:
//
//     file     := header record*
//     header   := u32 magic "NCBL" | u32 version
//     record   := u32 payload-length (LE) | u8 record-type | payload
//     decision := u64 decision_id | string key | u32 action | f64 propensity
//     feedback := u64 decision_id | f64 reward
//
// append_event_record and scan_event_records below are the one encoder and
// the one decoder of that record layout: the writer, the reader, and the
// distributed replay preamble (whose ReplayEvents chunks are slices of
// this record stream) all go through them.
//
// Writer: a double-buffered batcher. Appends go into an in-memory buffer
// under a mutex and never wait on disk; a background flusher thread swaps
// the buffers and writes the full batch when the buffer reaches
// flush_bytes or has aged flush_ms. Each append is a complete record, and
// batches are written front-to-back, so the file's only possible damage
// mode — from SIGKILL or power loss mid-write — is an incomplete record at
// the tail. close() (and the destructor, and therefore a handled SIGTERM)
// drains everything appended so far, so a clean shutdown never loses or
// tears a record.
//
// Reader: scans the file and returns every complete record, tolerating a
// truncated tail exactly like the sweep --resume scanner tolerates a
// truncated checkpoint file: the complete prefix is recovered, the torn
// bytes are reported, and only structural corruption (bad magic, unknown
// record type, oversized length) throws.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "util/types.hpp"

namespace ncb::serve {

inline constexpr std::uint32_t kEventLogMagic = 0x4e43424c;  // "NCBL"
/// Bump on any header or record layout change.
inline constexpr std::uint32_t kEventLogVersion = 1;

enum class EventType : std::uint8_t {
  kDecision = 1,  ///< decision_id, user key, action, propensity.
  kFeedback = 2,  ///< decision_id, reward.
};

/// One decoded log record; decision-only fields are defaulted on feedback
/// records and vice versa.
struct EventRecord {
  EventType type = EventType::kDecision;
  std::uint64_t decision_id = 0;
  std::string key;
  ArmId action = kNoArm;
  double propensity = 0.0;
  double reward = 0.0;
};

/// Smallest encoded record: a feedback (5-byte header, u64 id, f64 reward).
inline constexpr std::size_t kMinEventRecordBytes = 21;

/// Appends `record` to `out`, framed exactly as the log file stores it
/// (decision-only fields are skipped on feedback records and vice versa).
/// Throws std::invalid_argument when the payload exceeds the record cap.
void append_event_record(std::string& out, const EventRecord& record);

/// Decodes the complete records at the front of `bytes`, appending them to
/// `out`, and returns the byte length of that valid prefix; whatever
/// follows it is one incomplete record (a torn tail). Offsets in error
/// messages count from the start of `bytes`. Throws std::invalid_argument
/// on structural corruption: an unknown record type, an oversized length,
/// or a complete record whose payload does not decode.
std::size_t scan_event_records(std::string_view bytes,
                               std::vector<EventRecord>& out);

class EventLog {
 public:
  struct Options {
    std::string path;
    /// Flush when the active buffer reaches this size...
    std::size_t flush_bytes = 256 * 1024;
    /// ...or when appended data has been buffered this long.
    int flush_ms = 50;
    /// Registry mirroring the flush-pipeline health metrics (serve.log.*);
    /// nullptr → obs::MetricsRegistry::global().
    obs::MetricsRegistry* metrics = nullptr;
  };

  /// Opens (truncating) `path`, writes the header, starts the flusher.
  /// Throws std::runtime_error when the file cannot be opened.
  explicit EventLog(Options options);
  ~EventLog();

  EventLog(const EventLog&) = delete;
  EventLog& operator=(const EventLog&) = delete;

  void append_decision(std::uint64_t decision_id, const std::string& key,
                       ArmId action, double propensity);
  void append_feedback(std::uint64_t decision_id, double reward);

  /// Blocks until every record appended before the call is on disk (in the
  /// file-content sense: written, not fsynced).
  void flush();

  /// flush() + stop the flusher + close the fd. Idempotent; called by the
  /// destructor. Append/flush after close() throw std::logic_error.
  void close();

  [[nodiscard]] const std::string& path() const noexcept {
    return options_.path;
  }
  /// Records appended so far (buffered or written).
  [[nodiscard]] std::uint64_t records_appended() const;
  /// Bytes written to the file so far (including the header).
  [[nodiscard]] std::uint64_t bytes_written() const;
  /// Completed flusher write batches.
  [[nodiscard]] std::uint64_t flush_batches() const;
  /// True after any flusher write failed (those records were dropped).
  [[nodiscard]] bool write_failed() const;

 private:
  void append_record(const EventRecord& record);
  void flusher_main();
  /// Writes `batch` fully to fd_ (restarting across EINTR/short writes).
  void write_all(const std::string& batch);

  Options options_;
  int fd_ = -1;

  mutable std::mutex mutex_;
  std::condition_variable wake_flusher_;
  std::condition_variable flush_done_;
  std::string active_;   ///< Append side of the double buffer.
  std::string writing_;  ///< Flusher side; only the flusher touches it.
  bool closed_ = false;
  bool stop_ = false;
  bool force_flush_ = false;
  bool write_in_progress_ = false;
  bool write_failed_ = false;
  std::uint64_t records_ = 0;
  std::uint64_t bytes_written_ = 0;
  std::uint64_t flush_batches_ = 0;

  // Registry mirrors (resolved once in the constructor).
  obs::Counter& m_records_;
  obs::Counter& m_flushes_;
  obs::Counter& m_flushed_bytes_;
  obs::Counter& m_flush_stalls_;
  obs::Counter& m_write_failures_;
  obs::Gauge& m_buffered_bytes_;

  std::thread flusher_;
};

/// Result of scanning a log file.
struct EventLogScan {
  std::uint32_t version = 0;
  std::vector<EventRecord> records;
  std::uint64_t decisions = 0;
  std::uint64_t feedbacks = 0;
  /// Feedback records whose decision_id matched an earlier decision record.
  std::uint64_t joined = 0;
  /// Byte length of the valid prefix (header + complete records).
  std::uint64_t valid_bytes = 0;
  /// True when the file ends in an incomplete header or record (the
  /// crash-tolerance case); the complete prefix is still returned.
  bool truncated_tail = false;
};

/// Scans `path`. Tolerates a truncated tail (see EventLogScan); throws
/// std::runtime_error when the file cannot be read and
/// std::invalid_argument on structural corruption (bad magic, wrong
/// version, unknown record type, oversized record, undecodable payload).
[[nodiscard]] EventLogScan read_event_log(const std::string& path);

/// One decision joined to its reward (when one arrived).
struct JoinedEvent {
  std::uint64_t decision_id = 0;
  std::string key;
  ArmId action = kNoArm;
  double propensity = 0.0;
  double reward = 0.0;
  bool has_reward = false;
};

/// A scanned log joined decision-to-reward, the input shape counterfactual
/// evaluation needs. `events` preserves decision order; the join stats
/// separate the engine-guaranteed cases (every feedback matches exactly one
/// earlier decision) from anything a torn or hand-edited log could hold.
struct EventLogJoin {
  std::vector<JoinedEvent> events;  ///< One entry per decision record.
  std::uint64_t decisions = 0;
  std::uint64_t joined = 0;
  /// Feedback records whose decision_id matched no earlier decision.
  std::uint64_t orphan_feedbacks = 0;
  /// Feedback records for a decision that already had a reward.
  std::uint64_t duplicate_feedbacks = 0;
  /// Smallest logged propensity (the epsilon/K exploration floor);
  /// +infinity when the log holds no decisions.
  double min_propensity = 0.0;
};

/// Joins a scan's feedback records to their decisions. Throws
/// std::invalid_argument when a decision record carries a non-positive
/// propensity (such a log cannot support importance weighting).
[[nodiscard]] EventLogJoin join_event_log(const EventLogScan& scan);

}  // namespace ncb::serve
