// Crash-safe result journaling for long campaigns: an append-only JSONL
// file (one JSON record per line) whose on-disk image is only ever
// replaced atomically.
//
// Write protocol: records accumulate in memory and every
// `checkpoint_block` appends the full record list is written to
// `<path>.tmp` and renamed over `<path>`. rename(2) on a POSIX
// filesystem is atomic, so a reader (or a resumed campaign) always sees
// either the previous checkpoint or the new one -- never a torn file.
// A crash between checkpoints loses at most the records appended since
// the last checkpoint; those are deterministic re-computations, so the
// resume path simply redoes them.
//
// Read protocol: a well-formed journal is a sequence of parseable JSON
// lines. The final line may be incomplete (a crash mid-write of a
// non-checkpointed append by a cooperating external writer, or a
// truncated copy); it is dropped and reported via `truncated_tail`.
// A malformed record anywhere *before* the final line means the file
// was corrupted (bit rot, concurrent writers, manual edits) and is
// rejected with InvalidInputError -- resuming from it would silently
// drop completed work.
#pragma once

#include <cstddef>
#include <mutex>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace dot::util {

/// Thread-safe journal writer. append() may be called concurrently from
/// campaign workers; checkpoints serialize internally.
class JournalWriter {
 public:
  /// Opens the journal. With `preserve_existing`, valid records already
  /// in the file (a resumed run) are loaded and kept byte-identical in
  /// every subsequent checkpoint; otherwise the journal starts empty
  /// (the file is replaced at the first checkpoint).
  explicit JournalWriter(std::string path, bool preserve_existing = false,
                         std::size_t checkpoint_block = 16);

  /// Flushes any unsaved records, ignoring flush errors (destructors
  /// must not throw); call close() for checked shutdown.
  ~JournalWriter();

  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Appends one record (a complete JSON document, no newline). A
  /// checkpoint is taken automatically every `checkpoint_block`
  /// appends.
  void append(const std::string& json_record);

  /// Writes all records to `<path>.tmp` and atomically renames it over
  /// `<path>`. Throws InvalidInputError (with the path) when the
  /// filesystem rejects the write.
  void checkpoint();

  /// Final checkpoint; idempotent.
  void close();

  const std::string& path() const { return path_; }

 private:
  void checkpoint_locked();

  mutable std::mutex mutex_;
  std::string path_;
  std::vector<std::string> records_;
  std::size_t unflushed_ = 0;
  std::size_t block_ = 16;
};

struct JournalContents {
  std::vector<JsonValue> records;
  /// Raw record lines, byte-identical to the file (minus the dropped
  /// tail); lets a resumed writer preserve existing bytes exactly.
  std::vector<std::string> lines;
  bool truncated_tail = false;  ///< Final record was incomplete (dropped).
};

/// Reads a JSONL journal. A missing file yields an empty result; an
/// incomplete final record is tolerated (see header comment); malformed
/// interior records throw InvalidInputError.
JournalContents read_journal(const std::string& path);

}  // namespace dot::util
