// Crash-safe file primitives (POSIX) behind an IO-fault seam.
//
// Session and journal files must survive the writing process dying at any
// instant: a half-written session would silently lose a tuning run's worth
// of paid evaluations. Two primitives cover the two write patterns:
//   - write_file_atomic: whole-file replace via temp file + fsync + rename,
//     so readers only ever see the old or the new contents, never a torn
//     middle state;
//   - DurableAppender: append-only writer that fsyncs after every record,
//     so at most the final record (the one being written at the instant of
//     death) can be torn.
//
// Every syscall both primitives issue flows through the process-wide
// FileOps seam. The default implementation is the real thing; tests and
// the chaos harness install a FaultyFileOps that deterministically injects
// short writes, EINTR, ENOSPC, fsync failures, and rename failures — so
// every error path in the durability layer is exercised, not assumed.
// All failures surface as IoError, which carries the operation, the path,
// and the errno, so callers can report exactly what broke where.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>

namespace autodml::util {

/// Typed I/O failure: operation + path + errno. what() renders
/// "op: path (strerror)" so existing string-matching callers keep working.
class IoError : public std::runtime_error {
 public:
  IoError(std::string op, std::string path, int errno_value);

  const std::string& op() const { return op_; }
  const std::string& path() const { return path_; }
  int error_code() const { return errno_; }

 private:
  std::string op_;
  std::string path_;
  int errno_;
};

/// The syscall seam. The base class *is* the real implementation; fault
/// injectors subclass and override selectively. Methods mirror POSIX
/// semantics (return values, errno) exactly, including short writes.
class FileOps {
 public:
  virtual ~FileOps() = default;

  virtual int open(const char* path, int flags, int mode);
  /// May write fewer than `n` bytes (short write), exactly like write(2).
  virtual long write(int fd, const void* buf, std::size_t n);
  virtual int fsync(int fd);
  virtual int close(int fd);
  virtual int rename(const char* from, const char* to);
  virtual int unlink(const char* path);
};

/// Process-wide current FileOps (defaults to the real implementation).
FileOps& file_ops();

/// Install `ops` for the lifetime of the scope; restores the previous seam
/// on destruction. Not reentrancy-safe across threads by design: tests
/// install the shim before spawning work.
// Test surface: tests/fs_fault_test.cpp
class ScopedFileOps {
 public:
  explicit ScopedFileOps(FileOps* ops);
  ~ScopedFileOps();

  ScopedFileOps(const ScopedFileOps&) = delete;
  ScopedFileOps& operator=(const ScopedFileOps&) = delete;

 private:
  FileOps* previous_;
};

/// Deterministic fault plan: 1-based per-operation indices (counted since
/// the shim was installed) mapped to the failure to inject. Operations not
/// listed behave normally.
struct FaultPlan {
  /// write call index -> errno to fail with (e.g. ENOSPC, EIO).
  std::map<std::uint64_t, int> write_errors;
  /// write call index -> accept at most this many bytes (short write).
  std::map<std::uint64_t, std::size_t> short_writes;
  /// write call indices that fail once with EINTR (caller should retry).
  std::set<std::uint64_t> write_eintr;
  /// fsync call index -> errno to fail with.
  std::map<std::uint64_t, int> fsync_errors;
  /// rename call index -> errno to fail with.
  std::map<std::uint64_t, int> rename_errors;
  /// open call index -> errno to fail with.
  std::map<std::uint64_t, int> open_errors;
};

/// FileOps that executes the plan: listed operation indices fail (or short-
/// write) deterministically; everything else passes through to the real
/// syscalls. Counters are internal, so two identically-planned shims
/// behave identically — the basis of the fault-injection determinism
/// tests.
// Test surface: tests/fs_fault_test.cpp
class FaultyFileOps : public FileOps {
 public:
  explicit FaultyFileOps(FaultPlan plan) : plan_(std::move(plan)) {}

  int open(const char* path, int flags, int mode) override;
  long write(int fd, const void* buf, std::size_t n) override;
  int fsync(int fd) override;
  int close(int fd) override;
  int rename(const char* from, const char* to) override;
  int unlink(const char* path) override;

  std::uint64_t injected_faults() const { return injected_; }

 private:
  FaultPlan plan_;
  std::uint64_t opens_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t fsyncs_ = 0;
  std::uint64_t renames_ = 0;
  std::uint64_t injected_ = 0;
};

/// Atomically replace `path` with `content`: write to a sibling temp file,
/// fsync it, rename over the target, fsync the directory. Throws IoError
/// on any I/O failure (the temp file is cleaned up).
void write_file_atomic(const std::string& path, std::string_view content);

/// Whole-file read; throws std::runtime_error when unreadable.
std::string read_file(const std::string& path);

/// Append-only writer with per-record durability. Each append() returns
/// only after the bytes are flushed and fsynced, so a crash between
/// records loses nothing and a crash mid-record tears only the last line.
class DurableAppender {
 public:
  /// Opens (creating if needed) `path` for appending. Throws IoError.
  explicit DurableAppender(const std::string& path);
  ~DurableAppender();

  DurableAppender(const DurableAppender&) = delete;
  DurableAppender& operator=(const DurableAppender&) = delete;

  /// Append one record verbatim (caller supplies the trailing newline),
  /// then fsync. Throws IoError on failure; a failed append may leave a
  /// torn partial record at the tail, which journal loading tolerates.
  void append(std::string_view record);

 private:
  std::string path_;
  int fd_ = -1;
};

}  // namespace autodml::util
