// In-memory span recorder and the io::Env wrapper for the traced run.
//
// The benchmark records spans only from its own files: around each public
// call it makes into a layer, and inside TracingEnv around every file-system
// call the archive makes. A span has a name, start, end, parent and request
// id. A span opened on a thread with no open span has no parent — unless the
// thread is not one of the benchmark's own (a pool worker running a
// background fold), in which case its parent is the "background fold" root.
// Spans stay in memory until the run writes them out at its end.
//
// Self time of a span is its duration minus the part of it that its child
// spans cover.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "io/env.hpp"

namespace perfbench {

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
  std::uint32_t thread = 0;
  std::uint64_t bytes = 0;
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

std::int64_t now_ns();

class Tracer {
 public:
  static Tracer& instance();

  /// Tracing is off until enabled; while off, spans cost one branch.
  void enable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Marks the calling thread as one of the benchmark's own.
  static void register_client_thread();

  /// Opens a span on this thread; `request` 0 inherits the parent's.
  std::int32_t begin(const char* name, std::uint64_t request);
  void end(std::int32_t id, std::uint64_t bytes);

  std::int32_t background_root() const { return background_root_; }
  std::size_t size() const;
  std::vector<Span> spans() const;
  /// Writes every span as one line of text.
  void write(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::int32_t background_root_ = -1;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// RAII span around one call; a no-op when tracing is off.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, std::uint64_t request = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  void add_bytes(std::uint64_t bytes) { bytes_ += bytes; }

 private:
  std::int32_t id_ = -1;
  std::uint64_t bytes_ = 0;
};

/// Children of each span, and self times derived from them.
class SpanTree {
 public:
  explicit SpanTree(std::vector<Span> spans);
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::int32_t>& children(std::int32_t id) const {
    return children_[static_cast<std::size_t>(id)];
  }
  /// Duration minus the union of the children's intervals, in seconds.
  double self_seconds(std::int32_t id) const;
  /// Summed duration of the direct children whose name starts with
  /// `prefix`, in seconds.
  double child_seconds(std::int32_t id, const std::string& prefix) const;
  /// Ids of the spans called `name`, in start order.
  std::vector<std::int32_t> named(const std::string& name) const;

 private:
  std::vector<Span> spans_;
  std::vector<std::vector<std::int32_t>> children_;
};

/// File-system call counts, split by file kind (from the file name:
/// "journal-*" and "snapshot-*"; MANIFEST and temporaries are "other").
struct IoCounts {
  std::uint64_t journal_bytes = 0;
  std::uint64_t snapshot_bytes = 0;
  std::uint64_t other_bytes = 0;
  std::uint64_t appends = 0;
  std::uint64_t file_syncs = 0;
  std::uint64_t dir_syncs = 0;
  std::uint64_t renames = 0;
  std::uint64_t read_bytes = 0;
  std::uint64_t written_bytes() const {
    return journal_bytes + snapshot_bytes + other_bytes;
  }
  IoCounts operator-(const IoCounts& base) const;
};

/// Forwards every call to `base`, counting it and, when tracing is on,
/// recording an "io.*" span around it.
class TracingEnv final : public fmeter::io::Env {
 public:
  explicit TracingEnv(fmeter::io::Env& base) : base_(base) {}

  IoCounts counts() const;

  std::unique_ptr<fmeter::io::WritableFile> new_writable_file(
      const std::string& path, bool truncate) override;
  std::unique_ptr<fmeter::io::RandomAccessFile> new_random_access_file(
      const std::string& path) const override;
  bool file_exists(const std::string& path) const override;
  std::uint64_t file_size(const std::string& path) const override;
  std::vector<std::string> list_dir(const std::string& dir) const override;
  void create_dir(const std::string& dir) override;
  void remove_file(const std::string& path) override;
  void rename_file(const std::string& from, const std::string& to) override;
  void sync_dir(const std::string& dir) override;
  void truncate_file(const std::string& path, std::uint64_t size) override;

  enum class Kind { kJournal, kSnapshot, kOther };
  static Kind kind_of(const std::string& path);

 private:
  friend class TracingWritableFile;
  friend class TracingRandomAccessFile;
  struct Counters {
    std::atomic<std::uint64_t> journal_bytes{0}, snapshot_bytes{0},
        other_bytes{0}, appends{0}, file_syncs{0}, dir_syncs{0}, renames{0},
        read_bytes{0};
  };
  fmeter::io::Env& base_;
  mutable Counters counters_;
};

}  // namespace perfbench
