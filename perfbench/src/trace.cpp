#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <stdexcept>

namespace perfbench {
namespace {

struct ThreadState {
  bool client = false;
  std::uint32_t id = 0;
  std::vector<std::int32_t> open;  // ids of this thread's open spans
};

std::atomic<std::uint32_t> next_thread_id{1};

ThreadState& thread_state() {
  thread_local ThreadState state{
      false, next_thread_id.fetch_add(1, std::memory_order_relaxed), {}};
  return state;
}

std::string base_name(const std::string& path) {
  const auto slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ------------------------------------------------------------------ Tracer

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

void Tracer::enable() {
  const std::lock_guard<std::mutex> lock(mutex_);
  if (enabled_.load()) return;
  spans_.reserve(1 << 16);
  Span root;
  root.name = "background fold";
  root.start_ns = now_ns();
  background_root_ = static_cast<std::int32_t>(spans_.size());
  spans_.push_back(root);
  enabled_.store(true);
}

void Tracer::register_client_thread() { thread_state().client = true; }

std::int32_t Tracer::begin(const char* name, std::uint64_t request) {
  ThreadState& state = thread_state();
  Span span;
  span.name = name;
  span.thread = state.id;
  const std::lock_guard<std::mutex> lock(mutex_);
  if (!state.open.empty()) {
    span.parent = state.open.back();
  } else if (!state.client) {
    span.parent = background_root_;
  }
  if (request == 0 && span.parent >= 0) {
    request = spans_[static_cast<std::size_t>(span.parent)].request;
  }
  span.request = request;
  const auto id = static_cast<std::int32_t>(spans_.size());
  span.start_ns = now_ns();
  spans_.push_back(span);
  state.open.push_back(id);
  return id;
}

void Tracer::end(std::int32_t id, std::uint64_t bytes) {
  const std::int64_t end = now_ns();
  ThreadState& state = thread_state();
  const std::lock_guard<std::mutex> lock(mutex_);
  Span& span = spans_[static_cast<std::size_t>(id)];
  span.end_ns = end;
  span.bytes = bytes;
  if (!state.open.empty() && state.open.back() == id) state.open.pop_back();
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

std::vector<Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out = spans_;
  if (background_root_ >= 0) {
    out[static_cast<std::size_t>(background_root_)].end_ns = now_ns();
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) {
    throw std::runtime_error("cannot write span file " + path);
  }
  std::fprintf(file, "# id name start_ns end_ns parent request thread bytes\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(file, "%zu\t%s\t%lld\t%lld\t%d\t%llu\t%u\t%llu\n", i, s.name,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request), s.thread,
                 static_cast<unsigned long long>(s.bytes));
  }
  std::fclose(file);
}

ScopedSpan::ScopedSpan(const char* name, std::uint64_t request) {
  Tracer& tracer = Tracer::instance();
  if (tracer.enabled()) id_ = tracer.begin(name, request);
}

ScopedSpan::~ScopedSpan() {
  if (id_ >= 0) Tracer::instance().end(id_, bytes_);
}

// ---------------------------------------------------------------- SpanTree

SpanTree::SpanTree(std::vector<Span> spans)
    : spans_(std::move(spans)), children_(spans_.size()) {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children_[static_cast<std::size_t>(spans_[i].parent)].push_back(
          static_cast<std::int32_t>(i));
    }
  }
}

double SpanTree::self_seconds(std::int32_t id) const {
  const Span& span = spans_[static_cast<std::size_t>(id)];
  std::vector<std::pair<std::int64_t, std::int64_t>> covered;
  for (const std::int32_t child : children(id)) {
    const Span& c = spans_[static_cast<std::size_t>(child)];
    const std::int64_t lo = std::max(c.start_ns, span.start_ns);
    const std::int64_t hi = std::min(c.end_ns, span.end_ns);
    if (hi > lo) covered.emplace_back(lo, hi);
  }
  std::sort(covered.begin(), covered.end());
  std::int64_t busy = 0;
  std::int64_t reach = span.start_ns;
  for (const auto& [lo, hi] : covered) {
    const std::int64_t from = std::max(lo, reach);
    if (hi > from) busy += hi - from;
    reach = std::max(reach, hi);
  }
  return static_cast<double>(span.end_ns - span.start_ns - busy) * 1e-9;
}

double SpanTree::child_seconds(std::int32_t id,
                               const std::string& prefix) const {
  double total = 0.0;
  for (const std::int32_t child : children(id)) {
    const Span& c = spans_[static_cast<std::size_t>(child)];
    if (std::string(c.name).rfind(prefix, 0) == 0) total += c.seconds();
  }
  return total;
}

std::vector<std::int32_t> SpanTree::named(const std::string& name) const {
  std::vector<std::int32_t> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) out.push_back(static_cast<std::int32_t>(i));
  }
  return out;
}

// -------------------------------------------------------------- TracingEnv

IoCounts IoCounts::operator-(const IoCounts& base) const {
  IoCounts d;
  d.journal_bytes = journal_bytes - base.journal_bytes;
  d.snapshot_bytes = snapshot_bytes - base.snapshot_bytes;
  d.other_bytes = other_bytes - base.other_bytes;
  d.appends = appends - base.appends;
  d.file_syncs = file_syncs - base.file_syncs;
  d.dir_syncs = dir_syncs - base.dir_syncs;
  d.renames = renames - base.renames;
  d.read_bytes = read_bytes - base.read_bytes;
  return d;
}

TracingEnv::Kind TracingEnv::kind_of(const std::string& path) {
  const std::string name = base_name(path);
  if (name.rfind("journal", 0) == 0) return Kind::kJournal;
  if (name.rfind("snapshot", 0) == 0) return Kind::kSnapshot;
  return Kind::kOther;
}

IoCounts TracingEnv::counts() const {
  IoCounts c;
  c.journal_bytes = counters_.journal_bytes.load();
  c.snapshot_bytes = counters_.snapshot_bytes.load();
  c.other_bytes = counters_.other_bytes.load();
  c.appends = counters_.appends.load();
  c.file_syncs = counters_.file_syncs.load();
  c.dir_syncs = counters_.dir_syncs.load();
  c.renames = counters_.renames.load();
  c.read_bytes = counters_.read_bytes.load();
  return c;
}

class TracingWritableFile final : public fmeter::io::WritableFile {
 public:
  TracingWritableFile(std::unique_ptr<fmeter::io::WritableFile> base,
                      TracingEnv::Counters& counters, TracingEnv::Kind kind)
      : base_(std::move(base)), counters_(counters), kind_(kind) {}

  void append(std::span<const std::byte> data) override {
    ScopedSpan span("io.append");
    span.add_bytes(data.size());
    base_->append(data);
    counters_.appends.fetch_add(1);
    switch (kind_) {
      case TracingEnv::Kind::kJournal:
        counters_.journal_bytes.fetch_add(data.size());
        break;
      case TracingEnv::Kind::kSnapshot:
        counters_.snapshot_bytes.fetch_add(data.size());
        break;
      case TracingEnv::Kind::kOther:
        counters_.other_bytes.fetch_add(data.size());
        break;
    }
  }
  void sync() override {
    ScopedSpan span("io.sync");
    base_->sync();
    counters_.file_syncs.fetch_add(1);
  }
  void close() override {
    ScopedSpan span("io.close");
    base_->close();
  }

 private:
  std::unique_ptr<fmeter::io::WritableFile> base_;
  TracingEnv::Counters& counters_;
  TracingEnv::Kind kind_;
};

class TracingRandomAccessFile final : public fmeter::io::RandomAccessFile {
 public:
  TracingRandomAccessFile(std::unique_ptr<fmeter::io::RandomAccessFile> base,
                          TracingEnv::Counters& counters)
      : base_(std::move(base)), counters_(counters) {}

  std::size_t read(std::uint64_t offset,
                   std::span<std::byte> into) const override {
    ScopedSpan span("io.read");
    const std::size_t got = base_->read(offset, into);
    span.add_bytes(got);
    counters_.read_bytes.fetch_add(got);
    return got;
  }

 private:
  std::unique_ptr<fmeter::io::RandomAccessFile> base_;
  TracingEnv::Counters& counters_;
};

std::unique_ptr<fmeter::io::WritableFile> TracingEnv::new_writable_file(
    const std::string& path, bool truncate) {
  ScopedSpan span("io.open_write");
  return std::make_unique<TracingWritableFile>(
      base_.new_writable_file(path, truncate), counters_, kind_of(path));
}

std::unique_ptr<fmeter::io::RandomAccessFile>
TracingEnv::new_random_access_file(const std::string& path) const {
  ScopedSpan span("io.open_read");
  return std::make_unique<TracingRandomAccessFile>(
      base_.new_random_access_file(path), counters_);
}

bool TracingEnv::file_exists(const std::string& path) const {
  ScopedSpan span("io.stat");
  return base_.file_exists(path);
}

std::uint64_t TracingEnv::file_size(const std::string& path) const {
  ScopedSpan span("io.stat");
  return base_.file_size(path);
}

std::vector<std::string> TracingEnv::list_dir(const std::string& dir) const {
  ScopedSpan span("io.list_dir");
  return base_.list_dir(dir);
}

void TracingEnv::create_dir(const std::string& dir) {
  ScopedSpan span("io.create_dir");
  base_.create_dir(dir);
}

void TracingEnv::remove_file(const std::string& path) {
  ScopedSpan span("io.remove");
  base_.remove_file(path);
}

void TracingEnv::rename_file(const std::string& from, const std::string& to) {
  ScopedSpan span("io.rename");
  base_.rename_file(from, to);
  counters_.renames.fetch_add(1);
}

void TracingEnv::sync_dir(const std::string& dir) {
  ScopedSpan span("io.sync_dir");
  base_.sync_dir(dir);
  counters_.dir_syncs.fetch_add(1);
}

void TracingEnv::truncate_file(const std::string& path, std::uint64_t size) {
  ScopedSpan span("io.truncate");
  base_.truncate_file(path, size);
}

}  // namespace perfbench
