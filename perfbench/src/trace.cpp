#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <mutex>

namespace perfbench::trace {
namespace {

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};
std::atomic<std::uint32_t> g_next_tid{1};

struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::vector<SpanRecord> spans;
  std::vector<std::uint64_t> open;  // ids of the open spans, innermost last
};

std::mutex g_buffers_mu;
std::vector<std::shared_ptr<ThreadBuffer>>& buffers() {
  static std::vector<std::shared_ptr<ThreadBuffer>> b;
  return b;
}

ThreadBuffer& local() {
  // Shared with the registry so spans survive the thread's exit.
  thread_local std::shared_ptr<ThreadBuffer> buf = [] {
    auto b = std::make_shared<ThreadBuffer>();
    b->tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    buffers().push_back(b);
    return b;
  }();
  return *buf;
}

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

void json_escape(std::ostream& out, const std::string& s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out << '\\' << c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out << ' ';
    } else {
      out << c;
    }
  }
}

}  // namespace

void set_enabled(bool on) { g_enabled.store(on, std::memory_order_relaxed); }

bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - g_epoch)
      .count();
}

Span::Span(std::string name, std::uint64_t group) {
  if (!enabled()) return;
  active_ = true;
  ThreadBuffer& b = local();
  rec_.name = std::move(name);
  rec_.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  rec_.parent = b.open.empty() ? 0 : b.open.back();
  rec_.group = group;
  rec_.tid = b.tid;
  b.open.push_back(rec_.id);
  rec_.start_ns = now_ns();
}

Span::~Span() {
  if (!active_) return;
  rec_.end_ns = now_ns();
  ThreadBuffer& b = local();
  b.open.pop_back();
  b.spans.push_back(std::move(rec_));
}

std::uint64_t record(std::string name, std::int64_t start_ns,
                     std::int64_t end_ns, std::uint64_t group,
                     std::uint64_t parent) {
  if (!enabled()) return 0;
  ThreadBuffer& b = local();
  SpanRecord r;
  r.name = std::move(name);
  r.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  r.parent = parent != 0 ? parent : b.open.empty() ? 0 : b.open.back();
  r.group = group;
  r.tid = b.tid;
  r.start_ns = start_ns;
  r.end_ns = end_ns;
  b.spans.push_back(std::move(r));
  return b.spans.back().id;
}

std::vector<SpanRecord> collect() {
  std::vector<SpanRecord> all;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (const auto& b : buffers()) {
    all.insert(all.end(), b->spans.begin(), b->spans.end());
  }
  return all;
}

bool write_chrome(const std::string& path,
                  const std::vector<SpanRecord>& spans) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (const auto& s : spans) {
    if (!first) out << ",\n";
    first = false;
    out << "{\"name\":\"";
    json_escape(out, s.name);
    out << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.duration_ns()) / 1e3
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"group\":" << s.group << "}}";
  }
  out << "]}\n";
  return static_cast<bool>(out.flush());
}

std::map<std::uint64_t, std::int64_t> self_times(
    const std::vector<SpanRecord>& spans) {
  std::map<std::uint64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const auto& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::map<std::uint64_t, std::int64_t> self;
  for (const auto& s : spans) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      // Union of the children's intervals, clipped to the parent's.
      std::int64_t cur_lo = 0, cur_hi = 0;
      bool open = false;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_ns);
        hi = std::min(hi, s.end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
    }
    self[s.id] = s.duration_ns() - covered;
  }
  return self;
}

std::map<std::string, NameStats> by_name(const std::vector<SpanRecord>& spans) {
  const auto self = self_times(spans);
  std::map<std::string, NameStats> out;
  for (const auto& s : spans) {
    NameStats& n = out[s.name];
    ++n.count;
    n.total_ns += s.duration_ns();
    n.self_ns += self.at(s.id);
  }
  return out;
}

}  // namespace perfbench::trace
