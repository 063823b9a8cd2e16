// Span recorder of the benchmark's traced run. Spans are opened only in
// the benchmark's own code, around calls into the library's public
// functions; the library itself is not instrumented.
//
// Each thread appends finished spans to its own in-memory buffer, so
// recording takes no lock after a thread's first span. When tracing is
// off a Span costs one relaxed atomic load. At exit the buffers are
// written as Chrome trace-event JSON (load it in Perfetto or
// chrome://tracing).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

struct SpanRecord {
  std::string name;
  std::uint64_t id = 0;      // unique per span, never 0
  std::uint64_t parent = 0;  // enclosing span on the same thread, 0 = root
  std::uint64_t group = 0;   // shared by every span of one serve request
  std::uint32_t tid = 0;     // recorder-assigned thread number
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Turns recording on or off for the whole process.
void set_enabled(bool on);
bool enabled();

/// Nanoseconds on the steady clock since the recorder's epoch.
std::int64_t now_ns();

/// RAII span: records [construction, destruction) on the calling
/// thread, nested under the thread's innermost open span.
class Span {
 public:
  explicit Span(std::string name, std::uint64_t group = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  bool active_ = false;
  SpanRecord rec_;
};

/// Records a span whose interval was measured elsewhere (for example a
/// request timed by the load generator from its due time), under
/// `parent` or, when 0, the thread's innermost open span. Returns the
/// new span's id (0 when tracing is off).
std::uint64_t record(std::string name, std::int64_t start_ns,
                     std::int64_t end_ns, std::uint64_t group = 0,
                     std::uint64_t parent = 0);

/// Every finished span of every thread, in no particular order.
std::vector<SpanRecord> collect();

/// Writes `spans` as Chrome trace-event JSON; returns false on I/O error.
bool write_chrome(const std::string& path,
                  const std::vector<SpanRecord>& spans);

/// Self time of each span: its duration minus the part of its interval
/// covered by the union of its direct children. Keyed by span id.
std::map<std::uint64_t, std::int64_t> self_times(
    const std::vector<SpanRecord>& spans);

struct NameStats {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

/// Per-name totals over `spans`.
std::map<std::string, NameStats> by_name(const std::vector<SpanRecord>& spans);

}  // namespace perfbench::trace
