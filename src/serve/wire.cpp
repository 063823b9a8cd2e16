#include "serve/wire.hpp"

#include <sstream>

#include "serve/transport.hpp"
#include "support/check.hpp"

namespace mpidetect::serve {

namespace {

constexpr std::string_view kMagic = "MGWP";
constexpr const char* kWhat = "mpiguardd wire frame";

// Field bounds: generous for real traffic, tight enough that a corrupt
// count dies in validation instead of an allocation.
constexpr std::size_t kMaxName = 4096;      // client/server/spec/message
constexpr std::size_t kMaxKey = 256;        // detector registry keys
constexpr std::size_t kMaxDetectors = 256;  // loaded models per daemon
constexpr std::size_t kMaxOpCounters = 64;  // profiled op classes (STATS)

/// Smallest well-formed payload: magic + version + frame type.
constexpr std::size_t kMinPayload = 4 + 4 + 1;

void write_body(io::Writer& w, const Hello& f) {
  w.str(f.client);
}

void write_body(io::Writer& w, const Caps& f) {
  w.str(f.server);
  w.u32(f.queue_capacity);
  w.u32(f.max_batch);
  w.u64(f.detectors.size());
  for (const auto& d : f.detectors) w.str(d);
}

void write_body(io::Writer& w, const Submit& f) {
  w.u64(f.request_id);
  w.str(f.detector);
  w.str(f.dataset);
  w.u64(f.index);
  w.u32(f.deadline_ms);
}

void write_body(io::Writer& w, const WireVerdict& f) {
  w.u64(f.request_id);
  w.u8(f.outcome);
  w.u8(f.predicted_label.has_value() ? 1 : 0);
  if (f.predicted_label) w.u64(*f.predicted_label);
  w.u8(f.confidence.has_value() ? 1 : 0);
  if (f.confidence) w.f64(*f.confidence);
  w.u32(f.batch_size);
}

void write_body(io::Writer& w, const Busy& f) {
  w.u64(f.request_id);
}

void write_body(io::Writer& w, const Error& f) {
  w.u64(f.request_id);
  w.str(f.message);
}

void write_body(io::Writer&, const StatsReq&) {}

void write_body(io::Writer& w, const Stats& f) {
  w.u64(f.received);
  w.u64(f.served);
  w.u64(f.busy_rejected);
  w.u64(f.request_errors);
  w.u64(f.protocol_errors);
  w.u64(f.batches);
  w.u64(f.max_coalesced);
  w.u64(f.max_queue_depth);
  w.u64(f.datasets_materialized);
  w.u64(f.cache_disk_hits);
  w.u64(f.cache_disk_writes);
  w.u64(f.deadline_sheds);
  w.u64(f.io_timeouts);
  w.u64(f.reaped_connections);
  w.u64(f.retries);
  w.u64(f.watchdog_trips);
  w.u64(f.faults_fired);
  MPIDETECT_CHECK(f.op_counters.size() <= kMaxOpCounters);
  w.u64(f.op_counters.size());
  for (const OpCounter& c : f.op_counters) {
    w.str(c.name);
    w.u64(c.calls);
    w.u64(c.flops);
    w.u64(c.ns);
  }
}

void write_body(io::Writer&, const Shutdown&) {}

void write_body(io::Writer&, const Bye&) {}

void write_body(io::Writer& w, const Expired& f) {
  w.u64(f.request_id);
}

std::uint8_t read_flag(io::Reader& r) {
  const std::uint8_t v = r.u8();
  if (v > 1) r.fail("bad presence flag " + std::to_string(v));
  return v;
}

Frame read_body(io::Reader& r, FrameType type) {
  switch (type) {
    case FrameType::Hello: {
      Hello f;
      f.client = r.str(kMaxName);
      return f;
    }
    case FrameType::Caps: {
      Caps f;
      f.server = r.str(kMaxName);
      f.queue_capacity = r.u32();
      f.max_batch = r.u32();
      const std::size_t n = r.count(kMaxDetectors);
      f.detectors.reserve(n);
      for (std::size_t i = 0; i < n; ++i) f.detectors.push_back(r.str(kMaxKey));
      return f;
    }
    case FrameType::Submit: {
      Submit f;
      f.request_id = r.u64();
      f.detector = r.str(kMaxKey);
      f.dataset = r.str(kMaxName);
      f.index = r.u64();
      f.deadline_ms = r.u32();
      return f;
    }
    case FrameType::Verdict: {
      WireVerdict f;
      f.request_id = r.u64();
      f.outcome = r.u8();
      if (f.outcome > 4) {  // core::kNumOutcomes - 1, re-checked by users
        r.fail("bad verdict outcome " + std::to_string(f.outcome));
      }
      if (read_flag(r) != 0) f.predicted_label = r.u64();
      if (read_flag(r) != 0) f.confidence = r.f64();
      f.batch_size = r.u32();
      if (f.batch_size == 0) r.fail("verdict batch_size is zero");
      return f;
    }
    case FrameType::Busy: {
      Busy f;
      f.request_id = r.u64();
      return f;
    }
    case FrameType::Error: {
      Error f;
      f.request_id = r.u64();
      f.message = r.str(kMaxName);
      return f;
    }
    case FrameType::StatsReq:
      return StatsReq{};
    case FrameType::Stats: {
      Stats f;
      f.received = r.u64();
      f.served = r.u64();
      f.busy_rejected = r.u64();
      f.request_errors = r.u64();
      f.protocol_errors = r.u64();
      f.batches = r.u64();
      f.max_coalesced = r.u64();
      f.max_queue_depth = r.u64();
      f.datasets_materialized = r.u64();
      f.cache_disk_hits = r.u64();
      f.cache_disk_writes = r.u64();
      f.deadline_sheds = r.u64();
      f.io_timeouts = r.u64();
      f.reaped_connections = r.u64();
      f.retries = r.u64();
      f.watchdog_trips = r.u64();
      f.faults_fired = r.u64();
      const std::size_t n = r.count(kMaxOpCounters);
      f.op_counters.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        OpCounter c;
        c.name = r.str(kMaxKey);
        c.calls = r.u64();
        c.flops = r.u64();
        c.ns = r.u64();
        f.op_counters.push_back(std::move(c));
      }
      return f;
    }
    case FrameType::Shutdown:
      return Shutdown{};
    case FrameType::Bye:
      return Bye{};
    case FrameType::Expired: {
      Expired f;
      f.request_id = r.u64();
      return f;
    }
  }
  r.fail("unknown frame type " +
         std::to_string(static_cast<unsigned>(type)));
}

}  // namespace

std::string_view frame_type_name(FrameType t) {
  switch (t) {
    case FrameType::Hello: return "HELLO";
    case FrameType::Caps: return "CAPS";
    case FrameType::Submit: return "SUBMIT";
    case FrameType::Verdict: return "VERDICT";
    case FrameType::Busy: return "BUSY";
    case FrameType::Error: return "ERROR";
    case FrameType::StatsReq: return "STATS_REQ";
    case FrameType::Stats: return "STATS";
    case FrameType::Shutdown: return "SHUTDOWN";
    case FrameType::Bye: return "BYE";
    case FrameType::Expired: return "EXPIRED";
  }
  MPIDETECT_UNREACHABLE("bad FrameType");
}

FrameType frame_type(const Frame& f) {
  return std::visit(
      [](const auto& v) -> FrameType {
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, Hello>) return FrameType::Hello;
        else if constexpr (std::is_same_v<T, Caps>) return FrameType::Caps;
        else if constexpr (std::is_same_v<T, Submit>) return FrameType::Submit;
        else if constexpr (std::is_same_v<T, WireVerdict>)
          return FrameType::Verdict;
        else if constexpr (std::is_same_v<T, Busy>) return FrameType::Busy;
        else if constexpr (std::is_same_v<T, Error>) return FrameType::Error;
        else if constexpr (std::is_same_v<T, StatsReq>)
          return FrameType::StatsReq;
        else if constexpr (std::is_same_v<T, Stats>) return FrameType::Stats;
        else if constexpr (std::is_same_v<T, Shutdown>)
          return FrameType::Shutdown;
        else if constexpr (std::is_same_v<T, Expired>)
          return FrameType::Expired;
        else return FrameType::Bye;
      },
      f);
}

std::string encode_frame(const Frame& f) {
  std::ostringstream payload(std::ios::binary);
  io::Writer w(payload);
  io::write_section(w, kMagic, kWireVersion);
  w.u8(static_cast<std::uint8_t>(frame_type(f)));
  std::visit([&](const auto& v) { write_body(w, v); }, f);
  const std::string body = payload.str();
  MPIDETECT_CHECK(body.size() <= kMaxFrameBytes);

  std::string out;
  out.reserve(4 + body.size());
  const auto len = static_cast<std::uint32_t>(body.size());
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((len >> (8 * i)) & 0xff));
  }
  out.append(body);
  return out;
}

Frame decode_payload(std::string_view payload, const std::string& origin) {
  std::istringstream is(std::string(payload), std::ios::binary);
  io::Reader r(is, origin);
  // The section header is checked here rather than by io::read_section,
  // which accepts a range of versions: every frame must speak exactly
  // kWireVersion.
  char magic[4];
  for (char& c : magic) c = static_cast<char>(r.u8());
  if (std::string_view(magic, 4) != kMagic) {
    r.fail(std::string("not an ") + kWhat + " (bad magic)");
  }
  const std::uint32_t version = r.u32();
  if (version != kWireVersion) {
    r.fail(std::string("unsupported ") + kWhat + " version " +
           std::to_string(version) + " (this build speaks only version " +
           std::to_string(kWireVersion) + ")");
  }
  const std::uint8_t raw_type = r.u8();
  if (raw_type < static_cast<std::uint8_t>(FrameType::Hello) ||
      raw_type > static_cast<std::uint8_t>(FrameType::Expired)) {
    r.fail("unknown frame type " + std::to_string(raw_type));
  }
  Frame f = read_body(r, static_cast<FrameType>(raw_type));
  if (!r.at_end()) {
    r.fail("trailing bytes after " +
           std::string(frame_type_name(static_cast<FrameType>(raw_type))) +
           " frame (corrupt stream)");
  }
  return f;
}

void write_frame(Transport& t, const Frame& f) {
  const std::string bytes = encode_frame(f);
  t.write_all(bytes.data(), bytes.size());
}

std::optional<Frame> read_frame(Transport& t, const std::string& origin,
                                const ReadTimeouts& timeouts) {
  // The wait for a frame to START is the idle deadline (reaper); once
  // the length prefix begins arriving, every subsequent wait is bounded
  // by the (typically much shorter) per-read io deadline, so a peer
  // trickling half a frame — a slow loris — cannot park this thread.
  t.set_read_timeout(timeouts.idle_ms);
  unsigned char len_bytes[4];
  std::size_t got = 0;
  while (got < 4) {
    const std::size_t r = t.read_some(len_bytes + got, 4 - got);
    if (r == 0) {
      if (got == 0) return std::nullopt;  // clean EOF
      throw TransportError("connection closed mid-frame (" +
                           std::to_string(got) + " of 4 prefix bytes)");
    }
    got += r;
    t.set_read_timeout(timeouts.io_ms);  // the frame has started
  }
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(len_bytes[i]) << (8 * i);
  }
  if (len < kMinPayload || len > kMaxFrameBytes) {
    throw io::FormatError(origin + ": implausible frame length " +
                          std::to_string(len) +
                          " (corrupt length prefix or lost framing)");
  }
  std::string payload(len, '\0');
  if (!t.read_exact(payload.data(), payload.size())) {
    throw io::FormatError(origin + ": unexpected end of stream inside frame");
  }
  return decode_payload(payload, origin);
}

}  // namespace mpidetect::serve
