// mpiguard-client — wire-level client for mpiguardd: handshake, submit
// detection requests (pipelined, so the daemon's admission window can
// coalesce them into batches), fetch server counters, or drive a
// graceful shutdown. Exit status is script-friendly: 0 every request
// answered with a verdict, 1 usage error, 2 failure (transport loss,
// protocol damage or an ERROR reply), 3 requests bounced BUSY and
// --retry-busy was not given, 4 requests shed EXPIRED by the daemon.
//
// Resilience (docs/SERVING.md, "Failure model"): BUSY rejections and
// failed connects retry under bounded exponential backoff with jitter
// (serve/backoff.hpp); --deadline-ms attaches a shed deadline to each
// request; --reconnect N survives a dropped connection by
// reconnecting and resubmitting everything unanswered — sound because
// requests are idempotent (a verdict is a pure function of spec+index).
#include <chrono>
#include <iostream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "serve/backoff.hpp"
#include "serve/transport.hpp"
#include "serve/wire.hpp"

using namespace mpidetect;

namespace {

constexpr const char* kUsage = R"(mpiguard-client — talk to an mpiguardd daemon

usage:
  mpiguard-client --socket PATH [requests] [--stats] [--shutdown]

requests:
  --dataset SPEC    dataset spec to submit against (e.g. "mbi:0.05@7")
  --count N         submit case indices 0..N-1 of the dataset (default 1
                    when --dataset is given)
  --index I         submit exactly case index I (overrides --count)
  --detector KEY    registry key of the bundle to use (default: the
                    daemon's first loaded model)
  --deadline-ms D   per-request shed deadline: the daemon answers
                    EXPIRED instead of a verdict it cannot produce in
                    time (0 = none, the default)
  --retry-busy      resubmit requests bounced with BUSY until served
                    (bounded exponential backoff with jitter)
  --max-retries N   per-request cap on BUSY resubmits (default 64)
  --connect-retries N
                    retry a failed connect N times under the same
                    backoff (daemon still starting up; default 0)
  --reconnect N     on a dropped connection, reconnect and resubmit
                    everything unanswered, up to N times (default 0)
  --backoff-seed S  jitter seed, for reproducible retry schedules

other:
  --stats           print the daemon's counters
  --shutdown        ask the daemon to drain and stop (awaits BYE)
  --quiet           verdict lines only (no CAPS banner)

exit status: 0 all served, 1 usage, 2 failure, 3 unretried BUSY,
             4 deadline expired (EXPIRED reply).
)";

struct CliError final : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::uint64_t parse_u64(const std::string& s, const char* what) {
  try {
    std::size_t pos = 0;
    if (s.empty() || s.front() == '-') throw std::invalid_argument(s);
    const std::uint64_t v = std::stoull(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw CliError(std::string(what) + ": not a non-negative integer: '" + s +
                   "'");
  }
}

struct Args {
  std::string socket_path;
  std::string dataset;
  std::string detector;
  std::uint64_t count = 1;
  std::optional<std::uint64_t> index;
  std::uint32_t deadline_ms = 0;
  bool retry_busy = false;
  std::uint64_t max_retries = 64;
  std::uint64_t connect_retries = 0;
  std::uint64_t reconnect = 0;
  std::uint64_t backoff_seed = 1;
  bool stats = false;
  bool do_shutdown = false;
  bool quiet = false;
};

Args parse_args(int argc, char** argv) {
  Args a;
  const auto need_value = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc) throw CliError(std::string(flag) + " requires a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string_view f = argv[i];
    if (f == "--socket") a.socket_path = need_value(i, "--socket");
    else if (f == "--dataset") a.dataset = need_value(i, "--dataset");
    else if (f == "--detector") a.detector = need_value(i, "--detector");
    else if (f == "--count")
      a.count = parse_u64(need_value(i, "--count"), "--count");
    else if (f == "--index")
      a.index = parse_u64(need_value(i, "--index"), "--index");
    else if (f == "--deadline-ms")
      a.deadline_ms = static_cast<std::uint32_t>(
          parse_u64(need_value(i, "--deadline-ms"), "--deadline-ms"));
    else if (f == "--retry-busy") a.retry_busy = true;
    else if (f == "--max-retries")
      a.max_retries = parse_u64(need_value(i, "--max-retries"), "--max-retries");
    else if (f == "--connect-retries")
      a.connect_retries =
          parse_u64(need_value(i, "--connect-retries"), "--connect-retries");
    else if (f == "--reconnect")
      a.reconnect = parse_u64(need_value(i, "--reconnect"), "--reconnect");
    else if (f == "--backoff-seed")
      a.backoff_seed =
          parse_u64(need_value(i, "--backoff-seed"), "--backoff-seed");
    else if (f == "--stats") a.stats = true;
    else if (f == "--shutdown") a.do_shutdown = true;
    else if (f == "--quiet") a.quiet = true;
    else if (f == "--help" || f == "-h") throw CliError("");
    else throw CliError("unknown flag: " + std::string(f));
  }
  if (a.socket_path.empty()) throw CliError("--socket is required");
  if (a.dataset.empty() && a.index) {
    throw CliError("--index requires --dataset");
  }
  if (a.dataset.empty() && !a.stats && !a.do_shutdown) {
    throw CliError("nothing to do: give --dataset, --stats or --shutdown");
  }
  return a;
}

/// connect_unix under backoff: a daemon that is still binding its
/// socket (or being restarted by a supervisor) is a transient, not a
/// failure, when the caller allows retries.
std::unique_ptr<serve::Transport> connect_with_retry(const Args& a) {
  serve::Backoff backoff(5, 500, a.backoff_seed ^ 0x636f6e6e);  // "conn"
  std::uint64_t attempts = 0;
  while (true) {
    try {
      return serve::connect_unix(a.socket_path);
    } catch (const serve::TransportError&) {
      if (attempts++ >= a.connect_retries) throw;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(backoff.next_delay_ms()));
    }
  }
}

/// Reads frames until `expected` arrives; anything else is protocol
/// damage worth a hard failure.
template <typename T>
T expect_frame(serve::Transport& t, const char* what) {
  const auto frame = serve::read_frame(t, "mpiguardd");
  if (!frame) {
    throw std::runtime_error(std::string("daemon closed the connection "
                                         "while waiting for ") +
                             what);
  }
  if (const T* f = std::get_if<T>(&*frame)) return *f;
  if (const auto* err = std::get_if<serve::Error>(&*frame)) {
    throw std::runtime_error("daemon error: " + err->message);
  }
  throw std::runtime_error(
      std::string("expected ") + what + ", got " +
      std::string(serve::frame_type_name(serve::frame_type(*frame))));
}

void print_verdict(const serve::Submit& req, const serve::WireVerdict& v) {
  std::cout << req.dataset << "[" << req.index << "] -> "
            << core::outcome_name(
                   static_cast<core::Verdict::Outcome>(v.outcome));
  if (v.predicted_label) std::cout << " label=" << *v.predicted_label;
  if (v.confidence) std::cout << " confidence=" << *v.confidence;
  std::cout << " (batch of " << v.batch_size << ")\n";
}

int run(const Args& a) {
  auto transport = connect_with_retry(a);

  const auto handshake = [&](serve::Transport& t) {
    serve::write_frame(t, serve::Hello{"mpiguard-client"});
    return expect_frame<serve::Caps>(t, "CAPS");
  };
  const auto caps = handshake(*transport);
  if (!a.quiet) {
    std::cout << "connected: " << caps.server << " (queue "
              << caps.queue_capacity << ", batch " << caps.max_batch
              << "), detectors:";
    for (const auto& d : caps.detectors) std::cout << " " << d;
    std::cout << "\n";
  }

  int status = 0;
  if (!a.dataset.empty()) {
    // Pipeline every SUBMIT before reading a single reply — queued
    // requests are what the daemon's admission window coalesces.
    std::map<std::uint64_t, serve::Submit> pending;
    std::map<std::uint64_t, std::uint64_t> busy_retries;
    std::uint64_t next_id = 1;
    const auto submit = [&](std::uint64_t index) {
      serve::Submit req;
      req.request_id = next_id++;
      req.detector = a.detector;
      req.dataset = a.dataset;
      req.index = index;
      req.deadline_ms = a.deadline_ms;
      serve::write_frame(*transport, req);
      pending.emplace(req.request_id, req);
    };
    if (a.index) {
      submit(*a.index);
    } else {
      for (std::uint64_t i = 0; i < a.count; ++i) submit(i);
    }

    serve::Backoff busy_backoff(5, 500, a.backoff_seed);
    std::uint64_t reconnects_used = 0;
    while (!pending.empty()) {
      std::optional<serve::Frame> frame;
      try {
        frame = serve::read_frame(*transport, "mpiguardd");
        if (!frame) {
          throw serve::TransportError("daemon closed the connection");
        }
      } catch (const serve::TransportError& e) {
        // The connection is gone with requests unanswered. Requests are
        // idempotent — a verdict is a pure function of (spec, index) —
        // so reconnect-and-resubmit cannot double-count anything.
        if (reconnects_used >= a.reconnect) {
          throw std::runtime_error(std::string(e.what()) + " with " +
                                   std::to_string(pending.size()) +
                                   " request(s) unanswered");
        }
        ++reconnects_used;
        transport = connect_with_retry(a);
        handshake(*transport);
        if (!a.quiet) {
          std::cerr << "mpiguard-client: reconnected (" << reconnects_used
                    << "/" << a.reconnect << "), resubmitting "
                    << pending.size() << " request(s)\n";
        }
        for (const auto& [id, req] : pending) {
          serve::write_frame(*transport, req);
        }
        continue;
      }
      const auto known = [&](std::uint64_t id, const char* what) {
        const auto it = pending.find(id);
        if (it == pending.end()) {
          throw std::runtime_error(std::string(what) +
                                   " for unknown request id " +
                                   std::to_string(id));
        }
        return it;
      };
      if (const auto* v = std::get_if<serve::WireVerdict>(&*frame)) {
        const auto it = known(v->request_id, "verdict");
        print_verdict(it->second, *v);
        pending.erase(it);
      } else if (const auto* busy = std::get_if<serve::Busy>(&*frame)) {
        const auto it = known(busy->request_id, "busy");
        if (a.retry_busy && busy_retries[busy->request_id] < a.max_retries) {
          ++busy_retries[busy->request_id];
          std::this_thread::sleep_for(
              std::chrono::milliseconds(busy_backoff.next_delay_ms()));
          serve::write_frame(*transport, it->second);
        } else if (a.retry_busy) {
          std::cerr << "mpiguard-client: request " << busy->request_id
                    << " still BUSY after " << a.max_retries
                    << " retries; giving up\n";
          pending.erase(it);
          status = 3;
        } else {
          std::cerr << "mpiguard-client: request " << busy->request_id
                    << " rejected BUSY (queue full; --retry-busy to wait)\n";
          pending.erase(it);
          status = 3;
        }
      } else if (const auto* exp = std::get_if<serve::Expired>(&*frame)) {
        const auto it = known(exp->request_id, "expired");
        std::cerr << "mpiguard-client: request " << exp->request_id
                  << " shed EXPIRED (deadline " << a.deadline_ms
                  << " ms passed before it ran)\n";
        pending.erase(it);
        if (status == 0) status = 4;
      } else if (const auto* err = std::get_if<serve::Error>(&*frame)) {
        if (err->request_id == 0) {
          // Connection-level: framing is gone, nothing else will arrive.
          throw std::runtime_error("daemon error: " + err->message);
        }
        const auto it = known(err->request_id, "error");
        std::cerr << "mpiguard-client: request " << err->request_id
                  << " failed: " << err->message << "\n";
        pending.erase(it);
        status = 2;
      } else {
        throw std::runtime_error(
            "unexpected " +
            std::string(serve::frame_type_name(serve::frame_type(*frame))) +
            " frame");
      }
    }
  }

  if (a.stats) {
    serve::write_frame(*transport, serve::StatsReq{});
    const auto s = expect_frame<serve::Stats>(*transport, "STATS");
    std::cout << "received " << s.received << ", served " << s.served
              << ", busy " << s.busy_rejected << ", request errors "
              << s.request_errors << ", protocol errors "
              << s.protocol_errors << "\n"
              << "batches " << s.batches << ", max coalesced "
              << s.max_coalesced << ", max queue depth " << s.max_queue_depth
              << "\n"
              << "datasets " << s.datasets_materialized << ", cache disk hits "
              << s.cache_disk_hits << ", disk writes " << s.cache_disk_writes
              << "\n"
              << "deadline sheds " << s.deadline_sheds << ", io timeouts "
              << s.io_timeouts << ", reaped " << s.reaped_connections
              << ", retries " << s.retries << ", watchdog trips "
              << s.watchdog_trips << ", faults fired " << s.faults_fired
              << "\n";
    for (const auto& c : s.op_counters) {
      if (c.calls == 0) continue;  // stable 9-row table, print live ops only
      std::cout << "op " << c.name << ": calls " << c.calls << ", flops "
                << c.flops << ", ns " << c.ns << "\n";
    }
  }

  if (a.do_shutdown) {
    serve::write_frame(*transport, serve::Shutdown{});
    expect_frame<serve::Bye>(*transport, "BYE");
    if (!a.quiet) std::cout << "daemon drained and stopped\n";
  }
  return status;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse_args(argc, argv));
  } catch (const CliError& e) {
    if (e.what()[0] != '\0') {
      std::cerr << "mpiguard-client: " << e.what() << "\n\n";
    }
    std::cerr << kUsage;
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "mpiguard-client: " << e.what() << "\n";
    return 2;
  }
}
