// Byte transports for the detection-as-a-service daemon: a blocking
// duplex channel abstraction plus the two concrete carriers the repo
// uses — an in-process socketpair (tests) and AF_UNIX listening
// sockets (mpiguardd / mpiguard-client). The wire
// protocol (serve/wire.hpp) is transport-agnostic; everything here is
// plain POSIX with no per-message allocation.
//
// Robustness layer (docs/SERVING.md, "Failure model"): transports carry
// optional per-direction inactivity deadlines — a read or write that
// makes no progress within the deadline throws TransportTimeout, which
// is how the server reaps slow-loris peers and unsticks itself from a
// stalled reader — and named fault points (support/faultpoint.hpp)
// that can inject short reads/writes, EINTR, peer resets and stalls
// deterministically. Fault points are scoped per instance by a tag
// ("serve" on daemon-side transports), so a chaos campaign shakes the
// server without sabotaging the very client asserting the invariants.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

namespace mpidetect::serve {

/// Thrown on carrier-level failures: the peer vanished mid-write, a
/// socket could not be created/bound/connected. Distinct from
/// io::FormatError, which is reserved for byte-level protocol damage.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

/// A read/write deadline expired with no progress. Subclass of
/// TransportError so existing "peer is gone" handling catches it; the
/// server additionally counts it (Stats::io_timeouts) and uses it to
/// reap idle connections.
class TransportTimeout final : public TransportError {
 public:
  explicit TransportTimeout(const std::string& what) : TransportError(what) {}
};

/// A blocking duplex byte channel. Implementations must allow one
/// reader thread and one writer thread to operate concurrently
/// (the daemon reads requests while the batch worker writes verdicts).
class Transport {
 public:
  virtual ~Transport() = default;

  /// Reads up to `n` bytes; returns the number read, 0 on clean EOF.
  /// Throws TransportError on carrier failure, TransportTimeout when a
  /// read deadline is set and no byte arrives in time.
  virtual std::size_t read_some(void* buf, std::size_t n) = 0;

  /// Writes all `n` bytes or throws TransportError (a dead peer must
  /// surface as an exception, never a silent partial frame); throws
  /// TransportTimeout when a write deadline is set and the peer stops
  /// draining its end.
  virtual void write_all(const void* buf, std::size_t n) = 0;

  /// Unblocks any reader/writer currently parked on this channel (both
  /// directions are shut down). Idempotent; used for forced teardown of
  /// lingering connections after a drain.
  virtual void shutdown() = 0;

  /// Inactivity deadline for read_some, in milliseconds (0 = block
  /// forever, the default). Base implementation ignores it; FdTransport
  /// enforces it with poll().
  virtual void set_read_timeout(int /*ms*/) {}

  /// Inactivity deadline for each write_all chunk (0 = block forever).
  virtual void set_write_timeout(int /*ms*/) {}

  /// Arms this instance's fault points under `tag` (e.g. "serve" →
  /// "serve.recv.short", "serve.send.reset", ...). Empty tag — the
  /// default — means this transport never consults the fault registry.
  virtual void set_fault_tag(const std::string& /*tag*/) {}

  /// Reads exactly `n` bytes. Returns false when EOF arrives before the
  /// FIRST byte (a clean close between frames); throws TransportError
  /// when the stream ends mid-buffer (the peer died mid-frame).
  bool read_exact(void* buf, std::size_t n);
};

/// Transport over a connected socket fd (owns and closes it). Writes
/// use MSG_NOSIGNAL and loop over short sends: a peer closing mid-reply
/// must become a TransportError in the worker — never a partial frame,
/// never a process-killing SIGPIPE (EPIPE/ECONNRESET map to a clean
/// "peer closed" error).
class FdTransport final : public Transport {
 public:
  explicit FdTransport(int fd);
  ~FdTransport() override;
  FdTransport(const FdTransport&) = delete;
  FdTransport& operator=(const FdTransport&) = delete;

  std::size_t read_some(void* buf, std::size_t n) override;
  void write_all(const void* buf, std::size_t n) override;
  void shutdown() override;
  void set_read_timeout(int ms) override { read_timeout_ms_ = ms; }
  void set_write_timeout(int ms) override { write_timeout_ms_ = ms; }
  void set_fault_tag(const std::string& tag) override;

 private:
  /// Consults the instance's fault points before a recv/send; may
  /// sleep (stall), force a 1-byte transfer (short), inject a spurious
  /// retry (eintr) or kill the connection (reset). Returns the clamped
  /// transfer size.
  std::size_t faults_before_io(bool reading, std::size_t n);

  int fd_ = -1;
  int read_timeout_ms_ = 0;
  int write_timeout_ms_ = 0;
  // Precomputed point names: the armed() fast path must not allocate.
  bool faults_on_ = false;
  std::string pt_recv_short_, pt_recv_eintr_, pt_recv_reset_, pt_recv_stall_;
  std::string pt_send_short_, pt_send_reset_, pt_send_stall_;
};

/// An in-process connected pair (AF_UNIX socketpair): element 0 and 1
/// are the two ends. The test/bench harness runs Server::serve_connection
/// on one end and a client on the other — same bytes, same code paths
/// as the daemon, no network flakiness in CI.
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
local_pair();

/// As local_pair(), but with both socket buffers shrunk to the OS
/// minimum — a few kilobytes of in-flight data make backpressure (a
/// stalled reader wedging the writer) reproducible in tests.
std::pair<std::unique_ptr<Transport>, std::unique_ptr<Transport>>
local_pair_small_buffers();

/// AF_UNIX listening socket bound to `path`. A pre-existing socket file
/// is probed first: if something answers (a live daemon is serving),
/// the constructor throws TransportError instead of hijacking the
/// address; if nothing does (the previous daemon crashed without
/// unlinking), the stale file is removed and the bind proceeds, so a
/// crashed daemon restarts unattended. accept() blocks up to
/// `timeout_ms` and returns nullptr on timeout so the daemon's accept
/// loop can poll its stop flag.
class Listener {
 public:
  explicit Listener(const std::string& path);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  std::unique_ptr<Transport> accept(int timeout_ms);
  const std::string& path() const { return path_; }

 private:
  int fd_ = -1;
  std::string path_;
};

/// Connects to a daemon's AF_UNIX socket; throws TransportError when
/// nothing listens there.
std::unique_ptr<Transport> connect_unix(const std::string& path);

}  // namespace mpidetect::serve
