// The mpiguardd server core: warm model bundles, one spill-backed
// EncodingCache shared across every request, and a bounded admission
// queue feeding the detectors' batched inference paths.
//
// The dispatch design follows the portals4 PPE command-queue pattern
// (SNIPPETS.md #1): incoming frames are typed entries dispatched to
// *_impl handlers; admitted requests live in a fixed, preallocated slot
// table (no per-request allocation on the hot path — strings are
// resolved to model indices and dataset pointers at admission); a
// single batch worker drains the queue, coalescing up to max_batch
// same-target requests into one GraphBatch mini-batched
// Detector::run_indexed call. When every slot is taken the daemon
// answers BUSY instead of growing a queue without bound, and shutdown
// drains everything already admitted before the BYE goes out.
//
// Transport-agnostic: serve_connection runs one blocking frame loop per
// Transport (the daemon spawns a thread per accepted AF_UNIX
// connection; tests and bench drive socketpairs in-process).
//
// Robustness layer (docs/SERVING.md, "Failure model"): per-connection
// read/write deadlines reap slow-loris peers (TransportTimeout → the
// connection is closed and counted, never a wedged thread); a SUBMIT
// may carry a deadline_ms, and the batch worker sheds work whose
// deadline passed BEFORE running it (an EXPIRED reply instead of a
// stale verdict); a detector exception degrades to per-request
// singleton retries so one poisonous case cannot take its batchmates
// down; a watchdog thread counts (never kills) batches that outlive
// their budget. All of it is observable through six STATS counters
// and drivable through support/faultpoint.hpp.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "serve/wire.hpp"

namespace mpidetect::serve {

class Transport;

struct ServerOptions {
  /// .mpib bundles loaded once at startup (the warm model cache). At
  /// least one is required; SUBMIT frames address them by registry key.
  std::vector<std::string> model_paths;
  /// Admission slot count == the backpressure bound: this many requests
  /// may be queued or in a batch before the daemon answers BUSY.
  std::size_t queue_capacity = 64;
  /// Coalescing window: up to this many same-(detector, dataset)
  /// requests form one batched inference call.
  std::size_t max_batch = 8;
  /// Encode width for first-touch dataset encodes (0 = hardware).
  unsigned threads = 0;
  /// Shared EncodingCache spill directory ("" = in-memory only). With a
  /// spill, a corpus embedded by any previous run — or a previous
  /// daemon — is served from disk instead of recomputed.
  std::string cache_dir;
  /// Largest dataset scale a SUBMIT spec may request, and the largest
  /// generated corpus the daemon will hold warm — guards against a
  /// client inflating daemon memory with "mbi:10000".
  double max_scale = 2.0;
  std::size_t max_cases = 8192;
  std::string name = "mpiguardd";
  /// Reap a connection that sends no frame for this long (0 = never;
  /// the default, because an idle client holding a connection open is
  /// legitimate unless the operator says otherwise).
  int idle_timeout_ms = 0;
  /// Per-read/write inactivity deadline once a frame has started (or a
  /// reply is being written). A peer that trickles half a frame or
  /// stops draining its socket hits this; 0 disables.
  int io_timeout_ms = 10000;
  /// A batch running longer than this trips the watchdog counter —
  /// detection, not termination: killing a detector mid-forward would
  /// corrupt shared state, so the daemon surfaces the stall in STATS
  /// and lets the operator decide. 0 disables the watchdog thread.
  int watchdog_ms = 30000;
};

class Server {
 public:
  /// Loads every bundle (throws io::FormatError on corrupt files,
  /// ContractViolation on duplicate keys or an empty model list) and
  /// preallocates the slot table. Call start() before serving.
  explicit Server(ServerOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Spawns the batch worker.
  void start();

  /// Graceful stop: refuse new admissions, drain every admitted
  /// request, join the worker, then force-close lingering connections.
  /// Idempotent and callable from any thread (including a
  /// serve_connection thread handling SHUTDOWN).
  void stop();

  /// True once stop() completed; the daemon's accept loop polls this.
  bool stopped() const { return stopped_.load(std::memory_order_acquire); }

  /// Blocking frame loop for one connection. Returns when the peer
  /// closes, framing is lost (after an ERROR reply), or after SHUTDOWN
  /// (after the BYE reply). Malformed input never propagates out of
  /// here — a bad client cannot crash or wedge the daemon.
  void serve_connection(Transport& t, const std::string& peer);

  /// Registry keys of the loaded bundles, in load order (CAPS payload).
  std::vector<std::string> detector_keys() const;

  /// Counter snapshot (also available over the wire via STATS_REQ).
  Stats snapshot_stats() const;

  const ServerOptions& options() const { return opts_; }

 private:
  struct ConnectionCtx;

  /// One preallocated admission entry. Admission resolves the SUBMIT's
  /// strings to a model index and a stable Dataset pointer, so the
  /// batch worker touches no maps and allocates nothing per request.
  struct Slot {
    std::uint64_t request_id = 0;
    std::uint32_t model = 0;
    const datasets::Dataset* ds = nullptr;
    std::size_t index = 0;
    ConnectionCtx* conn = nullptr;
    /// Absolute shed deadline (epoch default = none). Computed once at
    /// admission so queue time counts against the client's budget.
    std::chrono::steady_clock::time_point deadline{};
  };

  struct LoadedModel {
    std::string key;  // registry key recorded in the bundle
    std::unique_ptr<core::Detector> detector;
    /// Datasets already prepare()d through the shared cache (worker-
    /// thread state; the worker is the only detector user after start).
    std::vector<const datasets::Dataset*> prepared;
  };

  // Typed frame handlers, portals4 *_impl style. All run on the
  // connection's thread; only submit_impl touches the admission queue.
  void hello_impl(ConnectionCtx& conn, const Hello& f);
  void submit_impl(ConnectionCtx& conn, const Submit& f);
  void stats_impl(ConnectionCtx& conn, const StatsReq& f);
  void shutdown_impl(ConnectionCtx& conn);

  void worker_loop();
  /// Removes expired slots from pending_ (queue lock held by the
  /// caller), then answers each with EXPIRED outside the lock. Called
  /// by the worker before forming every batch.
  std::vector<Slot> shed_expired_locked();
  void run_batch(const std::vector<Slot>& batch);
  void watchdog_loop();
  /// Refuses new admissions and blocks until the queue is empty and the
  /// worker is idle.
  void drain();

  /// Serializes + writes under the connection's write lock; a dead or
  /// timed-out peer marks the connection instead of throwing into the
  /// caller.
  void send(ConnectionCtx& conn, const Frame& f);

  /// Resolves a dataset spec to a warm corpus (generating + counting it
  /// on first use). Throws datasets::SpecError on bad specs or corpora
  /// exceeding max_cases.
  const datasets::Dataset* dataset_for(const std::string& spec);

  void bump_max(std::atomic<std::uint64_t>& target, std::uint64_t value);

  ServerOptions opts_;
  std::shared_ptr<core::EncodingCache> cache_;
  std::vector<LoadedModel> models_;

  // Warm corpus cache: spec -> generated dataset (stable addresses).
  std::mutex datasets_mu_;
  std::map<std::string, std::unique_ptr<const datasets::Dataset>> datasets_;

  // Admission queue: preallocated slots, a free list, and a FIFO of
  // occupied slot indices the worker scans for coalescable runs.
  std::mutex queue_mu_;
  std::condition_variable work_cv_;     // worker: work available / stop
  std::condition_variable drained_cv_;  // drain(): queue empty + idle
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;
  std::vector<std::uint32_t> pending_;
  bool worker_busy_ = false;
  bool draining_ = false;
  bool stop_worker_ = false;

  // In-flight accounting so serve_connection outlives its queued
  // requests (slots hold raw ConnectionCtx pointers).
  std::mutex flight_mu_;
  std::condition_variable flight_cv_;

  std::mutex conns_mu_;
  std::vector<ConnectionCtx*> conns_;

  std::mutex stop_mu_;
  std::thread worker_;
  std::atomic<bool> stopped_{false};

  // Watchdog: the worker publishes batch start/end under watchdog_mu_;
  // the watchdog thread counts any batch still running past its budget
  // (once per batch — a stuck batch is one trip, not one per poll).
  std::mutex watchdog_mu_;
  std::condition_variable watchdog_cv_;
  std::thread watchdog_;
  bool watchdog_stop_ = false;
  bool batch_running_ = false;
  std::uint64_t batch_seq_ = 0;
  std::chrono::steady_clock::time_point batch_start_{};

  std::atomic<std::uint64_t> received_{0};
  std::atomic<std::uint64_t> served_{0};
  std::atomic<std::uint64_t> busy_rejected_{0};
  std::atomic<std::uint64_t> request_errors_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> max_coalesced_{0};
  std::atomic<std::uint64_t> max_queue_depth_{0};
  std::atomic<std::uint64_t> datasets_materialized_{0};
  std::atomic<std::uint64_t> deadline_sheds_{0};
  std::atomic<std::uint64_t> io_timeouts_{0};
  std::atomic<std::uint64_t> reaped_connections_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> watchdog_trips_{0};
};

}  // namespace mpidetect::serve
