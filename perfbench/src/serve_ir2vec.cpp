// serve_ir2vec: open-loop Poisson traffic against a live mpiguardd
// serving an IR2vec+DT bundle. Set-up trains the bundle, boots the
// daemon and warms a few dataset specs; the timed phase then sends
// (spec, index) requests at three fixed rates. DT inference takes
// microseconds, so wire decode, admission queue, coalescing, reply and
// the AF_UNIX transport are what the latency measures.
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <functional>
#include <iostream>
#include <optional>
#include <random>
#include <thread>

#include "common.hpp"
#include "core/detector.hpp"
#include "core/eval_engine.hpp"
#include "datasets/spec.hpp"
#include "ir2vec/encoder.hpp"
#include "ml/kernels.hpp"
#include "serve/transport.hpp"
#include "serve/wire.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace mpidetect;
namespace fs = std::filesystem;

const char* const kSpecs[] = {"mbi:0.1", "corr:0.3", "mbi:0.05"};
const char* const kRateNames[3] = {"low", "mid", "high"};
constexpr std::size_t kGaPopulation = 60, kGaGenerations = 6;
constexpr std::size_t kRequestsPerRate = 1000;
constexpr std::size_t kMaxBatch = 8;
constexpr int kSetupReps = 5, kMinRounds = 2;
/// Untraced rounds of the traced run; their median is the baseline of
/// trace.overhead_s.
constexpr int kBaselineRounds = 3;
constexpr int kProbeRequests = 2000;
/// A connection waits this long for its next reply before giving up.
constexpr int kReplyTimeoutMs = 20000;

struct Params {
  std::vector<std::string> specs;  // with the per-seed "@seed" suffix
  double rates[3] = {0, 0, 0};
  double slo_p99_ms = 0;
  /// One sender and one receiver thread per connection, so the
  /// generator never runs more threads than the machine's default width.
  unsigned connections = 1;
};

Params read_params(const Options& opt) {
  Params p;
  for (std::uint64_t i = 0; i < std::size(kSpecs); ++i) {
    p.specs.push_back(std::string(kSpecs[i]) + "@" +
                      std::to_string(derive_seed(opt.seed, 10 + i) % 1000000007));
  }
  if (opt.rates.size() != 3 || opt.slo_p99_ms <= 0) {
    throw std::runtime_error("serve_ir2vec needs --rates LOW,MID,HIGH and --slo-p99-ms");
  }
  std::copy(opt.rates.begin(), opt.rates.end(), p.rates);
  p.slo_p99_ms = opt.slo_p99_ms;
  p.connections = std::max(1u, core::EvalEngine().threads() / 2);
  return p;
}

/// Connects to the daemon and completes the HELLO/CAPS handshake.
std::unique_ptr<serve::Transport> open_connection(const std::string& socket,
                                                  const std::string& client) {
  auto t = serve::connect_unix(socket);
  serve::write_frame(*t, serve::Hello{client});
  const auto f = serve::read_frame(*t, "mpiguardd", {kReplyTimeoutMs, kReplyTimeoutMs});
  if (!f || !std::holds_alternative<serve::Caps>(*f)) {
    throw std::runtime_error("mpiguardd did not answer HELLO with CAPS");
  }
  return t;
}

/// The next frame from the daemon; throws when it closes the connection.
serve::Frame next_frame(serve::Transport& t) {
  auto f = serve::read_frame(t, "mpiguardd", {kReplyTimeoutMs, kReplyTimeoutMs});
  if (!f) throw std::runtime_error("mpiguardd closed the connection");
  return std::move(*f);
}

// ---- the daemon process ------------------------------------------------------

class Daemon {
 public:
  Daemon(const std::string& binary, const std::vector<std::string>& args,
         const std::string& log_path, const std::string& socket) {
    std::vector<std::string> argv_s{binary};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (auto& a : argv_s) argv.push_back(a.data());
    argv.push_back(nullptr);
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      // The daemon must not outlive the benchmark, whatever kills it.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (log >= 0) {
        ::dup2(log, 1);
        ::dup2(log, 2);
      }
      ::execv(argv[0], argv.data());
      _exit(127);
    }
    if (log >= 0) ::close(log);
    const auto t0 = Clock::now();
    while (true) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("mpiguardd exited during start-up (see " +
                                 log_path + ")");
      }
      try {
        control_ = open_connection(socket, "perfbench");
        break;
      } catch (const serve::TransportError&) {
        if (seconds_since(t0) > 60) {
          ::kill(pid_, SIGKILL);
          ::waitpid(pid_, &status, 0);
          throw;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }
  }
  ~Daemon() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  int pid() const { return pid_; }
  serve::Transport& control() { return *control_; }

  /// SHUTDOWN, wait for BYE and the exit; returns the exit status.
  int shutdown() {
    serve::write_frame(*control_, serve::Shutdown{});
    for (int i = 0; i < 1000; ++i) {
      if (std::holds_alternative<serve::Bye>(next_frame(*control_))) break;
    }
    control_.reset();
    int status = 0;
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
    return status;
  }

 private:
  int pid_ = -1;
  std::unique_ptr<serve::Transport> control_;
};

// ---- set-up ------------------------------------------------------------------

struct Deployment {
  fs::path dir, bundle, socket;
  std::unique_ptr<Daemon> daemon;
  double setup_s = 0.0;
};

Deployment deploy(const Options& opt, const Params& p, int rep) {
  Deployment d;
  d.dir = fs::path(opt.workdir) / ("serve-" + std::to_string(rep));
  fs::remove_all(d.dir);
  fs::create_directories(d.dir / "cache");
  d.bundle = d.dir / "model.mpib";
  d.socket = d.dir / "d.sock";
  const auto t0 = Clock::now();
  {
    trace::Span s("setup.train_bundle");
    auto cache = std::make_shared<core::EncodingCache>();
    cache->set_spill_dir((d.dir / "cache").string());
    core::EvalEngine engine(0, cache);
    core::DetectorConfig cfg;
    cfg.ir2vec.use_ga = true;
    cfg.ir2vec.ga.population = kGaPopulation;
    cfg.ir2vec.ga.generations = kGaGenerations;
    cfg.cache = cache;
    auto& reg = core::DetectorRegistry::global();
    auto det = reg.create("ir2vec", cfg);
    datasets::Dataset train;
    {
      trace::Span g("datasets.make_dataset");
      train = datasets::make_dataset(p.specs.front());
    }
    engine.fit_full(*det, train);
    reg.save_bundle("ir2vec", *det, d.bundle.string());
  }
  {
    trace::Span s("setup.boot_daemon");
    // The admission queue holds a whole phase, so no request is refused.
    const std::size_t queue = 64 + kRequestsPerRate;
    d.daemon = std::make_unique<Daemon>(
        opt.daemon,
        std::vector<std::string>{"--model", d.bundle.string(), "--socket",
                                 d.socket.string(), "--queue",
                                 std::to_string(queue), "--batch",
                                 std::to_string(kMaxBatch), "--cache-dir",
                                 (d.dir / "cache").string()},
        (d.dir / "daemon.log").string(), d.socket.string());
  }
  {
    trace::Span s("setup.warm_specs");
    std::uint64_t id = 1;
    for (const auto& spec : p.specs) {
      serve::write_frame(d.daemon->control(), serve::Submit{id++, "", spec, 0, 0});
      if (!std::holds_alternative<serve::WireVerdict>(next_frame(d.daemon->control()))) {
        throw std::runtime_error("warm-up of " + spec + " got no verdict");
      }
    }
  }
  d.setup_s = seconds_since(t0);
  return d;
}

// ---- open-loop phases --------------------------------------------------------

struct Request {
  std::uint32_t spec = 0;
  std::uint64_t index = 0;
  std::int64_t due = 0, done = -1;
  bool ok = false;  // a VERDICT equal to the in-process verdict
  std::uint32_t batch_size = 0;
};

struct PhaseResult {
  double rate = 0;
  std::size_t n = 0, failed = 0;
  std::optional<double> p50_ms, p99_ms;
  double lateness_p99_ms = 0, lateness_max_ms = 0;
  double goodput = 0;
  /// From the first request's due time to the last reply.
  double span_s = 0;
  bool backlog_grows = false;
  /// (batch size, spec) of each answered request, in request order.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> batches;
};

using Reference = std::vector<std::vector<core::Verdict>>;
using Connections = std::vector<std::unique_ptr<serve::Transport>>;

bool same_verdict(const serve::WireVerdict& w, const core::Verdict& v) {
  if (w.outcome != static_cast<std::uint8_t>(v.outcome)) return false;
  const bool has = w.predicted_label.has_value();
  if (has != v.predicted_label.has_value()) return false;
  return !has || *w.predicted_label == *v.predicted_label;
}

std::uint64_t reply_id(const serve::Frame& f) {
  if (auto* v = std::get_if<serve::WireVerdict>(&f)) return v->request_id;
  if (auto* b = std::get_if<serve::Busy>(&f)) return b->request_id;
  if (auto* e = std::get_if<serve::Error>(&f)) return e->request_id;
  if (auto* x = std::get_if<serve::Expired>(&f)) return x->request_id;
  return 0;
}

/// One open-loop phase: `n` Poisson arrivals at `rate`, request i on
/// connection i mod C. Per connection, a sender thread writes each
/// SUBMIT at its due time and a receiver thread reads the replies.
PhaseResult run_phase(const Connections& conns, const Params& p,
                      const Reference& ref, const std::vector<std::size_t>& sizes,
                      double rate, std::size_t n, std::uint64_t seed,
                      std::uint64_t id_base, bool traced) {
  std::vector<Request> reqs(n);
  std::vector<std::atomic<std::int64_t>> sent(n);
  std::mt19937_64 rng(seed);
  const auto due = poisson_due_times(rate, n, seed ^ 0x5eed);
  for (std::size_t i = 0; i < n; ++i) {
    reqs[i].spec = static_cast<std::uint32_t>(rng() % p.specs.size());
    reqs[i].index = rng() % sizes[reqs[i].spec];
    reqs[i].due = due[i];
    sent[i].store(-1, std::memory_order_relaxed);
  }
  const std::int64_t t0 = trace::now_ns() + 2'000'000;
  const std::size_t c_n = conns.size();

  const auto sender = [&](std::size_t c) {
    try {
      for (std::size_t i = c; i < n; i += c_n) {
        const std::int64_t wait = t0 + reqs[i].due - trace::now_ns();
        if (wait > 0) std::this_thread::sleep_for(std::chrono::nanoseconds(wait));
        sent[i].store(trace::now_ns() - t0, std::memory_order_release);
        serve::write_frame(*conns[c], serve::Submit{id_base + i, "", p.specs[reqs[i].spec],
                                                    reqs[i].index, 0});
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench: send on connection " << c << ": " << e.what() << "\n";
    }
  };
  const auto receiver = [&](std::size_t c) {
    try {
      for (std::size_t left = (n - c + c_n - 1) / c_n; left > 0;) {
        const serve::Frame f = next_frame(*conns[c]);
        const std::int64_t at = trace::now_ns() - t0;
        const std::uint64_t id = reply_id(f);
        if (id < id_base || id >= id_base + n) continue;
        Request& r = reqs[id - id_base];
        if (r.done >= 0) continue;
        r.done = at;
        --left;
        if (auto* v = std::get_if<serve::WireVerdict>(&f)) {
          r.ok = same_verdict(*v, ref[r.spec][r.index]);
          r.batch_size = v->batch_size;
        }
        if (traced) {
          const std::int64_t s = sent[id - id_base].load(std::memory_order_acquire);
          const std::uint64_t parent =
              trace::record("serve.request", t0 + r.due, t0 + r.done, id);
          trace::record("serve.generator_lag", t0 + r.due, t0 + s, id, parent);
          trace::record("serve.in_flight", t0 + s, t0 + r.done, id, parent);
        }
      }
    } catch (const std::exception& e) {
      std::cerr << "perfbench: receive on connection " << c << ": " << e.what() << "\n";
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < c_n; ++c) {
    threads.emplace_back(receiver, c);
    threads.emplace_back(sender, c);
  }
  for (auto& t : threads) t.join();

  PhaseResult out;
  out.rate = rate;
  out.n = n;
  std::vector<double> lat, late;
  std::int64_t last = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Request& r = reqs[i];
    if (!r.ok) {
      ++out.failed;
      continue;
    }
    lat.push_back(static_cast<double>(latency_from_due(r.due, r.done)) / 1e6);
    late.push_back(static_cast<double>(sent[i].load() - r.due) / 1e6);
    last = std::max(last, r.done);
    out.batches.emplace_back(r.batch_size, r.spec);
  }
  out.p50_ms = supported_quantile(lat, 0.5);
  out.p99_ms = supported_quantile(lat, 0.99);
  if (auto q = supported_quantile(late, 0.99)) out.lateness_p99_ms = *q;
  if (!late.empty()) out.lateness_max_ms = *std::max_element(late.begin(), late.end());
  out.goodput = static_cast<double>(lat.size()) /
                std::max(1e-9, static_cast<double>(last) / 1e9);
  out.span_s = static_cast<double>(last - due.front()) / 1e9;
  // A growing backlog: the last tenth of the requests waits much longer
  // than the first tenth.
  if (lat.size() >= 20) {
    const std::size_t k = lat.size() / 10;
    const double head = median(std::vector<double>(lat.begin(), lat.begin() + k));
    const double tail = median(std::vector<double>(lat.end() - k, lat.end()));
    out.backlog_grows = tail > 2.0 * head + 1.0;
  }
  return out;
}

struct Round {
  PhaseResult phase[3];
  /// The high phase from its first due time to its last reply. Its
  /// requests arrive faster than the daemon answers them, so this is
  /// time the daemon decides, not the arrival schedule. (Latency at the
  /// low and mid rates follows the host's load; see README.md.)
  double wall_s = 0;
  double max_rps_slo = 0;
  /// Goodput of the high phase, which runs above capacity: requests
  /// served per second with a backlog always waiting.
  double capacity = 0;
};

Round run_round(const Connections& conns, const Params& p, const Reference& ref,
                const std::vector<std::size_t>& sizes, std::uint64_t seed,
                int round, std::uint64_t& id_base, bool traced) {
  Round r;
  for (int i = 0; i < 3; ++i) {
    trace::Span s(std::string("serve.phase.") + kRateNames[i]);
    r.phase[i] = run_phase(conns, p, ref, sizes, p.rates[i], kRequestsPerRate,
                           derive_seed(seed, 1000 + round * 3 + i), id_base,
                           traced);
    id_base += kRequestsPerRate;
    const PhaseResult& ph = r.phase[i];
    if (ph.failed == 0 && !ph.backlog_grows && ph.p99_ms &&
        *ph.p99_ms <= p.slo_p99_ms) {
      r.max_rps_slo = std::max(r.max_rps_slo, ph.goodput);
    }
  }
  r.capacity = r.phase[2].goodput;
  r.wall_s = r.phase[2].span_s;
  return r;
}

serve::Stats fetch_stats(serve::Transport& c) {
  serve::write_frame(c, serve::StatsReq{});
  for (int i = 0; i < 1000; ++i) {
    auto f = next_frame(c);
    if (auto* s = std::get_if<serve::Stats>(&f)) return *s;
  }
  throw std::runtime_error("no STATS reply");
}

double mean_ns_per_call(const std::function<void()>& fn, int iters) {
  const auto a = trace::now_ns();
  for (int i = 0; i < iters; ++i) fn();
  return static_cast<double>(trace::now_ns() - a) / iters;
}

}  // namespace

Result run_serve_ir2vec(const Options& opt) {
  const Params p = read_params(opt);
  Result r;
  if (opt.trace) trace::set_enabled(true);

  // Set-up, repeated; the last deployment stays up for the timed phase.
  std::vector<double> setups;
  Deployment dep;
  const int reps = opt.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    if (dep.daemon) {
      dep.daemon->shutdown();
      fs::remove_all(dep.dir);
    }
    dep = deploy(opt, p, rep);
    setups.push_back(dep.setup_s);
  }

  // The correctness oracle: the same bundle, in this process.
  auto& reg = core::DetectorRegistry::global();
  const auto t = Clock::now();
  std::unique_ptr<core::Detector> local;
  {
    trace::Span s("io.load_bundle");
    local = reg.load_bundle(dep.bundle.string());
  }
  const double bundle_load_ms = seconds_since(t) * 1e3;
  trace::set_enabled(false);
  std::vector<datasets::Dataset> data;
  Reference ref;
  std::vector<std::size_t> sizes;
  for (const auto& spec : p.specs) {
    data.push_back(datasets::make_dataset(spec));
  }
  for (auto& ds : data) {
    local->prepare(ds);
    std::vector<std::size_t> idx(ds.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    ref.push_back(local->run_indexed(ds, idx));
    sizes.push_back(ds.size());
  }

  Connections conns;
  for (unsigned c = 0; c < p.connections; ++c) {
    conns.push_back(open_connection(dep.socket.string(), "perfbench-load"));
  }

  std::uint64_t id_base = 1000;
  std::vector<Round> rounds;
  const std::uint64_t per_round = 3 * kRequestsPerRate;
  const auto account = [&](const Round& rd) {
    for (const auto& ph : rd.phase) {
      r.attempted += ph.n;
      if (ph.failed) {
        r.fail(std::to_string(ph.failed) + " of " + std::to_string(ph.n) +
                   " requests at " + fmt(ph.rate) +
                   "/s got no matching verdict",
               ph.failed);
      }
    }
    progress(r.attempted, r.failed);
  };

  if (opt.trace) {
    // Untraced rounds, then the traced one, all with the same requests.
    planned((kBaselineRounds + 1) * per_round + kProbeRequests);
    std::vector<double> plain_walls;
    for (int i = 0; i < kBaselineRounds; ++i) {
      rounds.push_back(run_round(conns, p, ref, sizes, opt.seed, 0, id_base, false));
      account(rounds.back());
      plain_walls.push_back(rounds.back().wall_s);
    }
    trace::set_enabled(true);
    const Round traced = run_round(conns, p, ref, sizes, opt.seed, 0, id_base, true);
    account(traced);
    r.add("trace.overhead_s", traced.wall_s - median(plain_walls), "s");
    const serve::Stats st = fetch_stats(dep.daemon->control());

    // Closed-loop probe: one request in flight, round-trip time.
    std::vector<double> rtt;
    std::vector<std::pair<std::uint32_t, std::size_t>> probe;
    std::mt19937_64 rng(derive_seed(opt.seed, 77));
    for (int i = 0; i < kProbeRequests; ++i) {
      const std::uint32_t s = static_cast<std::uint32_t>(rng() % p.specs.size());
      const std::size_t idx = rng() % sizes[s];
      probe.emplace_back(s, idx);
      const std::uint64_t id = id_base++;
      const auto a = trace::now_ns();
      serve::write_frame(*conns[0], serve::Submit{id, "", p.specs[s], idx, 0});
      const auto f = next_frame(*conns[0]);
      const auto b = trace::now_ns();
      const auto* v = std::get_if<serve::WireVerdict>(&f);
      ++r.attempted;
      if (!v || v->request_id != id || !same_verdict(*v, ref[s][idx])) {
        r.fail("probe request " + std::to_string(id) + " mismatched", 1);
      }
      trace::record("serve.rtt", a, b, id);
      rtt.push_back(static_cast<double>(b - a) / 1e3);
    }
    const double rtt_p50 = supported_quantile(rtt, 0.5).value_or(0);
    const double rtt_p99 = supported_quantile(rtt, 0.99).value_or(0);

    // Codec replays: the daemon decodes a SUBMIT and encodes a VERDICT.
    const serve::Submit sub{123456, "", p.specs.front(), 17, 0};
    serve::WireVerdict wv;
    wv.request_id = 123456;
    wv.outcome = 1;
    wv.predicted_label = 1;
    wv.batch_size = 4;
    const std::string sub_bytes = serve::encode_frame(sub);
    const std::string ver_bytes = serve::encode_frame(wv);
    const int iters = 20000;
    const double enc_ns =
        0.5 * (mean_ns_per_call([&] { (void)serve::encode_frame(sub); }, iters) +
               mean_ns_per_call([&] { (void)serve::encode_frame(wv); }, iters));
    const double dec_ns =
        0.5 *
        (mean_ns_per_call([&] {
           (void)serve::decode_payload(std::string_view(sub_bytes).substr(4), "x");
         }, iters) +
         mean_ns_per_call([&] {
           (void)serve::decode_payload(std::string_view(ver_bytes).substr(4), "x");
         }, iters));

    // run_indexed replays in this process: the traced round's batches
    // (size and dataset of each), and the probe's requests in order.
    double ri_ns = 0, ri_calls = 0;
    for (const auto& ph : traced.phase) {
      for (std::size_t i = 0; i < ph.batches.size();) {
        const auto [b, s] = ph.batches[i];
        std::vector<std::size_t> idx;
        for (std::uint32_t k = 0; k < std::max<std::uint32_t>(1, b); ++k) {
          idx.push_back(rng() % sizes[s]);
        }
        const auto a = trace::now_ns();
        {
          trace::Span sp("serve.run_indexed_replay");
          (void)local->run_indexed(data[s], idx);
        }
        ri_ns += static_cast<double>(trace::now_ns() - a);
        ri_calls += 1;
        i += idx.size();
      }
    }
    std::vector<double> probe_ri;
    for (const auto& [s, idx] : probe) {
      const auto a = trace::now_ns();
      (void)local->run_indexed(data[s], std::span<const std::size_t>(&idx, 1));
      probe_ri.push_back(static_cast<double>(trace::now_ns() - a) / 1e3);
    }
    const double probe_ri_p50 = supported_quantile(probe_ri, 0.5).value_or(0);

    // Stage replays of set-up: generation, lowering, passes and IR2vec
    // encoding.
    double gen_ms = 0, enc_case_ns = 0, enc_cases = 0;
    std::vector<datasets::Case> cases;
    for (const auto& spec : p.specs) {
      const auto a = trace::now_ns();
      datasets::Dataset ds;
      {
        trace::Span s("datasets.make_dataset");
        ds = datasets::make_dataset(spec);
      }
      gen_ms += static_cast<double>(trace::now_ns() - a) / 1e6;
      cases.insert(cases.end(), ds.cases.begin(), ds.cases.end());
    }
    const ir2vec::Vocabulary vocab(core::DetectorConfig{}.vocab_seed);
    const StageTimes stages = replay_lowering(cases, nullptr, [&](ir::Module& m) {
      const auto e = trace::now_ns();
      {
        trace::Span s("ir2vec.encode_concat");
        (void)ir2vec::encode_concat(m, vocab);
      }
      enc_case_ns += static_cast<double>(trace::now_ns() - e);
      enc_cases += 1;
    });
    stages.add_metrics(r);

    r.add("datasets.generate_ms", gen_ms, "ms");
    r.add("ir2vec.encode_us", enc_case_ns / std::max(1.0, enc_cases) / 1e3, "us");
    r.add("io.bundle_load_ms", bundle_load_ms, "ms");
    r.add("core.cache_disk_hits", static_cast<double>(st.cache_disk_hits), "count");
    r.add("serve.datasets_materialized",
          static_cast<double>(st.datasets_materialized), "count");
    r.add("serve.rtt_us.p50", rtt_p50, "us");
    r.add("serve.rtt_us.p99", rtt_p99, "us");
    r.add("serve.frame_encode_ns", enc_ns, "ns");
    r.add("serve.frame_decode_ns", dec_ns, "ns");
    r.add("serve.run_indexed_us", ri_ns / std::max(1.0, ri_calls) / 1e3, "us");
    // Derived, not measured: what the probe's median round trip spends
    // outside inference and the four codec steps (queue wait, wake-ups,
    // sockets).
    r.add("serve.queue_transport_us",
          rtt_p50 - probe_ri_p50 - 2 * (enc_ns + dec_ns) / 1e3, "us");
    r.add("serve.batches", static_cast<double>(st.batches), "count");
    r.add("serve.mean_batch",
          static_cast<double>(st.served) / std::max<std::uint64_t>(1, st.batches),
          "count");
    r.add("serve.max_queue_depth", static_cast<double>(st.max_queue_depth), "count");
    r.add("serve.busy_rejected", static_cast<double>(st.busy_rejected), "count");
    r.add("serve.request_errors", static_cast<double>(st.request_errors), "count");
    r.add("serve.protocol_errors", static_cast<double>(st.protocol_errors), "count");
    r.add("serve.deadline_sheds", static_cast<double>(st.deadline_sheds), "count");
    // The daemon's kernel counters: DT serving calls no kernel, so these
    // stay 0 unless a change routes serving through the GNN kernels.
    namespace k = ml::kernels;
    for (const serve::OpCounter& c : st.op_counters) {
      if (c.name == k::op_name(k::Op::QMatmul)) continue;  // not a listed layer
      r.add("ml.kernel." + c.name + ".calls", static_cast<double>(c.calls), "count");
      r.add("ml.kernel." + c.name + ".flops", static_cast<double>(c.flops), "count");
      r.add("ml.kernel." + c.name + ".ns", static_cast<double>(c.ns), "ns");
    }
    finish_trace(opt, r);
  } else {
    const auto t0 = Clock::now();
    for (int round = 0;; ++round) {
      planned(r.attempted + per_round);
      rounds.push_back(run_round(conns, p, ref, sizes, opt.seed, round, id_base, false));
      account(rounds.back());
      const double mean_round_s = seconds_since(t0) / (round + 1);
      if (round + 1 >= kMinRounds &&
          seconds_since(t0) + mean_round_s > opt.seconds) {
        break;
      }
    }
  }

  const serve::Stats st = fetch_stats(dep.daemon->control());
  const double daemon_rss = pid_peak_rss_mb(dep.daemon->pid());
  conns.clear();
  const int status = dep.daemon->shutdown();
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    r.fail("mpiguardd exited with status " + std::to_string(status), 0);
  }
  if (st.busy_rejected || st.request_errors || st.protocol_errors ||
      st.deadline_sheds) {
    r.fail("daemon counted busy/error/protocol/shed replies", 0);
  }

  // The bundle's verdicts against the labels, over every case of the
  // served specs (each served verdict was checked equal to these).
  std::size_t right = 0, total = 0;
  for (std::size_t s = 0; s < data.size(); ++s) {
    for (std::size_t i = 0; i < data[s].size(); ++i) {
      right += ref[s][i].flagged() == data[s].cases[i].incorrect;
      ++total;
    }
  }
  std::vector<double> walls, slo, capacity, p50[3], p99[3], late[3],
      late_max[3];
  for (const auto& rd : rounds) {
    walls.push_back(rd.wall_s);
    slo.push_back(rd.max_rps_slo);
    capacity.push_back(rd.capacity);
    for (int i = 0; i < 3; ++i) {
      p50[i].push_back(rd.phase[i].p50_ms.value_or(0));
      p99[i].push_back(rd.phase[i].p99_ms.value_or(0));
      late[i].push_back(rd.phase[i].lateness_p99_ms);
      late_max[i].push_back(rd.phase[i].lateness_max_ms);
    }
  }
  if (!opt.trace) {
    r.add("setup_s", median(setups), "s");
    r.add("wall_s", median(walls), "s");
    r.add("peak_rss_mb", daemon_rss, "MB");
    r.add("accuracy", static_cast<double>(right) / std::max<std::size_t>(1, total),
          "ratio");
    r.add("throughput_ops_s", median(capacity), "1/s");
  }
  r.note("rounds", std::to_string(rounds.size()));
  r.note("connections", std::to_string(p.connections));
  r.note("slo_p99_ms", fmt(p.slo_p99_ms));
  r.note("max_rps_slo", fmt(median(slo)) + " 1/s");
  std::string each;
  for (const double v : slo) {
    if (!each.empty()) each += ' ';
    each += fmt(v);
  }
  r.note("max_rps_slo.each_round", each);
  for (int i = 0; i < 3; ++i) {
    const std::string n = kRateNames[i];
    r.note("rate." + n, fmt(p.rates[i]) + " 1/s x " + std::to_string(kRequestsPerRate) +
                            " requests");
    r.note("p50_ms." + n, fmt(median(p50[i])) + " ms");
    r.note("p99_ms." + n, fmt(median(p99[i])) + " ms");
    r.note("generator_lateness_p99_ms." + n, fmt(median(late[i])) + " ms");
    r.note("generator_lateness_max_ms." + n, fmt(median(late_max[i])) + " ms");
    r.note("backlog_grows." + n, rounds.front().phase[i].backlog_grows ? "yes" : "no");
    r.note("goodput." + n, fmt(rounds.front().phase[i].goodput) + " 1/s");
  }
  r.note("daemon.batches", std::to_string(st.batches));
  r.note("daemon.max_coalesced", std::to_string(st.max_coalesced));
  r.note("daemon.max_queue_depth", std::to_string(st.max_queue_depth));
  fs::remove_all(dep.dir);
  return r;
}

}  // namespace perfbench
