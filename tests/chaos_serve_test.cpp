// Chaos tests for the serving path: drive the daemon's failure modes on
// purpose through the fault-injection registry (support/faultpoint.hpp)
// and assert the robustness invariant the failure model promises
// (docs/SERVING.md): every admitted request gets EXACTLY ONE terminal
// frame (VERDICT, ERROR or EXPIRED) or its connection dies cleanly —
// and the daemon itself never crashes, never wedges, and serves the
// next client as if nothing happened.
//
// Also the unit tests for the registry itself: spec grammar, seeded
// determinism, nth/count/probability gating, wildcard precedence.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <map>
#include <set>
#include <thread>

#include "core/detector.hpp"
#include "core/encoding_cache.hpp"
#include "core/eval_engine.hpp"
#include "datasets/spec.hpp"
#include "io/serialize.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "serve/wire.hpp"
#include "support/check.hpp"
#include "support/faultpoint.hpp"

namespace mpidetect {
namespace {

namespace fs = std::filesystem;

/// Disarms the global registry on scope exit: no chaos spec may leak
/// into another test (or into the rest of the suite).
struct FaultGuard {
  explicit FaultGuard(const std::string& spec) {
    fault::Registry::global().configure(spec);
  }
  ~FaultGuard() { fault::Registry::global().disarm(); }
};

struct TempDir {
  fs::path path;

  explicit TempDir(const std::string& name) {
    path = fs::temp_directory_path() / ("mpidetect_chaos_" + name);
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string file(const char* name) const { return (path / name).string(); }
};

// ---- registry unit tests ----------------------------------------------------

TEST(FaultRegistryTest, BadSpecsThrowWithTheOffendingToken) {
  fault::Registry reg;
  for (const char* bad :
       {"serve.recv.short:p=1.5", "serve.recv.short:p=banana",
        "point:nth=x", "point:count=1.5", ":p=0.5", "bad name:p=1",
        "point:unknown=1", "point:p", "seed=abc", "seed=1:p=0.5",
        "point:ms=999999999"}) {
    try {
      reg.configure(bad);
      FAIL() << "accepted bad spec: " << bad;
    } catch (const ContractViolation& e) {
      EXPECT_NE(std::string(e.what()).find("fault spec"), std::string::npos)
          << bad;
    }
  }
  EXPECT_FALSE(reg.armed());  // a throwing configure leaves it disarmed
}

TEST(FaultRegistryTest, EmptySpecDisarmsAndDisarmedPointsNeverFire) {
  fault::Registry reg;
  reg.configure("");
  EXPECT_FALSE(reg.armed());
  EXPECT_FALSE(reg.should_fire("anything.at.all"));
  reg.configure("x:p=1");
  EXPECT_TRUE(reg.armed());
  reg.disarm();
  EXPECT_FALSE(reg.armed());
  EXPECT_EQ(reg.fired_total(), 0u);
}

TEST(FaultRegistryTest, ProbabilityIsSeededAndDeterministic) {
  fault::Registry a, b;
  a.configure("seed=11,p.x:p=0.3");
  b.configure("seed=11,p.x:p=0.3");
  std::vector<bool> fa, fb;
  for (int i = 0; i < 200; ++i) {
    fa.push_back(a.should_fire("p.x"));
    fb.push_back(b.should_fire("p.x"));
  }
  EXPECT_EQ(fa, fb);  // identical seed → identical campaign
  const auto fired = static_cast<double>(a.fires("p.x"));
  EXPECT_GT(fired, 200 * 0.3 - 40);  // roughly the asked-for rate
  EXPECT_LT(fired, 200 * 0.3 + 40);

  fault::Registry c;
  c.configure("seed=12,p.x:p=0.3");
  std::vector<bool> fc;
  for (int i = 0; i < 200; ++i) fc.push_back(c.should_fire("p.x"));
  EXPECT_NE(fa, fc);  // a different seed reshuffles the pattern

  // The decision function is exposed and pure: predict hit 1 exactly.
  const bool predicted = fault::fire_draw(11, "p.x", 1) < 0.3;
  EXPECT_EQ(fa[0], predicted);
}

TEST(FaultRegistryTest, NthAndCountGatesCompose) {
  fault::Registry reg;
  reg.configure("n.x:nth=3,c.x:count=2");
  std::vector<bool> nth;
  for (int i = 0; i < 9; ++i) nth.push_back(reg.should_fire("n.x"));
  EXPECT_EQ(nth, (std::vector<bool>{false, false, true, false, false, true,
                                    false, false, true}));
  int fires = 0;
  for (int i = 0; i < 10; ++i) fires += reg.should_fire("c.x") ? 1 : 0;
  EXPECT_EQ(fires, 2);  // count caps the rule
  EXPECT_EQ(reg.hits("c.x"), 10u);
  EXPECT_EQ(reg.fires("c.x"), 2u);
  EXPECT_EQ(reg.fired_total(), 3u + 2u);
}

TEST(FaultRegistryTest, ExactRuleBeatsWildcardAndStallMsPassesThrough) {
  fault::Registry reg;
  reg.configure("serve.*:p=0:ms=5,serve.recv.stall:ms=77");
  // The wildcard (p=0) must not swallow the exact rule's hits.
  std::uint32_t ms = 0;
  EXPECT_TRUE(reg.should_fire("serve.recv.stall", &ms));
  EXPECT_EQ(ms, 77u);
  // Other serve.* points match the wildcard, which never fires (p=0).
  EXPECT_FALSE(reg.should_fire("serve.send.stall"));
  EXPECT_EQ(reg.hits("serve.send.stall"), 1u);
}

// ---- storage-path faults ----------------------------------------------------

TEST(FaultStorageTest, InjectedEnospcAbortsSaveAndLeavesNoTmp) {
  TempDir dir("enospc");
  FaultGuard guard("io.save.enospc:count=1");
  const std::string path = dir.file("out.bin");
  EXPECT_THROW(
      io::save_file(path, [](io::Writer& w) { w.u64(42); }),
      io::FormatError);
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));  // no partial litter
  // The count=1 budget is spent: the retry succeeds.
  io::save_file(path, [](io::Writer& w) { w.u64(42); });
  EXPECT_TRUE(fs::exists(path));
}

TEST(FaultStorageTest, TornWriteIsTreatedAsCorruptionByTheLoader) {
  TempDir dir("torn");
  FaultGuard guard("io.save.torn:count=1");
  const std::string path = dir.file("out.bin");
  io::save_file(path, [](io::Writer& w) {
    io::write_section(w, "TORN", 1);
    w.str("a payload long enough that half of it is visibly missing");
  });
  EXPECT_TRUE(fs::exists(path));  // the torn file DID land
  EXPECT_THROW(io::load_file(path,
                             [](io::Reader& r) {
                               io::read_section(r, "TORN", 1, "torn test");
                               (void)r.str(4096);
                             }),
               io::FormatError);
}

TEST(FaultStorageTest, SpillEnospcDegradesCacheToMemoryNotFailure) {
  TempDir dir("spill");
  FaultGuard guard("cache.spill.enospc");
  core::EncodingCache cache;
  cache.set_spill_dir(dir.file("cache"));
  const auto ds = datasets::make_dataset("mbi:0.02@7");
  // Encoding proceeds; only the disk write is refused.
  (void)cache.features(ds, passes::OptLevel::O0, ir2vec::Normalization::None,
                       1, 2);
  EXPECT_EQ(cache.disk_writes(), 0u);
  EXPECT_EQ(cache.feature_set_count(), 1u);  // served from memory
}

// ---- serving-path chaos -----------------------------------------------------

constexpr const char* kSpec = "mbi:0.02@7";

core::DetectorConfig tiny_config() {
  core::DetectorConfig cfg;
  cfg.ir2vec.use_ga = false;
  cfg.gnn.cfg.embed_dim = 8;
  cfg.gnn.cfg.layers = {16, 8};
  cfg.gnn.cfg.fc_hidden = 8;
  cfg.gnn.cfg.epochs = 2;
  return cfg;
}

/// One trained bundle shared by every chaos campaign.
const std::string& bundle() {
  static const std::string path = [] {
    static TempDir dir("bundle");
    const std::string p = dir.file("gnn.mpib");
    const auto ds = datasets::make_dataset(kSpec);
    auto& registry = core::DetectorRegistry::global();
    auto det = registry.create("gnn", tiny_config());
    core::EvalEngine engine(2);
    engine.fit_full(*det, ds);
    registry.save_bundle("gnn", *det, p);
    return p;
  }();
  return path;
}

serve::ServerOptions chaos_options() {
  serve::ServerOptions opts;
  opts.model_paths = {bundle()};
  opts.queue_capacity = 8;
  opts.max_batch = 4;
  opts.threads = 2;
  opts.io_timeout_ms = 2000;  // bounded: a chaos stall cannot wedge CI
  return opts;
}

/// A connection whose SERVER end carries the "serve" fault tag — the
/// same asymmetry as the daemon: chaos shakes the server, the client
/// doing the asserting stays clean.
struct ChaosConn {
  std::unique_ptr<serve::Transport> client;
  std::unique_ptr<serve::Transport> server_end;
  std::thread th;

  explicit ChaosConn(serve::Server& s) {
    auto [a, b] = serve::local_pair();
    client = std::move(a);
    server_end = std::move(b);
    server_end->set_fault_tag("serve");
    th = std::thread(
        [&s, this] { s.serve_connection(*server_end, "chaos-client"); });
  }
  ~ChaosConn() {
    if (client) client->shutdown();
    if (th.joinable()) th.join();
  }
};

struct CampaignResult {
  std::set<std::uint64_t> terminal;   // ids that got VERDICT/ERROR/EXPIRED
  std::map<std::uint64_t, serve::WireVerdict> verdicts;  // the VERDICTs
  std::size_t duplicate_answers = 0;  // terminal frames for an answered id
  bool connection_died = false;
};

/// Submits ids 1..n and reads until every id has a terminal answer or
/// the (sabotaged) connection dies. BUSY is resubmitted — that is the
/// client half of the retry contract.
CampaignResult run_campaign(serve::Server& server, std::size_t n) {
  ChaosConn conn(server);
  CampaignResult r;
  try {
    for (std::uint64_t id = 1; id <= n; ++id) {
      serve::write_frame(*conn.client,
                         serve::Submit{id, "", kSpec, (id - 1) % 8});
    }
    while (r.terminal.size() < n) {
      const auto frame = serve::read_frame(*conn.client, "chaos-server");
      if (!frame) {
        r.connection_died = true;
        break;
      }
      const auto terminal_id = [&](std::uint64_t id) {
        if (!r.terminal.insert(id).second) ++r.duplicate_answers;
      };
      if (const auto* v = std::get_if<serve::WireVerdict>(&*frame)) {
        terminal_id(v->request_id);
        r.verdicts.emplace(v->request_id, *v);
      } else if (const auto* e = std::get_if<serve::Error>(&*frame)) {
        if (e->request_id == 0) {
          r.connection_died = true;  // framing lost, connection over
          break;
        }
        terminal_id(e->request_id);
      } else if (const auto* x = std::get_if<serve::Expired>(&*frame)) {
        terminal_id(x->request_id);
      } else if (const auto* b = std::get_if<serve::Busy>(&*frame)) {
        serve::write_frame(
            *conn.client,
            serve::Submit{b->request_id, "", kSpec, (b->request_id - 1) % 8});
      } else {
        ADD_FAILURE() << "unexpected frame "
                      << serve::frame_type_name(serve::frame_type(*frame));
        break;
      }
    }
  } catch (const serve::TransportError&) {
    r.connection_died = true;
  } catch (const io::FormatError&) {
    // An injected short/torn write can hand the client a mangled frame;
    // for the invariant that is the same as a dead connection.
    r.connection_died = true;
  }
  return r;
}

/// After any campaign the daemon must serve a clean client perfectly.
void expect_server_healthy(serve::Server& server) {
  fault::Registry::global().disarm();
  ChaosConn conn(server);  // tag set, but the registry is disarmed
  serve::write_frame(*conn.client, serve::Submit{901, "", kSpec, 0});
  const auto frame = serve::read_frame(*conn.client, "healthy");
  ASSERT_TRUE(frame.has_value());
  const auto& v = std::get<serve::WireVerdict>(*frame);
  EXPECT_EQ(v.request_id, 901u);
}

TEST(ChaosServeTest, RecoverableTransportFaultsServeEveryRequest) {
  serve::Server server(chaos_options());
  server.start();
  // The fault-free campaign is the reference every faulted one must
  // reproduce verdict for verdict.
  const auto clean = run_campaign(server, 12);
  ASSERT_EQ(clean.verdicts.size(), 12u);
  // Short reads, short writes and spurious EINTR are RECOVERABLE: the
  // retry loops in the transport must absorb them all, at high rates,
  // without changing a single answer.
  for (const char* spec :
       {"seed=1,serve.recv.short:p=0.5",
        "seed=2,serve.send.short:p=0.5",
        "seed=3,serve.recv.eintr:p=0.3",
        "seed=4,serve.recv.short:p=0.3,serve.send.short:p=0.3"}) {
    FaultGuard guard(spec);
    const auto r = run_campaign(server, 12);
    EXPECT_FALSE(r.connection_died) << spec;
    EXPECT_EQ(r.terminal.size(), 12u) << spec;
    EXPECT_EQ(r.verdicts.size(), 12u) << spec << ": every answer a VERDICT";
    EXPECT_EQ(r.duplicate_answers, 0u) << spec;
    EXPECT_GT(fault::Registry::global().fired_total(), 0u) << spec;
    for (const auto& [id, v] : r.verdicts) {
      const serve::WireVerdict& want = clean.verdicts.at(id);
      EXPECT_EQ(v.outcome, want.outcome) << spec << " id " << id;
      EXPECT_EQ(v.predicted_label, want.predicted_label)
          << spec << " id " << id;
      EXPECT_EQ(v.confidence, want.confidence) << spec << " id " << id;
    }
  }
  expect_server_healthy(server);
  server.stop();
}

TEST(ChaosServeTest, DestructiveTransportFaultsNeverCrashOrDoubleAnswer) {
  serve::Server server(chaos_options());
  server.start();
  // Resets and stalls are DESTRUCTIVE: connections may die mid-flight.
  // The invariant that must hold anyway: at most one terminal answer
  // per id, and the daemon survives to serve the next client.
  for (const char* spec :
       {"seed=5,serve.recv.reset:nth=5",
        "seed=6,serve.send.reset:nth=7",
        "seed=7,serve.*:p=0.05",
        "seed=8,serve.recv.stall:p=0.2:ms=10,serve.send.reset:nth=9"}) {
    FaultGuard guard(spec);
    const auto r = run_campaign(server, 12);
    EXPECT_EQ(r.duplicate_answers, 0u) << spec;
    expect_server_healthy(server);
  }
  server.stop();
}

TEST(ChaosServeTest, DetectorThrowPoisonsOnlyTheBatchNotTheWorker) {
  serve::Server server(chaos_options());
  // Admit a burst first (worker not started), then arm the throw for
  // exactly one batch dispatch: the worker must degrade to singleton
  // retries and still answer every request with a VERDICT.
  ChaosConn conn(server);
  for (std::uint64_t id = 1; id <= 4; ++id) {
    serve::write_frame(*conn.client, serve::Submit{id, "", kSpec, id - 1});
  }
  while (server.snapshot_stats().received < 4) std::this_thread::yield();
  FaultGuard guard("serve.batch.throw:count=1");
  server.start();

  std::set<std::uint64_t> served;
  while (served.size() < 4) {
    const auto frame = serve::read_frame(*conn.client, "server");
    ASSERT_TRUE(frame.has_value());
    const auto& v = std::get<serve::WireVerdict>(*frame);
    EXPECT_EQ(v.batch_size, 1u);  // the fallback runs them one by one
    served.insert(v.request_id);
  }
  EXPECT_EQ(served, (std::set<std::uint64_t>{1, 2, 3, 4}));
  const auto stats = server.snapshot_stats();
  EXPECT_EQ(stats.served, 4u);
  EXPECT_EQ(stats.request_errors, 0u);
  EXPECT_EQ(stats.faults_fired, 1u);
  server.stop();
}

TEST(ChaosServeTest, SlowBatchTripsTheWatchdogOnceAndIsStillServed) {
  auto opts = chaos_options();
  opts.watchdog_ms = 20;
  serve::Server server(opts);
  ChaosConn conn(server);
  serve::write_frame(*conn.client, serve::Submit{1, "", kSpec, 0});
  while (server.snapshot_stats().received < 1) std::this_thread::yield();
  FaultGuard guard("serve.batch.slow:count=1:ms=120");
  server.start();

  const auto frame = serve::read_frame(*conn.client, "server");
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(std::get<serve::WireVerdict>(*frame).request_id, 1u);
  const auto stats = server.snapshot_stats();
  EXPECT_EQ(stats.watchdog_trips, 1u);  // one stuck batch, ONE trip
  EXPECT_EQ(stats.served, 1u);
  server.stop();
}

TEST(ChaosServeTest, SpillFaultDegradesServingCacheToMemory) {
  TempDir dir("serve_spill");
  auto opts = chaos_options();
  opts.cache_dir = dir.file("cache");
  serve::Server server(opts);
  server.start();
  FaultGuard guard("cache.spill.enospc");
  ChaosConn conn(server);
  serve::write_frame(*conn.client, serve::Submit{1, "", kSpec, 0});
  const auto frame = serve::read_frame(*conn.client, "server");
  ASSERT_TRUE(frame.has_value());
  EXPECT_EQ(std::get<serve::WireVerdict>(*frame).request_id, 1u);
  const auto stats = server.snapshot_stats();
  EXPECT_EQ(stats.cache_disk_writes, 0u);  // refused, and nobody died
  EXPECT_GT(stats.faults_fired, 0u);
  server.stop();
}

}  // namespace
}  // namespace mpidetect
