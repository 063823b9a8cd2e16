// fuzz_corpus: set-up distills a seeded DifferentialFuzzer campaign's
// draws into .mpcs shards; the timed phase runs the campaign (schedule
// sweeps and detector cross-checks on every draw), a full CorpusReader
// verify of the shards, and a streamed sweep of must-sweep and parcoach
// over them. The fuzzer has no parallelism, so the campaign is
// single-threaded; the read side runs on the engine's default width.
#include <filesystem>
#include <iostream>
#include <memory>

#include "common.hpp"
#include "core/detector.hpp"
#include "core/eval_engine.hpp"
#include "core/fuzzer.hpp"
#include "corpus/corpus.hpp"
#include "mpisim/machine.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace mpidetect;
namespace fs = std::filesystem;

const char* const kSweepTools[] = {"must-sweep", "parcoach"};

// One pass is a short campaign; run.py runs many passes, each over its
// own draws, because the simulator's cost per draw depends on the heap
// layout the pass happens to reach (see perfbench/README.md).
constexpr int kDraws = 25, kSchedules = 4, kSetupReps = 5;

struct PassOutcome {
  ProcessCounters counters;  // of the timed phase
  double setup_s = 0.0;
  double wall_s = 0.0;
  double fuzz_s = 0.0, verify_s = 0.0, sweep_s = 0.0;
  std::size_t draws = 0, divergences = 0, shrink_steps = 0;
  std::size_t distilled = 0, verified = 0;
  std::uint64_t bytes = 0;
  std::vector<ml::Confusion> sweeps;
  std::vector<std::size_t> swept_cases;
  std::vector<double> sweep_tool_s;
};

core::FuzzConfig fuzz_config(std::uint64_t seed) {
  core::FuzzConfig cfg;
  cfg.seed = seed;
  cfg.runs = kDraws;
  cfg.schedules = kSchedules;
  return cfg;
}

/// Set-up of one pass: the fuzzer (which builds its cross-checked
/// detectors), the engine, the sweep tools, and the campaign's draws
/// distilled into .mpcs shards in an empty directory. distill() walks
/// the same draw sequence as run(), so the shards hold exactly the
/// cases the campaign then checks.
struct Setup {
  core::DifferentialFuzzer fuzzer;
  core::EvalEngine engine;
  std::vector<std::unique_ptr<core::Detector>> tools;
  corpus::WriteStats written;

  Setup(std::uint64_t seed, const fs::path& dir) : fuzzer(fuzz_config(seed)) {
    for (const char* t : kSweepTools) {
      tools.push_back(core::DetectorRegistry::global().create(t));
    }
    trace::Span s("core.fuzz.distill");
    fs::remove_all(dir);
    fs::create_directories(dir);
    written = fuzzer.distill(dir, kDraws);
  }
};

PassOutcome run_pass(std::uint64_t seed, const fs::path& dir) {
  PassOutcome out;
  const auto t_setup = Clock::now();
  Setup su(seed, dir);
  out.setup_s = seconds_since(t_setup);
  core::DifferentialFuzzer& fuzzer = su.fuzzer;
  core::EvalEngine& engine = su.engine;
  const auto& tools = su.tools;
  out.distilled = su.written.cases;

  const ProcessCounters c0 = process_counters();
  const auto t0 = Clock::now();
  core::FuzzReport rep;
  {
    trace::Span s("core.fuzz.run");
    rep = fuzzer.run();
  }
  out.fuzz_s = seconds_since(t0);
  out.draws = static_cast<std::size_t>(rep.runs);
  out.divergences = rep.divergence_count;
  for (const auto& d : rep.divergences) {
    out.shrink_steps += d.shrunk.dropped.size() +
                        (d.shrunk.size_class != d.tuple.size_class) +
                        (d.shrunk.nprocs != d.tuple.nprocs);
  }

  auto t = Clock::now();
  std::unique_ptr<corpus::CorpusReader> reader;
  {
    trace::Span s("corpus.verify");
    reader = std::make_unique<corpus::CorpusReader>(dir);
    reader->for_each([&](std::size_t, const datasets::Case&) {
      ++out.verified;
    });
    reader->release_mappings();
  }
  out.verify_s = seconds_since(t);
  for (const auto& sh : reader->shards()) out.bytes += sh.file_bytes;

  t = Clock::now();
  for (std::size_t i = 0; i < tools.size(); ++i) {
    trace::Span s(std::string("core.sweep_stream.") + kSweepTools[i]);
    const auto ts = Clock::now();
    const auto rep_sweep = engine.sweep_stream(*tools[i], *reader);
    out.sweep_tool_s.push_back(seconds_since(ts));
    out.sweeps.push_back(rep_sweep.confusion);
    out.swept_cases.push_back(rep_sweep.verdicts.size());
  }
  out.sweep_s = seconds_since(t);
  out.wall_s = seconds_since(t0);
  const ProcessCounters c1 = process_counters();
  out.counters.minor_faults = c1.minor_faults - c0.minor_faults;
  out.counters.sys_s = c1.sys_s - c0.sys_s;
  out.counters.user_s = c1.user_s - c0.user_s;
  return out;
}

/// Per-layer replays over the distilled cases: the simulator, each
/// expert tool, and the shard writer, called directly.
void layer_replays(const fs::path& dir, const PassOutcome& po, Result& r) {
  corpus::CorpusReader reader(dir);
  datasets::Dataset ds;
  ds.name = "fuzz";
  reader.for_each(
      [&](std::size_t, const datasets::Case& c) { ds.cases.push_back(c); });

  // Lowering and both pipelines, then the simulator on the O0 module:
  // K schedules per case, schedule 0 round-robin.
  double run_ns = 0, steps = 0, runs = 0, deadlocks = 0;
  std::size_t next_case = 0;
  const StageTimes st = replay_lowering(ds.cases, [&](ir::Module& m) {
    const datasets::Case& c = ds.cases[next_case++];
    for (int s = 0; s < kSchedules; ++s) {
      mpisim::MachineConfig mc;
      mc.nprocs = c.program.nprocs;
      mc.max_steps = core::FuzzConfig{}.max_steps;
      if (s > 0) {
        mc.schedule.policy = mpisim::SchedPolicy::Random;
        mc.schedule.seed = static_cast<std::uint64_t>(s);
      }
      const auto a = trace::now_ns();
      mpisim::RunReport rep;
      {
        trace::Span sp("mpisim.run");
        rep = mpisim::run(m, mc);
      }
      run_ns += static_cast<double>(trace::now_ns() - a);
      steps += static_cast<double>(rep.steps);
      runs += 1;
      deadlocks += rep.outcome == mpisim::Outcome::Deadlock;
    }
  }, nullptr);
  st.add_metrics(r);
  r.add("mpisim.run_us", run_ns / std::max(1.0, runs) / 1e3, "us");
  r.add("mpisim.steps", steps / std::max(1.0, runs), "count");
  r.add("mpisim.runs", runs, "count");
  r.add("mpisim.deadlock_runs", deadlocks, "count");

  for (const char* tool : {"itac", "must", "must-sweep", "parcoach",
                           "mpi-checker"}) {
    auto det = core::DetectorRegistry::global().create(tool);
    const auto a = trace::now_ns();
    for (std::size_t i = 0; i < ds.size(); ++i) {
      trace::Span sp(std::string("verify.") + tool);
      det->evaluate(ds, i);
    }
    const double us = static_cast<double>(trace::now_ns() - a) / 1e3;
    r.add(std::string("verify.") + tool + ".us_per_case",
          us / std::max<std::size_t>(1, ds.size()), "us");
  }

  // Shard writer: the same cases into a second corpus.
  const fs::path copy = dir.string() + "-rewrite";
  fs::remove_all(copy);
  const auto a = trace::now_ns();
  corpus::WriteStats ws;
  {
    trace::Span sp("corpus.write");
    corpus::CorpusWriter w(copy);
    for (const auto& c : ds.cases) w.add(c);
    ws = w.finish();
  }
  const double write_s = static_cast<double>(trace::now_ns() - a) / 1e9;
  fs::remove_all(copy);
  const double mb = static_cast<double>(po.bytes) / (1024.0 * 1024.0);
  r.add("corpus.bytes", static_cast<double>(po.bytes), "bytes");
  r.add("corpus.write_mb_s",
        static_cast<double>(ws.bytes) / (1024.0 * 1024.0) / write_s, "MB/s");
  r.add("corpus.verify_mb_s", mb / po.verify_s, "MB/s");
  r.add("corpus.stream_cases_s",
        static_cast<double>(po.swept_cases.back()) / po.sweep_tool_s.back(),
        "1/s");
  r.add("core.fuzz.draws", static_cast<double>(po.draws), "count");
  r.add("core.fuzz.shrink_steps", static_cast<double>(po.shrink_steps),
        "count");
  r.add("core.fuzz.divergences", static_cast<double>(po.divergences), "count");
}

}  // namespace

Result run_fuzz_corpus(const Options& opt) {
  const fs::path dir = fs::path(opt.workdir) / "fuzz-shards";
  Result r;
  // Operations: each draw, each shard record verified, and each case of
  // each streamed sweep.
  r.attempted = static_cast<std::size_t>(kDraws) * (2 + std::size(kSweepTools));
  planned(r.attempted);

  trace::set_enabled(opt.trace);
  const PassOutcome po = run_pass(opt.input_seed(), dir);
  // Further set-ups are timed only after the pass: set-up churns the
  // allocator (engine threads, detectors), and that history changes how
  // many page faults the simulator's arenas take in the timed phase.
  std::vector<double> setups{po.setup_s};
  for (int i = 1; !opt.trace && i < kSetupReps; ++i) {
    const auto t = Clock::now();
    const Setup su(opt.input_seed(), dir);
    setups.push_back(seconds_since(t));
  }

  if (po.divergences != 0) {
    r.fail(std::to_string(po.divergences) + " fuzz divergences", po.divergences);
  }
  if (po.draws != static_cast<std::size_t>(kDraws) ||
      po.distilled != static_cast<std::size_t>(kDraws) ||
      po.verified != po.distilled) {
    r.fail("checked " + std::to_string(po.draws) + ", distilled " +
               std::to_string(po.distilled) + " and verified " +
               std::to_string(po.verified) + " of " + std::to_string(kDraws) +
               " draws",
           static_cast<std::size_t>(kDraws));
  }
  std::size_t right = 0, total = 0;
  for (std::size_t i = 0; i < po.sweeps.size(); ++i) {
    const auto& c = po.sweeps[i];
    if (po.swept_cases[i] != po.distilled || c.population() != po.distilled) {
      r.fail(std::string(kSweepTools[i]) + " swept " +
                 std::to_string(po.swept_cases[i]) + " of " +
                 std::to_string(po.distilled) + " cases",
             static_cast<std::size_t>(kDraws));
    }
    right += c.tp + c.tn;
    total += c.population();
    r.note(std::string("confusion.") + kSweepTools[i],
           std::to_string(c.tp) + "/" + std::to_string(c.tn) + "/" +
               std::to_string(c.fp) + "/" + std::to_string(c.fn) + "/" +
               std::to_string(c.errors()));
  }
  r.note("pass_wall_s", fmt(po.wall_s));
  r.note("pass_minor_faults", std::to_string(po.counters.minor_faults));
  r.note("pass_sys_s", fmt(po.counters.sys_s));
  r.note("pass_user_s", fmt(po.counters.user_s));
  r.note("fuzz.divergences", std::to_string(po.divergences));
  r.note("corpus.bytes", std::to_string(po.bytes));
  r.note("phase_s.fuzz", fmt(po.fuzz_s));
  r.note("phase_s.verify", fmt(po.verify_s));
  r.note("phase_s.sweep", fmt(po.sweep_s));

  if (opt.trace) {
    layer_replays(dir, po, r);
    finish_trace(opt, r);
  } else {
    r.add("setup_s", median(setups), "s");
    r.add("wall_s", po.wall_s, "s");
    r.add("peak_rss_mb", self_peak_rss_mb(), "MB");
    r.add("accuracy", static_cast<double>(right) / std::max<std::size_t>(1, total),
          "ratio");
    r.add("throughput_ops_s", static_cast<double>(po.draws) / po.wall_s, "1/s");
  }
  fs::remove_all(dir);
  return r;
}

}  // namespace perfbench
