// paper_eval: the paper's Table II path as one closed batch. Each pass
// generates MBI and MPI-CorrBench from the workload seed (set-up), then
// runs IR2vec+DT Intra k-fold on MBI (GA feature selection on),
// ProGraML+GATv2 Intra k-fold on a smaller MBI, and IR2vec+DT Cross
// MBI -> CorrBench, all on a fresh engine with a cold EncodingCache.
//
// GNN work runs only inside k-fold here: GNN training or inference
// outside k-fold currently crashes at the machine's default width (the
// ThreadPool straggler race); see perfbench/README.md.
#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <tuple>

#include "common.hpp"
#include "core/detector.hpp"
#include "core/eval_engine.hpp"
#include "core/features.hpp"
#include "datasets/corrbench.hpp"
#include "datasets/mbi.hpp"
#include "ir2vec/encoder.hpp"
#include "ml/decision_tree.hpp"
#include "ml/genetic.hpp"
#include "ml/kernels.hpp"
#include "ml/kfold.hpp"
#include "progmodel/lower.hpp"
#include "programl/graph.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using namespace mpidetect;

/// Decorator that opens a span around each training and inference call
/// of the wrapped detector. It forwards every call unchanged, so
/// EvalEngine drives the real detector through its normal protocol.
class SpannedDetector final : public core::Detector {
 public:
  SpannedDetector(std::unique_ptr<core::Detector> inner, std::string prefix)
      : inner_(std::move(inner)), prefix_(std::move(prefix)) {}

  std::string_view name() const override { return inner_->name(); }
  core::DetectorKind kind() const override { return inner_->kind(); }
  bool trainable() const override { return inner_->trainable(); }
  bool parallel_eval_safe() const override {
    return inner_->parallel_eval_safe();
  }
  std::unique_ptr<core::Detector> clone() const override {
    return std::make_unique<SpannedDetector>(inner_->clone(), prefix_);
  }
  core::EvalOptions eval_defaults() const override {
    return inner_->eval_defaults();
  }
  void use_cache(const std::shared_ptr<core::EncodingCache>& c) override {
    inner_->use_cache(c);
  }
  void prepare(const datasets::Dataset& ds, unsigned threads) override {
    trace::Span s(prefix_ + ".prepare");
    inner_->prepare(ds, threads);
  }
  void fit(const datasets::Dataset& ds, std::span<const std::size_t> train_idx,
           std::span<const std::size_t> y,
           const core::FitSpec& spec) override {
    trace::Span s(prefix_ + ".fit");
    inner_->fit(ds, train_idx, y, spec);
  }
  core::Verdict evaluate(const datasets::Dataset& ds,
                         std::size_t idx) override {
    trace::Span s(prefix_ + ".evaluate");
    return inner_->evaluate(ds, idx);
  }
  void discard(const datasets::Dataset& ds) override { inner_->discard(ds); }

 private:
  std::unique_ptr<core::Detector> inner_;
  std::string prefix_;
};

// Workload sizes: a pass takes about 4 s on 4 cores.
constexpr double kMbiScale = 0.5, kCorrScale = 1.0, kGnnScale = 0.1;
constexpr std::size_t kGaPopulation = 100, kGaGenerations = 8;
constexpr int kIr2vecFolds = 5, kGnnFolds = 5, kGnnEpochs = 4;
constexpr int kSetupReps = 15;

core::DetectorConfig detector_config() {
  core::DetectorConfig cfg;
  cfg.ir2vec.use_ga = true;
  cfg.ir2vec.ga.population = kGaPopulation;
  cfg.ir2vec.ga.generations = kGaGenerations;
  cfg.ir2vec.folds = kIr2vecFolds;
  cfg.gnn.folds = kGnnFolds;
  cfg.gnn.cfg.embed_dim = 16;
  cfg.gnn.cfg.layers = {32, 16};
  cfg.gnn.cfg.fc_hidden = 16;
  cfg.gnn.cfg.epochs = kGnnEpochs;
  return cfg;
}

struct Inputs {
  datasets::Dataset mbi, corr, mbi_gnn;
};

Inputs generate(std::uint64_t seed) {
  trace::Span s("datasets.generate");
  datasets::MbiConfig mc;
  mc.seed = derive_seed(seed, 1);
  mc.scale = kMbiScale;
  datasets::CorrConfig cc;
  cc.seed = derive_seed(seed, 2);
  cc.scale = kCorrScale;
  datasets::MbiConfig gc;
  gc.seed = derive_seed(seed, 3);
  gc.scale = kGnnScale;
  return {datasets::generate_mbi(mc), datasets::generate_corrbench(cc),
          datasets::generate_mbi(gc)};
}

/// One protocol's confusion as "tp/tn/fp/fn/errors".
std::string confusion_text(const ml::Confusion& c) {
  std::ostringstream o;
  o << c.tp << "/" << c.tn << "/" << c.fp << "/" << c.fn << "/" << c.errors();
  return o.str();
}

struct PassOutcome {
  ProcessCounters counters;  // of the timed phase
  double setup_s = 0.0;
  double wall_s = 0.0;
  ml::Confusion ir2vec_kfold, gnn_kfold, ir2vec_cross;
  std::size_t mbi_cases = 0, corr_cases = 0, gnn_cases = 0;
  double kfold_ir2vec_ms = 0, kfold_gnn_ms = 0, cross_ms = 0, generate_ms = 0;
  std::array<ml::kernels::OpStats, ml::kernels::kNumOps> gnn_ops{};
};

/// Set-up of one pass: the engine, a cold cache, the detectors, and the
/// corpora generated from the seed.
struct Setup {
  std::shared_ptr<core::EncodingCache> cache =
      std::make_shared<core::EncodingCache>();
  core::EvalEngine engine{0, cache};
  std::unique_ptr<SpannedDetector> ir2vec, gnn;
  Inputs in;
  double generate_ms = 0;

  explicit Setup(std::uint64_t seed) {
    core::DetectorConfig cfg = detector_config();
    cfg.cache = cache;
    auto& reg = core::DetectorRegistry::global();
    ir2vec = std::make_unique<SpannedDetector>(reg.create("ir2vec", cfg),
                                               "core.ir2vec");
    gnn = std::make_unique<SpannedDetector>(reg.create("gnn", cfg), "core.gnn");
    const auto t = Clock::now();
    in = generate(seed);
    generate_ms = seconds_since(t) * 1e3;
  }
};

/// Times set-up alone, `reps` times.
std::vector<double> time_setups(std::uint64_t seed, int reps) {
  std::vector<double> out;
  for (int i = 0; i < reps; ++i) {
    const auto t = Clock::now();
    const Setup s(seed);
    out.push_back(seconds_since(t));
  }
  return out;
}

/// One pass: set-up, then the timed batch of the three protocols.
PassOutcome run_pass(std::uint64_t seed) {
  PassOutcome out;
  const auto t_setup = Clock::now();
  Setup su(seed);
  out.setup_s = seconds_since(t_setup);
  const Inputs& in = su.in;
  core::EvalEngine& engine = su.engine;
  SpannedDetector& ir2vec = *su.ir2vec;
  SpannedDetector& gnn = *su.gnn;
  out.generate_ms = su.generate_ms;
  out.mbi_cases = in.mbi.size();
  out.corr_cases = in.corr.size();
  out.gnn_cases = in.mbi_gnn.size();
  planned(out.mbi_cases + out.gnn_cases + out.corr_cases);

  const ProcessCounters c0 = process_counters();
  const auto t0 = Clock::now();
  auto t = t0;
  {
    trace::Span s("core.kfold.ir2vec");
    t = Clock::now();
    out.ir2vec_kfold = engine.kfold(ir2vec, in.mbi).confusion;
    out.kfold_ir2vec_ms = seconds_since(t) * 1e3;
  }
  {
    trace::Span s("core.kfold.gnn");
    ml::kernels::reset_op_counters();
    t = Clock::now();
    out.gnn_kfold = engine.kfold(gnn, in.mbi_gnn).confusion;
    out.kfold_gnn_ms = seconds_since(t) * 1e3;
    out.gnn_ops = ml::kernels::op_counters();
    ml::kernels::reset_op_counters();
  }
  {
    trace::Span s("core.cross.ir2vec");
    t = Clock::now();
    out.ir2vec_cross = engine.cross(ir2vec, in.mbi, in.corr).confusion;
    out.cross_ms = seconds_since(t) * 1e3;
  }
  out.wall_s = seconds_since(t0);
  const ProcessCounters c1 = process_counters();
  out.counters.minor_faults = c1.minor_faults - c0.minor_faults;
  out.counters.sys_s = c1.sys_s - c0.sys_s;
  out.counters.user_s = c1.user_s - c0.user_s;
  return out;
}

/// Parses "ir2vec_kfold=a/b/c/d/e,gnn_kfold=...,ir2vec_cross=...".
std::map<std::string, std::string> parse_golden(const std::string& text) {
  std::map<std::string, std::string> g;
  std::istringstream in(text);
  std::string item;
  while (std::getline(in, item, ',')) {
    const auto eq = item.find('=');
    if (eq != std::string::npos) g[item.substr(0, eq)] = item.substr(eq + 1);
  }
  return g;
}

double accuracy(const ml::Confusion& c) {
  const std::size_t n = c.population();
  return n == 0 ? 0.0 : static_cast<double>(c.tp + c.tn) / n;
}

/// Per-layer replays for the traced run: every stage that runs inside
/// extract_features / extract_graphs / the GA, called directly through
/// the owning module's public function over the same cases.
void layer_replays(std::uint64_t seed, const PassOutcome& po,
                   Result& r) {
  const Inputs in = generate(seed);
  const unsigned width = core::EvalEngine().threads();

  // Whole-dataset extraction, as the detectors' cache miss runs it.
  auto t = Clock::now();
  core::FeatureSet fs;
  {
    trace::Span s("core.extract_features");
    fs = core::extract_features(in.mbi, passes::OptLevel::Os,
                                ir2vec::Normalization::Vector);
  }
  const double extract_features_ms = seconds_since(t) * 1e3;
  t = Clock::now();
  {
    trace::Span s("core.extract_graphs");
    core::extract_graphs(in.mbi_gnn, passes::OptLevel::O0);
  }
  const double extract_graphs_ms = seconds_since(t) * 1e3;

  // Per-case stages of the same cases, serially.
  const ir2vec::Vocabulary vocab(core::DetectorConfig{}.vocab_seed);
  double enc_ns = 0;
  const StageTimes st = replay_lowering(in.mbi.cases, nullptr, [&](ir::Module& m) {
    const auto a = trace::now_ns();
    {
      trace::Span l("ir2vec.encode_concat");
      (void)ir2vec::encode_concat(m, vocab);
    }
    enc_ns += static_cast<double>(trace::now_ns() - a);
  });
  double build_ns = 0, nodes = 0, edges = 0;
  for (const auto& c : in.mbi_gnn.cases) {
    auto m = progmodel::lower(c.program);
    passes::run_pipeline(*m, passes::OptLevel::O0);
    const auto b = trace::now_ns();
    programl::ProgramGraph g;
    {
      trace::Span l("programl.build_graph");
      g = programl::build_graph(*m);
    }
    build_ns += static_cast<double>(trace::now_ns() - b);
    nodes += static_cast<double>(g.num_nodes());
    edges += static_cast<double>(g.num_edges());
  }
  const double dn = std::max(1.0, st.cases);
  const double gn = std::max<double>(1.0, static_cast<double>(in.mbi_gnn.size()));
  st.add_metrics(r);
  r.add("ir2vec.encode_us", enc_ns / dn / 1e3, "us");
  r.add("programl.build_us", build_ns / gn / 1e3, "us");
  r.add("programl.nodes", nodes / gn, "count");
  r.add("programl.edges", edges / gn, "count");
  r.add("core.extract_features_ms", extract_features_ms, "ms");
  r.add("core.extract_graphs_ms", extract_graphs_ms, "ms");
  // Serial per-case stage time over (parallel wall x width).
  const double stage_ms = (st.lower_ns + st.os_ns + enc_ns) / 1e6;
  r.add("core.extract_parallel_eff",
        stage_ms / std::max(1e-9, extract_features_ms * width), "ratio");

  // GA over the full MBI feature matrix, at the workload's GA size, with
  // the detector's fitness rule: a DT scored on a stratified 80/20 split
  // (split seed as Ir2vecDetector derives it from its default seed 1).
  const auto folds = ml::stratified_kfold(fs.y_binary, 5, 1 ^ 0xfeedu);
  const auto& val = folds.front();
  const auto train = ml::fold_complement(val, fs.size());
  std::vector<std::vector<double>> Xt, Xv;
  std::vector<std::size_t> yt, yv;
  for (auto i : train) Xt.push_back(fs.X[i]), yt.push_back(fs.y_binary[i]);
  for (auto i : val) Xv.push_back(fs.X[i]), yv.push_back(fs.y_binary[i]);
  std::atomic<std::uint64_t> evals{0};
  const auto fitness = [&](const std::vector<std::size_t>& feats) {
    evals.fetch_add(1, std::memory_order_relaxed);
    ml::DecisionTreeConfig dc;
    dc.feature_subset = feats;
    ml::DecisionTree dt(dc);
    dt.fit(Xt, yt);
    std::size_t ok = 0;
    for (std::size_t i = 0; i < Xv.size(); ++i) ok += dt.predict(Xv[i]) == yv[i];
    return static_cast<double>(ok) / std::max<std::size_t>(1, Xv.size());
  };
  ml::GaConfig ga = detector_config().ir2vec.ga;
  t = Clock::now();
  ml::GaResult best;
  {
    trace::Span s("ml.select_features");
    best = ml::select_features(fs.X.front().size(), fitness, ga);
  }
  r.add("ml.ga_ms", seconds_since(t) * 1e3, "ms");
  r.add("ml.ga_evals", static_cast<double>(evals.load()), "count");
  t = Clock::now();
  {
    trace::Span s("ml.decision_tree.fit");
    ml::DecisionTreeConfig dc;
    dc.feature_subset = best.best_features;
    ml::DecisionTree dt(dc);
    dt.fit(fs.X, fs.y_binary);
  }
  r.add("ml.dt_fit_ms", seconds_since(t) * 1e3, "ms");

  r.add("datasets.generate_ms", po.generate_ms, "ms");
  r.add("core.kfold_ms.ir2vec", po.kfold_ir2vec_ms, "ms");
  r.add("core.kfold_ms.gnn", po.kfold_gnn_ms, "ms");
  r.add("core.cross_ms", po.cross_ms, "ms");
}

}  // namespace

Result run_paper_eval(const Options& opt) {
  Result r;
  const std::map<std::string, std::string> golden = parse_golden(opt.golden);

  trace::set_enabled(opt.trace);
  const PassOutcome po = run_pass(opt.input_seed());
  // Further set-ups are timed after the pass, so their allocator churn
  // cannot change the timed phase.
  std::vector<double> setups{po.setup_s};
  if (!opt.trace) {
    const auto more = time_setups(opt.input_seed(), kSetupReps - 1);
    setups.insert(setups.end(), more.begin(), more.end());
  }

  // Checks: one verdict per case, and the confusions of a seed with a
  // golden entry equal it. Any mismatch fails that protocol's verdicts.
  r.attempted = po.mbi_cases + po.gnn_cases + po.corr_cases;
  const std::tuple<const char*, const ml::Confusion*, std::size_t> rows[] = {
      {"ir2vec_kfold", &po.ir2vec_kfold, po.mbi_cases},
      {"gnn_kfold", &po.gnn_kfold, po.gnn_cases},
      {"ir2vec_cross", &po.ir2vec_cross, po.corr_cases}};
  for (const auto& [name, c, cases] : rows) {
    const std::string got = confusion_text(*c);
    r.note(std::string("confusion.") + name, got);
    r.note(std::string("acc_") + name, fmt(accuracy(*c)) + " ratio");
    if (c->population() != cases) {
      r.fail(std::string(name) + " gave " + std::to_string(c->population()) +
                 " verdicts for " + std::to_string(cases) + " cases",
             cases);
    } else if (auto g = golden.find(name); g != golden.end() && g->second != got) {
      r.fail(std::string(name) + " confusion " + got + " != golden " + g->second,
             cases);
    }
  }
  r.note("golden_checked", golden.empty() ? "no (no golden entry for this seed)"
                                          : "yes");
  r.note("pass_wall_s", fmt(po.wall_s));
  r.note("pass_minor_faults", std::to_string(po.counters.minor_faults));
  r.note("pass_sys_s", fmt(po.counters.sys_s));
  r.note("pass_user_s", fmt(po.counters.user_s));

  if (opt.trace) {
    layer_replays(opt.input_seed(), po, r);
    const auto spans = trace::collect();
    const auto names = trace::by_name(spans);
    const auto total_ns = [&](const std::string& n) {
      auto it = names.find(n);
      return it == names.end() ? 0.0 : static_cast<double>(it->second.total_ns);
    };
    const auto count = [&](const std::string& n) {
      auto it = names.find(n);
      return it == names.end() ? 0.0 : static_cast<double>(it->second.count);
    };
    // Derived: fit() time per optimisation step, at batch size 1 every
    // epoch takes one step per training graph.
    const double steps = static_cast<double>(po.gnn_cases) *
                         (kGnnFolds - 1) * kGnnEpochs;
    r.add("ml.gnn_steps", steps, "count");
    r.add("ml.gnn_train_step_ms", total_ns("core.gnn.fit") / 1e6 / std::max(1.0, steps),
          "ms");
    r.add("ml.gnn_infer_us",
          total_ns("core.gnn.evaluate") / 1e3 / std::max(1.0, count("core.gnn.evaluate")),
          "us");
    namespace k = ml::kernels;
    for (std::size_t op = 0; op < k::kNumOps; ++op) {
      if (static_cast<k::Op>(op) == k::Op::QMatmul) continue;  // serving only
      const std::string name = k::op_name(static_cast<k::Op>(op));
      r.add("ml.kernel." + name + ".calls",
            static_cast<double>(po.gnn_ops[op].calls), "count");
      r.add("ml.kernel." + name + ".flops",
            static_cast<double>(po.gnn_ops[op].flops), "count");
      r.add("ml.kernel." + name + ".ns", static_cast<double>(po.gnn_ops[op].ns),
            "ns");
    }
    finish_trace(opt, r);
  } else {
    const double verdicts = static_cast<double>(r.attempted);
    r.add("setup_s", median(setups), "s");
    r.add("wall_s", po.wall_s, "s");
    r.add("peak_rss_mb", self_peak_rss_mb(), "MB");
    r.add("accuracy",
          (accuracy(po.ir2vec_kfold) + accuracy(po.gnn_kfold) +
           accuracy(po.ir2vec_cross)) / 3.0,
          "ratio");
    r.add("throughput_ops_s", verdicts / po.wall_s, "1/s");
  }
  return r;
}

}  // namespace perfbench
