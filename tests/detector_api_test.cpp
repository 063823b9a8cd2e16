#include <gtest/gtest.h>

#include <bit>
#include <map>
#include <optional>
#include <sstream>

#include "core/detector.hpp"
#include "core/eval_engine.hpp"
#include "corpus/corpus.hpp"
#include "datasets/corrbench.hpp"
#include "datasets/mbi.hpp"
#include "datasets/spec.hpp"
#include "io/serialize.hpp"
#include "ml/kfold.hpp"

namespace mpidetect::core {
namespace {

datasets::Dataset small_mbi() {
  datasets::MbiConfig cfg;
  cfg.scale = 0.08;
  return datasets::generate_mbi(cfg);
}

datasets::Dataset small_corr() {
  datasets::CorrConfig cfg;
  cfg.scale = 0.35;
  return datasets::generate_corrbench(cfg);
}

DetectorConfig fast_config() {
  DetectorConfig cfg;
  cfg.ir2vec.use_ga = false;
  cfg.ir2vec.folds = 4;
  cfg.gnn.folds = 2;
  cfg.gnn.cfg.epochs = 2;
  cfg.gnn.cfg.embed_dim = 8;
  cfg.gnn.cfg.layers = {16, 8};
  cfg.gnn.cfg.fc_hidden = 8;
  return cfg;
}

void expect_equal(const ml::Confusion& a, const ml::Confusion& b) {
  EXPECT_EQ(a.tp, b.tp);
  EXPECT_EQ(a.tn, b.tn);
  EXPECT_EQ(a.fp, b.fp);
  EXPECT_EQ(a.fn, b.fn);
  EXPECT_EQ(a.ce, b.ce);
  EXPECT_EQ(a.to, b.to);
  EXPECT_EQ(a.re, b.re);
}

TEST(Registry, ContainsAllBuiltinDetectors) {
  auto& reg = DetectorRegistry::global();
  for (const char* name :
       {"itac", "must", "parcoach", "mpi-checker", "ir2vec", "gnn",
        "itac-sweep", "must-sweep"}) {
    EXPECT_TRUE(reg.contains(name)) << name;
    auto det = reg.create(name);
    ASSERT_NE(det, nullptr) << name;
    EXPECT_FALSE(det->name().empty());
  }
  EXPECT_EQ(reg.names().size(), 8u);
}

TEST(Registry, KindsAndTrainability) {
  auto& reg = DetectorRegistry::global();
  EXPECT_EQ(reg.create("itac")->kind(), DetectorKind::Dynamic);
  EXPECT_EQ(reg.create("must")->kind(), DetectorKind::Dynamic);
  EXPECT_EQ(reg.create("parcoach")->kind(), DetectorKind::Static);
  EXPECT_EQ(reg.create("mpi-checker")->kind(), DetectorKind::Static);
  EXPECT_EQ(reg.create("ir2vec")->kind(), DetectorKind::Learned);
  EXPECT_EQ(reg.create("gnn")->kind(), DetectorKind::Learned);
  EXPECT_FALSE(reg.create("itac")->trainable());
  EXPECT_TRUE(reg.create("ir2vec")->trainable());
  EXPECT_TRUE(reg.create("gnn")->trainable());
}

TEST(Registry, ToolNamesMatchPaper) {
  auto& reg = DetectorRegistry::global();
  EXPECT_EQ(reg.create("itac")->name(), "ITAC");
  EXPECT_EQ(reg.create("must")->name(), "MUST");
  EXPECT_EQ(reg.create("parcoach")->name(), "PARCOACH");
  EXPECT_EQ(reg.create("mpi-checker")->name(), "MPI-Checker");
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(DetectorRegistry::global().create("no-such-detector"),
               ContractViolation);
}

TEST(Registry, DuplicateRegistrationThrows) {
  DetectorRegistry reg;  // fresh instance, built-ins pre-registered
  EXPECT_THROW(reg.add("itac", [](const DetectorConfig&) {
    return DetectorRegistry::global().create("itac");
  }),
               ContractViolation);
}

TEST(Verdict, DiagnosticRoundTrip) {
  for (const auto d :
       {verify::Diagnostic::Correct, verify::Diagnostic::Incorrect,
        verify::Diagnostic::Timeout, verify::Diagnostic::RuntimeErr,
        verify::Diagnostic::CompileErr}) {
    EXPECT_EQ(Verdict::from_diagnostic(d).to_diagnostic(), d);
  }
  EXPECT_TRUE(
      Verdict::from_diagnostic(verify::Diagnostic::Incorrect).flagged());
  EXPECT_FALSE(
      Verdict::from_diagnostic(verify::Diagnostic::Timeout).conclusive());
  EXPECT_TRUE(
      Verdict::from_diagnostic(verify::Diagnostic::Correct).conclusive());
}

TEST(Verdict, OutcomeNamesMatchDiagnosticNames) {
  for (const auto o :
       {Verdict::Outcome::Correct, Verdict::Outcome::Incorrect,
        Verdict::Outcome::Timeout, Verdict::Outcome::RuntimeErr,
        Verdict::Outcome::CompileErr}) {
    Verdict v;
    v.outcome = o;
    EXPECT_EQ(outcome_name(o), diagnostic_name(v.to_diagnostic()));
  }
}

// ---------------------------------------------------------------------------
// Engine vs independent reference implementations: the tests below
// re-implement the original evaluation loops by hand and prove the
// engine reproduces their confusions exactly on a fixed-seed dataset.
// ---------------------------------------------------------------------------

TEST(EvalEngine, SweepMatchesHandRolledToolLoop) {
  const auto ds = small_mbi();
  // Reference: a serial loop over check(), accumulating the MBI-style
  // confusion exactly as the original tool sweep did.
  auto tool = verify::make_parcoach_lite();
  ml::Confusion ref;
  for (const auto& c : ds.cases) {
    switch (tool->check(c)) {
      case verify::Diagnostic::Correct: ref.add(c.incorrect, false); break;
      case verify::Diagnostic::Incorrect: ref.add(c.incorrect, true); break;
      case verify::Diagnostic::Timeout: ++ref.to; break;
      case verify::Diagnostic::RuntimeErr: ++ref.re; break;
      case verify::Diagnostic::CompileErr: ++ref.ce; break;
    }
  }
  EvalEngine engine(4);
  auto det = DetectorRegistry::global().create("parcoach");
  expect_equal(engine.sweep(*det, ds).confusion, ref);
}

TEST(EvalEngine, KfoldMatchesHandRolledLegacyIntraLoop) {
  // Reference: the original IR2vec Intra protocol — stratified folds on
  // the binary labels, per-fold seed = base + fold, single-threaded
  // training on the fold complement, validation on the fold.
  const auto ds = small_mbi();
  const DetectorConfig cfg = fast_config();
  const auto fs = extract_features(ds, cfg.feature_opt, cfg.normalization,
                                   cfg.vocab_seed);
  const auto folds = ml::stratified_kfold(
      fs.y_binary, static_cast<std::size_t>(cfg.ir2vec.folds),
      cfg.ir2vec.seed);
  ml::Confusion ref;
  for (std::size_t f = 0; f < folds.size(); ++f) {
    const auto& val_idx = folds[f];
    std::vector<std::vector<double>> X;
    std::vector<std::size_t> y;
    for (const std::size_t i : ml::fold_complement(val_idx, fs.size())) {
      X.push_back(fs.X[i]);
      y.push_back(fs.y_binary[i]);
    }
    Ir2vecOptions o = cfg.ir2vec;
    o.seed = cfg.ir2vec.seed + f;
    o.threads = 1;
    o.ga.threads = 1;
    const TrainedIr2vec model = train_ir2vec(X, y, o);
    for (const std::size_t i : val_idx) {
      ref.add(fs.incorrect[i], model.predict(fs.X[i]) == 1);
    }
  }

  EvalEngine engine;
  auto det = DetectorRegistry::global().create("ir2vec", cfg);
  expect_equal(engine.kfold(*det, ds).confusion, ref);
}

TEST(EvalEngine, CrossMatchesHandRolledLegacyCrossLoop) {
  // Reference: the original IR2vec Cross protocol — one full-set
  // training run, then a straight prediction pass over the validation
  // embedding.
  const auto mbi = small_mbi();
  const auto corr = small_corr();
  const DetectorConfig cfg = fast_config();
  const auto fs_m = extract_features(mbi, cfg.feature_opt, cfg.normalization,
                                     cfg.vocab_seed);
  const auto fs_c = extract_features(corr, cfg.feature_opt, cfg.normalization,
                                     cfg.vocab_seed);
  const TrainedIr2vec model =
      train_ir2vec(fs_m.X, fs_m.y_binary, cfg.ir2vec);
  ml::Confusion ref;
  for (std::size_t i = 0; i < fs_c.size(); ++i) {
    ref.add(fs_c.incorrect[i], model.predict(fs_c.X[i]) == 1);
  }

  EvalEngine engine;
  auto det = DetectorRegistry::global().create("ir2vec", cfg);
  expect_equal(engine.cross(*det, mbi, corr).confusion, ref);
}

// ---------------------------------------------------------------------------
// Frozen legacy confusions. The engine replaced a set of per-protocol
// free functions (a tool sweep, IR2vec intra/cross/per-label/ablation,
// GNN intra) that took pre-extracted features or graphs. Their results
// on these fixed-seed datasets were recorded before they were removed;
// the engine path must keep reproducing them exactly.
// ---------------------------------------------------------------------------

TEST(EvalEngine, SweepMatchesLegacyEvaluateTool) {
  const auto ds = small_mbi();
  EvalEngine engine(4);
  auto det = DetectorRegistry::global().create("itac");
  const auto report = engine.sweep(*det, ds);
  expect_equal(report.confusion, ml::Confusion{63, 48, 0, 15, 0, 19, 0});
  EXPECT_EQ(report.cases, ds.size());
  EXPECT_EQ(report.verdicts.size(), ds.size());
  EXPECT_EQ(report.confusion.population(), ds.size());
  // The outcome tallies agree with the confusion's error columns.
  EXPECT_EQ(report.outcome_counts[static_cast<std::size_t>(
                Verdict::Outcome::Timeout)],
            report.confusion.to);
}

TEST(EvalEngine, SweepIsSerialParallelInvariant) {
  const auto ds = small_mbi();
  auto det = DetectorRegistry::global().create("must");
  EvalEngine serial(1);
  EvalEngine parallel(4);
  expect_equal(serial.sweep(*det, ds).confusion,
               parallel.sweep(*det, ds).confusion);
}

TEST(EvalEngine, KfoldMatchesLegacyIr2vecIntra) {
  const auto ds = small_mbi();
  EvalEngine engine;
  auto det = DetectorRegistry::global().create("ir2vec", fast_config());
  const auto report = engine.kfold(*det, ds);
  expect_equal(report.confusion, ml::Confusion{59, 38, 21, 27});
  EXPECT_EQ(report.confusion.population(), ds.size());
}

TEST(EvalEngine, CrossMatchesLegacyIr2vecCross) {
  const auto mbi = small_mbi();
  const auto corr = small_corr();
  EvalEngine engine;
  auto det = DetectorRegistry::global().create("ir2vec", fast_config());
  const auto report = engine.cross(*det, mbi, corr);
  expect_equal(report.confusion, ml::Confusion{38, 54, 16, 35});
  EXPECT_EQ(report.confusion.population(), corr.size());
}

TEST(Detector, BatchedRunDoesNotGrowCache) {
  const auto ds = small_mbi();
  DetectorConfig cfg = fast_config();
  cfg.cache = std::make_shared<EncodingCache>();
  auto det = DetectorRegistry::global().create("ir2vec", cfg);
  EvalEngine engine(0, cfg.cache);
  engine.fit_full(*det, ds);
  const auto base = cfg.cache->feature_set_count();
  for (int r = 0; r < 3; ++r) {
    det->run(std::span(ds.cases.data(), 2));  // ad-hoc batches, discarded
  }
  EXPECT_EQ(cfg.cache->feature_set_count(), base);
}

TEST(EvalEngine, KfoldMatchesLegacyGnnIntra) {
  const auto ds = small_mbi();
  EvalEngine engine;
  auto det = DetectorRegistry::global().create("gnn", fast_config());
  const auto report = engine.kfold(*det, ds);
  expect_equal(report.confusion, ml::Confusion{66, 12, 47, 20});
}

TEST(EvalEngine, PerLabelMatchesLegacyIr2vecPerLabel) {
  const auto ds = small_mbi();
  EvalEngine engine;
  auto det = DetectorRegistry::global().create("ir2vec", fast_config());
  EvalOptions eval = det->eval_defaults();
  eval.multiclass = true;
  const auto report = engine.kfold(*det, ds, eval);
  const std::map<std::string, std::pair<std::size_t, std::size_t>> legacy{
      {"Call Ordering", {32, 39}},      {"Correct", {39, 59}},
      {"Epoch Lifecycle", {0, 3}},      {"Global Concurrency", {0, 2}},
      {"Invalid Parameter", {4, 14}},   {"Local Concurrency", {3, 6}},
      {"Message Race", {0, 3}},         {"Parameter Matching", {7, 14}},
      {"Request Lifecycle", {2, 4}},    {"Resource Leak", {0, 1}},
  };
  EXPECT_EQ(report.per_label, legacy);
}

TEST(EvalEngine, AblationMatchesLegacyIr2vecAblation) {
  const auto ds = small_mbi();
  EvalEngine engine;
  auto det = DetectorRegistry::global().create("ir2vec", fast_config());
  const auto r = engine.ablation(*det, ds, {"Call Ordering"}, std::nullopt,
                                 det->eval_defaults());
  EXPECT_EQ(r.detected, 20u);
  EXPECT_EQ(r.total, 39u);
}

TEST(EvalEngine, AblationUnknownLabelThrows) {
  const auto ds = small_mbi();
  EvalEngine engine;
  auto det = DetectorRegistry::global().create("ir2vec", fast_config());
  EXPECT_THROW(engine.ablation(*det, ds, {"No Such Label"}, std::nullopt,
                               det->eval_defaults()),
               ContractViolation);
}

TEST(EvalEngine, EncodingCacheIsSharedAcrossProtocols) {
  const auto ds = small_mbi();
  EvalEngine engine;
  auto det = DetectorRegistry::global().create("ir2vec", fast_config());
  det->use_cache(engine.cache());
  engine.kfold(*det, ds);
  EXPECT_EQ(engine.cache()->feature_set_count(), 1u);
  engine.kfold(*det, ds);  // second protocol run: no re-encoding
  EXPECT_EQ(engine.cache()->feature_set_count(), 1u);
}

TEST(Detector, RunUnfittedLearnedDetectorThrows) {
  const auto ds = small_mbi();
  auto det = DetectorRegistry::global().create("ir2vec", fast_config());
  EXPECT_THROW(det->run(std::span(ds.cases.data(), 1)), ContractViolation);
}

TEST(Detector, ThrowingRunLeavesNoBatchEncodingInTheCache) {
  const auto ds = small_mbi();
  DetectorConfig cfg = fast_config();
  cfg.cache = std::make_shared<EncodingCache>();
  auto det = DetectorRegistry::global().create("ir2vec", cfg);
  EXPECT_THROW(det->run(std::span(ds.cases.data(), 4)), ContractViolation);
  EXPECT_EQ(cfg.cache->feature_set_count(), 0u);
}

TEST(EvalEngine, ThrowingStreamedSweepLeavesNoWindowEncodings) {
  const auto ds = small_mbi();
  const corpus::DatasetSource src(ds);
  EvalEngine engine(2);
  auto det = DetectorRegistry::global().create("ir2vec", fast_config());
  StreamOptions sopts;
  sopts.window = 16;
  EXPECT_THROW(engine.sweep_stream(*det, src, sopts), ContractViolation);
  EXPECT_EQ(engine.cache()->feature_set_count(), 0u);
}

TEST(Detector, BatchedRunMatchesSweep) {
  const auto ds = small_mbi();
  auto det = DetectorRegistry::global().create("parcoach");
  EvalEngine engine;
  const auto report = engine.sweep(*det, ds);
  const auto verdicts = det->run(std::span(ds.cases));
  ASSERT_EQ(verdicts.size(), report.verdicts.size());
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i].outcome, report.verdicts[i].outcome) << i;
  }
}

TEST(Detector, FittedDetectorClassifiesHeldOutBatch) {
  const auto ds = small_mbi();
  auto det = DetectorRegistry::global().create("ir2vec", fast_config());
  EvalEngine engine;
  engine.fit_full(*det, ds);
  const auto verdicts = det->run(std::span(ds.cases.data(), 8));
  ASSERT_EQ(verdicts.size(), 8u);
  for (const auto& v : verdicts) EXPECT_TRUE(v.conclusive());
}

// ---- dataset bindings -------------------------------------------------------
//
// A learned detector binds every prepared dataset to its encoding, so
// evaluate()/run_indexed() skip the cache's whole-dataset fingerprint.
// These tests pin that the bindings never change a verdict (against a
// fresh detector that prepared only the dataset asked about, IEEE-754
// confidences included) and that every entry point that must drop them
// does.

std::string saved_state(const Detector& det) {
  std::ostringstream os;
  io::Writer w(os);
  det.save_state(w);
  return os.str();
}

void restore_state(Detector& det, const std::string& state) {
  std::istringstream is(state);
  io::Reader r(is, "test state");
  det.load_state(r);
}

void expect_identical(const std::vector<Verdict>& got,
                      const std::vector<Verdict>& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].outcome, want[i].outcome) << what << " #" << i;
    EXPECT_EQ(got[i].predicted_label, want[i].predicted_label)
        << what << " #" << i;
    ASSERT_EQ(got[i].confidence.has_value(), want[i].confidence.has_value())
        << what << " #" << i;
    if (got[i].confidence) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(*got[i].confidence),
                std::bit_cast<std::uint64_t>(*want[i].confidence))
          << what << " #" << i;
    }
  }
}

class Bindings : public ::testing::TestWithParam<const char*> {
 protected:
  Bindings()
      : a_(datasets::make_dataset("mbi:0.04@3")),
        b_(datasets::make_dataset("corr:0.15@3")),
        c_(datasets::make_dataset("mbi:0.03@5")) {
    cfg_.cache = cache_;
    det_ = DetectorRegistry::global().create(key(), cfg_);
    EvalEngine engine(2, cache_);
    engine.fit_full(*det_, a_);
    state_ = saved_state(*det_);
  }

  const char* key() const { return GetParam(); }

  std::size_t encodings(const EncodingCache& cache) const {
    return std::string_view(key()) == "gnn" ? cache.graph_set_count()
                                            : cache.feature_set_count();
  }

  /// Verdicts of a fresh detector (own cache) carrying the trained
  /// state, which prepared `ds` alone.
  std::vector<Verdict> reference(const datasets::Dataset& ds,
                                 std::span<const std::size_t> idx) const {
    auto fresh = DetectorRegistry::global().create(key(), fast_config());
    restore_state(*fresh, state_);
    fresh->prepare(ds);
    return fresh->run_indexed(ds, idx);
  }

  void expect_matches_reference(Detector& det, const datasets::Dataset& ds,
                                const std::string& what) const {
    std::vector<std::size_t> idx(ds.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    expect_identical(det.run_indexed(ds, idx), reference(ds, idx), what);
  }

  void prepare_all() {
    for (const auto* ds : {&a_, &b_, &c_}) det_->prepare(*ds);
  }

  datasets::Dataset a_, b_, c_;
  std::shared_ptr<EncodingCache> cache_ = std::make_shared<EncodingCache>();
  DetectorConfig cfg_ = fast_config();
  std::unique_ptr<Detector> det_;
  std::string state_;
};

TEST_P(Bindings, InterleavedBatchesMatchFreshDetectors) {
  prepare_all();
  const datasets::Dataset* order[] = {&a_, &b_, &c_, &a_, &c_, &b_};
  for (std::size_t round = 0; round < 3; ++round) {
    for (const auto* ds : order) {
      const std::vector<std::size_t> idx{round, round + 7,
                                         ds->size() - 1 - round};
      expect_identical(det_->run_indexed(*ds, idx), reference(*ds, idx),
                       ds->name);
      expect_identical({det_->evaluate(*ds, round)},
                       reference(*ds, std::vector<std::size_t>{round}),
                       ds->name + " evaluate");
    }
  }
  EXPECT_EQ(encodings(*cache_), 3u);
}

TEST_P(Bindings, DiscardDropsOnlyThatBinding) {
  prepare_all();
  det_->discard(a_);
  EXPECT_EQ(encodings(*cache_), 2u);
  expect_matches_reference(*det_, b_, "B after discard(A)");
  expect_matches_reference(*det_, c_, "C after discard(A)");
  EXPECT_EQ(encodings(*cache_), 2u);
  // A itself resolves through the cache again.
  expect_matches_reference(*det_, a_, "A after discard(A)");
  EXPECT_EQ(encodings(*cache_), 3u);
}

TEST_P(Bindings, UseCacheReresolvesThroughTheNewCache) {
  prepare_all();
  const auto other = std::make_shared<EncodingCache>();
  det_->use_cache(other);
  std::size_t expected = 0;
  for (const auto* ds : {&a_, &b_, &c_}) {
    expect_matches_reference(*det_, *ds, ds->name + " after use_cache");
    EXPECT_EQ(encodings(*other), ++expected);
  }
}

TEST_P(Bindings, LoadStateReresolvesUnderTheLoadedEncoding) {
  // Bound under a different encoding than the bundle was trained with;
  // the loaded state's options must win for every bound dataset.
  DetectorConfig cfg = fast_config();
  cfg.normalization = ir2vec::Normalization::None;
  cfg.graph_opt = passes::OptLevel::Os;
  cfg.cache = std::make_shared<EncodingCache>();
  auto det = DetectorRegistry::global().create(key(), cfg);
  for (const auto* ds : {&a_, &b_, &c_}) det->prepare(*ds);
  EXPECT_EQ(encodings(*cfg.cache), 3u);
  restore_state(*det, state_);
  for (const auto* ds : {&a_, &b_, &c_}) {
    expect_matches_reference(*det, *ds, ds->name + " after load_state");
  }
  EXPECT_EQ(encodings(*cfg.cache), 6u);
}

TEST_P(Bindings, FitStreamDropsEveryBinding) {
  // A dataset slot whose content is replaced (same address, same size)
  // without a discard(): only a dropped binding notices.
  std::optional<datasets::Dataset> slot(datasets::make_dataset("mbi:0.03@8"));
  const auto replacement = datasets::make_dataset("mbi:0.03@9");
  ASSERT_EQ(slot->size(), replacement.size());
  prepare_all();
  det_->prepare(*slot);
  const std::size_t before = encodings(*cache_);

  const corpus::DatasetSource src(a_);
  std::vector<std::size_t> idx(a_.size()), y(a_.size());
  for (std::size_t i = 0; i < a_.size(); ++i) {
    idx[i] = i;
    y[i] = a_.cases[i].incorrect ? 1 : 0;
  }
  det_->fit_stream(src, idx, y, FitSpec{}, 16);
  slot.emplace(replacement);

  expect_matches_reference(*det_, *slot, "replaced slot after fit_stream");
  EXPECT_EQ(encodings(*cache_), before + 1);  // re-resolved, not stale
  for (const auto* ds : {&a_, &b_, &c_}) {
    expect_matches_reference(*det_, *ds, ds->name + " after fit_stream");
  }
}

TEST_P(Bindings, PrepareRebindsAReusedAddress) {
  std::optional<datasets::Dataset> slot(datasets::make_dataset("mbi:0.03@8"));
  det_->prepare(*slot);
  slot.emplace(datasets::make_dataset("mbi:0.03@9"));
  det_->prepare(*slot);
  expect_matches_reference(*det_, *slot, "re-prepared slot");
}

TEST_P(Bindings, UnpreparedDatasetResolvesThroughTheCache) {
  const auto d = datasets::make_dataset("corr:0.1@11");
  const std::size_t before = encodings(*cache_);
  expect_matches_reference(*det_, d, "never prepared");
  EXPECT_EQ(encodings(*cache_), before + 1);
}

TEST_P(Bindings, GrownDatasetFallsBackToTheCache) {
  datasets::Dataset d = datasets::make_dataset("mbi:0.03@5");
  det_->prepare(d);
  d.cases.push_back(b_.cases.front());  // the case count no longer matches
  expect_matches_reference(*det_, d, "grown after prepare");
}

INSTANTIATE_TEST_SUITE_P(LearnedDetectors, Bindings,
                         ::testing::Values("ir2vec", "gnn"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace mpidetect::core
