// Table IV: IR2vec Intra under every compilation option (-O0/-O2/-Os)
// x normalization (none/vector/index) combination, on both suites. Each
// combination is a differently configured registry detector; the shared
// cache keeps every (dataset, option, normalization) encoding around
// exactly once. Flag --encodings adds the symbolic-only vs
// flow-aware-only ablation called out in DESIGN.md.

#include "bench/common.hpp"
#include "ir2vec/encoder.hpp"

using namespace mpidetect;

namespace {

/// Feature extraction restricted to one encoding half (ablation).
core::FeatureSet half_features(const core::FeatureSet& fs, bool symbolic) {
  core::FeatureSet out = fs;
  const std::size_t half = ir2vec::kDim;
  for (auto& row : out.X) {
    if (symbolic) {
      row.resize(half);
    } else {
      row.erase(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(half));
    }
  }
  return out;
}

/// Runs the Intra protocol over a synthesised feature matrix by seeding
/// the harness cache under the detector's encoding key. `tag` keeps the
/// cache slots of the two half-matrices distinct (they cover identical
/// cases).
ml::Confusion intra_on_features(bench::Harness& h, core::Detector& det,
                                const core::DetectorConfig& cfg,
                                const core::FeatureSet& fs,
                                const std::string& tag) {
  auto skel = core::skeleton_dataset(fs);
  skel.name = tag;
  h.cache()->put_features(skel, cfg.feature_opt, cfg.normalization,
                          cfg.vocab_seed, fs);
  return h.engine().kfold(det, skel).confusion;
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, {"--encodings"});
  const bool encodings = args.has("--encodings");

  const auto mbi = bench::make_mbi(args);
  const auto corr = bench::make_corr(args);
  bench::Harness h(args);

  bench::print_header(
      "Table IV: IR2vec Intra x compilation option x normalization");
  bench::print_paper_note(
      "accuracies 0.907-0.926 (MBI) and 0.909-0.952 (CORR); "
      "optimization level moves accuracy by <= ~5%, normalization by <= 3%");

  Table t({"Option", "Normalization", "Dataset", "TP", "TN", "FP", "FN",
           "Recall", "Precision", "F1", "Accuracy"});
  for (const auto norm : ir2vec::kAllNormalizations) {
    for (const auto lvl : passes::kAllOptLevels) {
      core::DetectorConfig cfg = h.config(/*use_ga=*/false);
      cfg.feature_opt = lvl;
      cfg.normalization = norm;
      auto det = h.detector("ir2vec", cfg);
      for (const auto* ds : {&mbi, &corr}) {
        const auto c = h.engine().kfold(*det, *ds).confusion;
        t.add_row({std::string(passes::opt_level_name(lvl)),
                   std::string(ir2vec::normalization_name(norm)),
                   ds->name == "MBI" ? "MBI" : "CORR",
                   std::to_string(c.tp), std::to_string(c.tn),
                   std::to_string(c.fp), std::to_string(c.fn),
                   fmt_double(c.recall(), 3), fmt_double(c.precision(), 3),
                   fmt_double(c.f1(), 3), fmt_double(c.accuracy(), 3)});
      }
    }
    t.add_separator();
  }
  t.print(std::cout);

  if (encodings) {
    bench::print_header(
        "Ablation: symbolic-only vs flow-aware-only vs concatenated "
        "(-Os, vector, MBI)");
    const core::DetectorConfig cfg = h.config(/*use_ga=*/false);
    auto det = h.detector("ir2vec", cfg);
    const auto& fs = h.cache()->features(mbi, cfg.feature_opt,
                                         cfg.normalization, cfg.vocab_seed);
    Table a({"Encoding", "Accuracy", "F1"});
    const auto sym =
        intra_on_features(h, *det, cfg, half_features(fs, true), "symbolic");
    const auto flow =
        intra_on_features(h, *det, cfg, half_features(fs, false), "flow");
    const auto both = h.engine().kfold(*det, mbi).confusion;
    a.add_row({"symbolic only", fmt_double(sym.accuracy(), 3),
               fmt_double(sym.f1(), 3)});
    a.add_row({"flow-aware only", fmt_double(flow.accuracy(), 3),
               fmt_double(flow.f1(), 3)});
    a.add_row({"concatenated (paper)", fmt_double(both.accuracy(), 3),
               fmt_double(both.f1(), 3)});
    a.print(std::cout);
  }
  return 0;
}
