// Table II: end results of both models (IR2vec + DT, ProGraML + GATv2)
// on the three datasets — Intra (10-fold CV per suite), Cross (train on
// one suite, validate on the other), and Mix. Both detectors come out
// of the DetectorRegistry and every protocol runs through EvalEngine,
// so each corpus is embedded exactly once.
//
// Flags: --quick (reduced), --paper (GA 2500x25), --gnn-ablate (extra
// ablation rows: narrower GATv2 stack, single-layer depth check).

#include "bench/common.hpp"

using namespace mpidetect;

int main(int argc, char** argv) {
  const auto args = bench::BenchArgs::parse(argc, argv, {"--gnn-ablate"});
  const bool gnn_ablate = args.has("--gnn-ablate");

  const auto mbi = bench::make_mbi(args);
  const auto corr = bench::make_corr(args);
  const auto mixed = datasets::mix(mbi, corr);

  bench::print_header("Table II: model end results (binary labels)");
  bench::print_paper_note(
      "IR2vec Intra MBI acc 0.917 / CORR 0.923; IR2vec Cross MBI->CORR "
      "0.860 / CORR->MBI 0.713; IR2vec Mix 0.882; GNN Intra MBI 0.914 / "
      "CORR 0.803; GNN Cross MBI->CORR 0.858 / CORR->MBI 0.605; GNN Mix "
      "0.911");

  Table t({"Model", "Training", "Validation", "TP", "TN", "FP", "FN",
           "Recall", "Precision", "F1", "Accuracy"});

  bench::Harness h(args);
  auto& engine = h.engine();

  // --- IR2vec ---------------------------------------------------------------
  auto ir2vec = h.detector("ir2vec");
  t.add_row(bench::result_row("IR2vec Intra", "MBI", "MBI",
                              engine.kfold(*ir2vec, mbi).confusion));
  t.add_row(bench::result_row("IR2vec Intra", "CORR", "CORR",
                              engine.kfold(*ir2vec, corr).confusion));
  t.add_row(bench::result_row("IR2vec Cross", "MBI", "CORR",
                              engine.cross(*ir2vec, mbi, corr).confusion));
  t.add_row(bench::result_row("IR2vec Cross", "CORR", "MBI",
                              engine.cross(*ir2vec, corr, mbi).confusion));
  t.add_row(bench::result_row("IR2vec Mix", "MBI+CORR", "MBI+CORR",
                              engine.kfold(*ir2vec, mixed).confusion));
  t.add_separator();

  // --- GNN --------------------------------------------------------------------
  auto gnn = h.detector("gnn");
  t.add_row(bench::result_row("GNN Intra", "MBI", "MBI",
                              engine.kfold(*gnn, mbi).confusion));
  t.add_row(bench::result_row("GNN Intra", "CORR", "CORR",
                              engine.kfold(*gnn, corr).confusion));
  t.add_row(bench::result_row("GNN Cross", "MBI", "CORR",
                              engine.cross(*gnn, mbi, corr).confusion));
  t.add_row(bench::result_row("GNN Cross", "CORR", "MBI",
                              engine.cross(*gnn, corr, mbi).confusion));
  t.add_row(bench::result_row("GNN Mix", "MBI+CORR", "MBI+CORR",
                              engine.kfold(*gnn, mixed).confusion));

  if (gnn_ablate) {
    t.add_separator();
    // Ablation 1: same depth but narrower GATv2 stack (design check of
    // the 128/64/32 choice).
    core::DetectorConfig narrow_cfg = h.config();
    narrow_cfg.gnn.cfg.layers = {32, 16, 8};
    auto narrow = h.detector("gnn", narrow_cfg);
    t.add_row(bench::result_row("GNN narrow(32/16/8)", "MBI", "MBI",
                                engine.kfold(*narrow, mbi).confusion));
    // Ablation 2: one layer only (depth ablation).
    core::DetectorConfig shallow_cfg = h.config();
    shallow_cfg.gnn.cfg.layers = {128};
    auto shallow = h.detector("gnn", shallow_cfg);
    t.add_row(bench::result_row("GNN 1-layer", "MBI", "MBI",
                                engine.kfold(*shallow, mbi).confusion));
  }

  t.print(std::cout);
  return 0;
}
