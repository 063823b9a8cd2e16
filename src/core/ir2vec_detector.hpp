// The IR2vec + decision-tree detector's (Figure 4) options and trainer:
// a DT fitted on the IR2vec rows, with GA feature selection (§IV-A)
// applied per training set when enabled. The paper's protocols run it
// as core::Ir2vecDetector through core::EvalEngine
// (core/eval_engine.hpp).
#pragma once

#include <cstdint>

#include "core/features.hpp"
#include "ml/decision_tree.hpp"
#include "ml/genetic.hpp"

namespace mpidetect::core {

struct Ir2vecOptions {
  bool use_ga = true;
  ml::GaConfig ga;           // paper defaults (population 2500, 25 gens)
  int folds = 10;            // paper's cross-validation protocol
  std::uint64_t seed = 1;    // fold assignment + GA fitness split
  unsigned threads = 0;      // 0 = hardware concurrency
};

/// Trains a DT (optionally on GA-selected features) on the given rows.
/// Exposed for the Hypre case study and the examples.
struct TrainedIr2vec {
  ml::DecisionTree tree;
  std::vector<std::size_t> selected_features;  // empty = all
  std::size_t predict(const std::vector<double>& row) const;
};

TrainedIr2vec train_ir2vec(const std::vector<std::vector<double>>& X,
                           const std::vector<std::size_t>& y,
                           const Ir2vecOptions& opts);

}  // namespace mpidetect::core
