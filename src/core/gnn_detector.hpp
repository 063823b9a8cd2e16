// The GNN detector's (Figure 5) options. The paper's protocols run it
// as core::GnnDetector through core::EvalEngine (core/eval_engine.hpp),
// on binary correct/incorrect labels. Fold parallelism is EvalEngine's
// (each fold owns an independent model).
#pragma once

#include "core/features.hpp"
#include "ml/gnn.hpp"

namespace mpidetect::core {

struct GnnOptions {
  ml::GnnConfig cfg;       // classes is overwritten per protocol
  int folds = 10;
  std::uint64_t seed = 2;
};

}  // namespace mpidetect::core
