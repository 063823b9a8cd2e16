// Genetic-algorithm feature selection in the style of pyeasyga, with the
// paper's hyper-parameters (§IV-A): population 2500, 25 generations,
// crossover probability 0.9, mutation probability 0.1, individuals of 5
// feature coordinates; fitness = quality of the downstream prediction
// model on the selected subset. Fitness evaluation is parallelised and
// memoised (individuals repeat across generations).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace mpidetect::ml {

struct GaConfig {
  std::size_t population = 2500;  // paper
  std::size_t generations = 25;   // paper
  double crossover_prob = 0.9;    // paper
  double mutation_prob = 0.1;     // paper
  std::size_t genes = 5;          // features per individual (paper)
  std::size_t tournament = 2;
  std::size_t elitism = 1;
  std::uint64_t seed = 42;
  unsigned threads = 0;  // 0 = the whole pool (resolve_threads)
};

/// Fitness of a candidate feature subset (higher is better). Must be
/// thread-safe: it is called concurrently.
using FitnessFn = std::function<double(const std::vector<std::size_t>&)>;

struct GaResult {
  std::vector<std::size_t> best_features;  // sorted, deduplicated
  double best_fitness = 0.0;
  std::vector<double> best_per_generation;  // convergence curve
};

/// Evolves feature subsets of a `dim`-dimensional space.
GaResult select_features(std::size_t dim, const FitnessFn& fitness,
                         const GaConfig& cfg = {});

}  // namespace mpidetect::ml
