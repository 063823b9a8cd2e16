#include "ml/genetic.hpp"

#include <algorithm>
#include <map>
#include <mutex>

#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/threads.hpp"

namespace mpidetect::ml {

namespace {

using Individual = std::vector<std::size_t>;

Individual random_individual(Rng& rng, std::size_t dim, std::size_t genes) {
  Individual ind(genes);
  for (auto& g : ind) g = rng.index(dim);
  return ind;
}

Individual canonical(Individual ind) {
  std::sort(ind.begin(), ind.end());
  ind.erase(std::unique(ind.begin(), ind.end()), ind.end());
  return ind;
}

}  // namespace

GaResult select_features(std::size_t dim, const FitnessFn& fitness,
                         const GaConfig& cfg) {
  MPIDETECT_EXPECTS(dim > 0 && cfg.genes > 0 && cfg.population >= 2);
  Rng rng(cfg.seed);

  std::vector<Individual> pop;
  pop.reserve(cfg.population);
  for (std::size_t i = 0; i < cfg.population; ++i) {
    pop.push_back(random_individual(rng, dim, cfg.genes));
  }

  // Memoised, parallel fitness evaluation.
  std::map<Individual, double> cache;
  std::mutex cache_mutex;

  const auto evaluate_all =
      [&](const std::vector<Individual>& gen) -> std::vector<double> {
    // Collect individuals that still need evaluation.
    std::vector<const Individual*> todo;
    {
      std::lock_guard<std::mutex> lock(cache_mutex);
      for (const Individual& ind : gen) {
        const Individual key = canonical(ind);
        if (cache.find(key) == cache.end()) {
          cache.emplace(key, -1.0);  // reserve
        }
      }
      for (const auto& [key, value] : cache) {
        if (value < 0.0) todo.push_back(&key);
      }
    }
    std::vector<std::pair<const Individual*, double>> results(todo.size());
    parallel_for(todo.size(), cfg.threads, [&](std::size_t i) {
      results[i] = {todo[i], fitness(*todo[i])};
    });
    std::vector<double> out(gen.size());
    {
      std::lock_guard<std::mutex> lock(cache_mutex);
      for (const auto& [key, value] : results) {
        if (key != nullptr) cache[*key] = value;
      }
      for (std::size_t i = 0; i < gen.size(); ++i) {
        out[i] = cache.at(canonical(gen[i]));
      }
    }
    return out;
  };

  GaResult res;
  std::vector<double> fit = evaluate_all(pop);

  const auto best_of = [&](const std::vector<double>& f) {
    return static_cast<std::size_t>(
        std::max_element(f.begin(), f.end()) - f.begin());
  };

  for (std::size_t gen = 0; gen < cfg.generations; ++gen) {
    const std::size_t best_idx = best_of(fit);
    res.best_per_generation.push_back(fit[best_idx]);

    std::vector<Individual> next_pop;
    next_pop.reserve(cfg.population);
    for (std::size_t e = 0; e < cfg.elitism; ++e) {
      next_pop.push_back(pop[best_idx]);
    }
    const auto tournament_pick = [&]() -> const Individual& {
      std::size_t winner = rng.index(pop.size());
      for (std::size_t t = 1; t < cfg.tournament; ++t) {
        const std::size_t challenger = rng.index(pop.size());
        if (fit[challenger] > fit[winner]) winner = challenger;
      }
      return pop[winner];
    };
    while (next_pop.size() < cfg.population) {
      Individual a = tournament_pick();
      Individual b = tournament_pick();
      if (rng.chance(cfg.crossover_prob) && cfg.genes > 1) {
        const std::size_t cut = 1 + rng.index(cfg.genes - 1);
        for (std::size_t k = cut; k < cfg.genes; ++k) std::swap(a[k], b[k]);
      }
      for (Individual* child : {&a, &b}) {
        if (rng.chance(cfg.mutation_prob)) {
          (*child)[rng.index(cfg.genes)] = rng.index(dim);
        }
        if (next_pop.size() < cfg.population) {
          next_pop.push_back(*child);
        }
      }
    }
    pop = std::move(next_pop);
    fit = evaluate_all(pop);
  }

  const std::size_t best_idx = best_of(fit);
  res.best_per_generation.push_back(fit[best_idx]);
  res.best_fitness = fit[best_idx];
  res.best_features = canonical(pop[best_idx]);
  return res;
}

}  // namespace mpidetect::ml
