// Shared scaffolding for the experiment binaries: one binary per table /
// figure of the paper. Every binary
//   * regenerates the synthetic MBI / MPI-CorrBench corpora,
//   * runs the experiment at full dataset scale by default,
//   * prints the same rows/columns as the paper artifact plus the
//     paper's reported values for shape comparison,
//   * accepts --quick for a reduced smoke run (CI) and --paper for
//     full-fidelity hyper-parameters where the defaults are reduced
//     (GA population, noted per bench).
//
// All detectors are constructed through core::DetectorRegistry and all
// evaluation runs through one core::EvalEngine per binary (the Harness
// below), so each corpus is encoded once no matter how many detectors
// and protocols consume it.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/detector.hpp"
#include "core/eval_engine.hpp"
#include "datasets/corrbench.hpp"
#include "datasets/mbi.hpp"
#include "ml/metrics.hpp"
#include "support/str.hpp"
#include "support/table.hpp"

namespace mpidetect::bench {

struct BenchArgs {
  bool quick = false;  // reduced scale smoke run
  bool paper = false;  // full paper hyper-parameters (GA 2500x25)
  double scale = 1.0;
  /// On-disk encoding spill shared across bench invocations: with
  /// --cache-dir=DIR every driver that encodes the same corpus at the
  /// same options reuses the embedding instead of recomputing it.
  std::string cache_dir;
  /// The driver's own flags (parse's `extra`) that were given; views
  /// into argv, which outlives every driver's use of them.
  std::vector<std::string_view> flags;

  bool has(std::string_view flag) const {
    return std::find(flags.begin(), flags.end(), flag) != flags.end();
  }

  /// Parses the flags every paper driver shares. `extra` lists the
  /// driver's own flags, which has() reports. Any other argument, or a
  /// --scale that is not a finite number > 0, is a usage error: a
  /// message naming the flag on stderr, then exit 1.
  static BenchArgs parse(int argc, char** argv,
                         std::initializer_list<std::string_view> extra = {}) {
    const auto usage_error = [&](const std::string& msg) {
      std::cerr << argv[0] << ": " << msg << "\nusage: " << argv[0]
                << " [--quick] [--paper] [--scale=X] [--cache-dir=DIR]";
      for (const std::string_view flag : extra) {
        std::cerr << " [" << flag << "]";
      }
      std::cerr << "\n";
      std::exit(1);
    };
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      if (arg == "--quick") {
        args.quick = true;
        args.scale = 0.15;
      } else if (arg == "--paper") {
        args.paper = true;
      } else if (arg.starts_with("--scale=")) {
        const char* text = argv[i] + 8;
        char* end = nullptr;
        const double scale = std::strtod(text, &end);
        if (end == text || *end != '\0' || !std::isfinite(scale) ||
            scale <= 0.0) {
          usage_error("--scale wants a finite number > 0, got '" +
                      std::string(text) + "'");
        }
        args.scale = scale;
      } else if (arg.starts_with("--cache-dir=")) {
        args.cache_dir = argv[i] + 12;
      } else if (std::find(extra.begin(), extra.end(), arg) != extra.end()) {
        args.flags.push_back(arg);
      } else {
        usage_error("unknown flag '" + std::string(arg) + "'");
      }
    }
    return args;
  }
};

inline datasets::Dataset make_mbi(const BenchArgs& args) {
  datasets::MbiConfig cfg;
  cfg.scale = args.scale;
  return datasets::generate_mbi(cfg);
}

inline datasets::Dataset make_corr(const BenchArgs& args,
                                   bool strip_header = true) {
  datasets::CorrConfig cfg;
  cfg.scale = args.scale;
  cfg.strip_header = strip_header;
  return datasets::generate_corrbench(cfg);
}

/// Scaled detector configuration. GA: the paper's 2500x25 under
/// --paper, a reduced 300x12 otherwise (documented divergence; same
/// representation). GNN: the paper's 128/64/32 GATv2 stack under
/// --paper, a 64/32/16 stack otherwise (4.6x faster per step, same
/// shape of results — the width ablation is in table2 --gnn-ablate).
inline core::DetectorConfig detector_config(const BenchArgs& args,
                                            bool use_ga = true) {
  core::DetectorConfig cfg;
  cfg.ir2vec.use_ga = use_ga;
  if (!args.paper) {
    cfg.ir2vec.ga.population = 300;
    cfg.ir2vec.ga.generations = 12;
    cfg.gnn.cfg.embed_dim = 16;
    cfg.gnn.cfg.layers = {64, 32, 16};
    cfg.gnn.cfg.fc_hidden = 16;
    cfg.gnn.cfg.epochs = 6;
  }
  if (args.quick) {
    cfg.ir2vec.folds = 4;
    cfg.ir2vec.ga.population = 60;
    cfg.ir2vec.ga.generations = 4;
    cfg.gnn.folds = 3;
    cfg.gnn.cfg.epochs = 3;
    cfg.gnn.cfg.layers = {32, 16};
  }
  return cfg;
}

/// One evaluation engine plus one shared encoding cache per bench
/// binary: every detector created through the harness reuses the same
/// dataset encodings. With --cache-dir=DIR the cache also spills to
/// disk, so encodings survive across bench binaries and reruns.
class Harness {
 public:
  explicit Harness(const BenchArgs& args)
      : args_(args),
        cache_(std::make_shared<core::EncodingCache>()),
        engine_(0, cache_) {
    if (!args.cache_dir.empty()) cache_->set_spill_dir(args.cache_dir);
  }

  core::EvalEngine& engine() { return engine_; }
  const std::shared_ptr<core::EncodingCache>& cache() const { return cache_; }

  /// The scaled configuration, wired to the shared cache.
  core::DetectorConfig config(bool use_ga = true) const {
    core::DetectorConfig cfg = detector_config(args_, use_ga);
    cfg.cache = cache_;
    return cfg;
  }

  std::unique_ptr<core::Detector> detector(std::string_view name,
                                           bool use_ga = true) const {
    return core::DetectorRegistry::global().create(name, config(use_ga));
  }

  /// Registry construction with a caller-tweaked configuration (the
  /// shared cache is injected).
  std::unique_ptr<core::Detector> detector(
      std::string_view name, const core::DetectorConfig& cfg) const {
    core::DetectorConfig wired = cfg;
    wired.cache = cache_;
    return core::DetectorRegistry::global().create(name, wired);
  }

 private:
  BenchArgs args_;
  std::shared_ptr<core::EncodingCache> cache_;
  core::EvalEngine engine_;
};

/// Standard Table II-style result row.
inline std::vector<std::string> result_row(const std::string& model,
                                           const std::string& train,
                                           const std::string& valid,
                                           const ml::Confusion& c) {
  return {model,
          train,
          valid,
          std::to_string(c.tp),
          std::to_string(c.tn),
          std::to_string(c.fp),
          std::to_string(c.fn),
          fmt_double(c.recall(), 3),
          fmt_double(c.precision(), 3),
          fmt_double(c.f1(), 3),
          fmt_double(c.accuracy(), 3)};
}

inline void print_header(const std::string& title) {
  std::cout << "\n=== " << title << " ===\n";
}

inline void print_paper_note(const std::string& note) {
  std::cout << "paper: " << note << "\n";
}

}  // namespace mpidetect::bench
