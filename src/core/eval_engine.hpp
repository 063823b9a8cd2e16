// The one evaluation engine behind every bench, example and test: the
// cross-cutting protocols the paper runs each detector through (straight
// dataset sweeps, Intra/Mix stratified k-fold CV, Cross suite-transfer,
// and the label-exclusion ablations of §V-E), thread-parallel over the
// process-wide pool (support/threads.hpp), with dataset encodings
// cached so each corpus is embedded once per run no matter how many
// detectors consume it.
#pragma once

#include <array>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "corpus/corpus.hpp"
#include "ml/metrics.hpp"

namespace mpidetect::core {

/// Structured result of one protocol run. `confusion` is what legacy
/// ml::Confusion consumers read; the rest adds the per-label breakdown,
/// the raw verdicts and the error-outcome tallies of Table III.
struct EvalReport {
  std::string detector;
  std::string protocol;  // "sweep" / "kfold" / "cross"
  std::string train_dataset;
  std::string valid_dataset;

  ml::Confusion confusion;
  /// Tallies indexed by Verdict::Outcome (Correct..CompileErr).
  std::array<std::size_t, kNumOutcomes> outcome_counts{};
  /// Label -> (correctly classified, total) over the validation set.
  /// Under a multiclass protocol "correct" means the exact label was
  /// predicted; otherwise that the binary flag matched.
  std::map<std::string, std::pair<std::size_t, std::size_t>> per_label;
  /// One verdict per validation case, in dataset order.
  std::vector<Verdict> verdicts;

  std::size_t cases = 0;
  double wall_seconds = 0.0;
};

/// Result of a label-exclusion ablation (Figures 8 and 9).
struct AblationReport {
  std::size_t detected = 0;  // excluded-label samples still flagged
  std::size_t total = 0;     // excluded-label samples evaluated
  double wall_seconds = 0.0;

  double rate() const {
    return total == 0 ? 0.0 : static_cast<double>(detected) / total;
  }
};

/// Knobs of the streamed (out-of-core) protocol variants.
struct StreamOptions {
  /// Cases materialized at a time during evaluation and windowed
  /// feature extraction. Peak resident cases per protocol stage is one
  /// window (plus one mmapped shard inside CorpusReader).
  std::size_t window = 256;
};

class EvalEngine {
 public:
  /// \brief Builds the engine with its parallel width and cache.
  /// \param threads how many threads of the process-wide pool the
  ///        protocols may use; 0 = all of them (resolve_threads).
  /// \param cache encoding cache shared with the detectors'
  ///        DetectorConfig so each corpus is embedded once per run
  ///        (null allocates a private one). Give the cache a spill
  ///        directory (EncodingCache::set_spill_dir) to also reuse
  ///        encodings across processes.
  explicit EvalEngine(unsigned threads = 0,
                      std::shared_ptr<EncodingCache> cache = nullptr);

  const std::shared_ptr<EncodingCache>& cache() const { return cache_; }
  unsigned threads() const { return threads_; }

  /// \brief Straight dataset sweep: every case through the detector
  /// once (the expert-tool protocol; also what `mpiguard predict` runs
  /// against a loaded bundle).
  /// \pre a Learned detector must be fitted — or restored via
  ///      DetectorRegistry::load_bundle — first.
  /// \return per-case verdicts in dataset order plus aggregates.
  EvalReport sweep(Detector& det, const datasets::Dataset& ds);

  /// \brief Stratified k-fold cross-validation (the Intra and Mix
  /// protocols of Table II; Figure 6 when `opts.multiclass`).
  ///
  /// Trainable detectors are cloned per fold and trained on the fold
  /// complement (folds run in parallel on the shared pool, each capped
  /// at one training thread); untrainable detectors degenerate to a
  /// sweep. The overload without options uses the detector's
  /// eval_defaults() (the paper's fold count and seed).
  EvalReport kfold(Detector& det, const datasets::Dataset& ds,
                   const EvalOptions& opts);
  EvalReport kfold(Detector& det, const datasets::Dataset& ds);

  /// \brief Streamed dataset sweep: like sweep(), but cases come from a
  /// CaseSource (typically an on-disk .mpcs corpus) and are materialized
  /// StreamOptions::window at a time — evaluate, tally, discard. For a
  /// source yielding the same cases in the same order, verdicts and
  /// confusion matrices are bit-identical to sweep()'s
  /// (tests/corpus_eval_test.cpp); peak case residency is one window
  /// regardless of corpus size.
  EvalReport sweep_stream(Detector& det, const corpus::CaseSource& src,
                          const StreamOptions& sopts = {});

  /// \brief Streamed stratified-free k-fold over a CaseSource: folds are
  /// assigned by hashed case id (corpus::fold_of — the assignment reads
  /// only per-case metadata, so no fold ever materializes the corpus),
  /// trainable detectors are cloned per fold and trained through
  /// Detector::fit_stream, and validation runs window at a time.
  ///
  /// Bit-identical to the in-memory kfold() with opts.hash_folds set,
  /// over the same cases in the same order. Binary protocol only
  /// (multiclass needs the global label table up front); folds run
  /// serially — out-of-core corpora trade wall-clock for residency.
  /// \throws ContractViolation when opts.multiclass is set.
  EvalReport kfold_stream(Detector& det, const corpus::CaseSource& src,
                          const EvalOptions& opts,
                          const StreamOptions& sopts = {});

  /// \brief Suite transfer (the Cross protocol of §V-C): train on all
  /// of `train`, validate on all of `valid`.
  /// \post `det` is left fitted — follow with save_bundle to persist
  ///       the transferred model.
  EvalReport cross(Detector& det, const datasets::Dataset& train,
                   const datasets::Dataset& valid, const EvalOptions& opts);
  EvalReport cross(Detector& det, const datasets::Dataset& train,
                   const datasets::Dataset& valid);

  /// \brief Streamed suite transfer: train on all of `train` through
  /// Detector::fit_stream, validate over `valid` window at a time.
  /// Bit-identical to cross() over the same cases in the same order;
  /// binary labels only (like the in-memory protocol).
  /// \post `det` is left fitted, as with cross().
  EvalReport cross_stream(Detector& det, const corpus::CaseSource& train,
                          const corpus::CaseSource& valid,
                          const StreamOptions& sopts = {});

  /// \brief Trains `det` on the full dataset with binary labels (the
  /// front half of cross(); what `mpiguard train` runs before saving).
  void fit_full(Detector& det, const datasets::Dataset& ds);

  /// \brief Label-exclusion ablation (Figures 8, 9): k-fold CV never
  /// training on samples of `excluded` labels.
  /// \param measured count detections only over this excluded label
  ///        (all excluded labels when nullopt).
  /// \return how many excluded-label samples the binary model still
  ///         flags at validation, over how many were evaluated.
  /// \throws ContractViolation for labels absent from the dataset.
  AblationReport ablation(Detector& det, const datasets::Dataset& ds,
                          const std::vector<std::string>& excluded,
                          const std::optional<std::string>& measured,
                          const EvalOptions& opts);

 private:
  struct LabelTable {
    std::vector<std::string> names;           // first-occurrence order
    std::vector<std::size_t> index_per_case;  // case -> names index
    std::size_t index_of(const std::string& name) const;
  };
  static LabelTable label_table(const datasets::Dataset& ds);
  static std::vector<std::size_t> binary_labels(const datasets::Dataset& ds);

  /// Evaluates `det` over the index range [0, n) of `ds`, in parallel
  /// when the detector allows it, into `verdicts` (indexed by case).
  void evaluate_all(Detector& det, const datasets::Dataset& ds,
                    std::vector<Verdict>& verdicts);

  EvalReport make_report(Detector& det, std::string protocol,
                         const datasets::Dataset& train,
                         const datasets::Dataset& valid,
                         std::vector<Verdict> verdicts, bool multiclass);

  /// make_report over source metadata (labels and ground truth read
  /// from the index, never from decoded cases).
  EvalReport make_report_stream(Detector& det, std::string protocol,
                                const corpus::CaseSource& src,
                                std::vector<Verdict> verdicts);

  /// Evaluates `det` over the cases at `idx`, materialized `window` at
  /// a time, into `verdicts` (indexed by position in `idx`).
  void evaluate_stream(Detector& det, const corpus::CaseSource& src,
                       std::span<const std::size_t> idx, std::size_t window,
                       std::vector<Verdict>& verdicts);

  unsigned threads_;
  std::shared_ptr<EncodingCache> cache_;
};

}  // namespace mpidetect::core
