#include "core/eval_engine.hpp"

#include <chrono>

#include "ml/kernels.hpp"
#include "ml/kfold.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/threads.hpp"

namespace mpidetect::core {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::vector<std::size_t> select(std::span<const std::size_t> values,
                                const std::vector<std::size_t>& idx) {
  std::vector<std::size_t> out;
  out.reserve(idx.size());
  for (const std::size_t i : idx) out.push_back(values[i]);
  return out;
}

}  // namespace

EvalEngine::EvalEngine(unsigned threads, std::shared_ptr<EncodingCache> cache)
    : threads_(resolve_threads(threads)),
      cache_(cache ? std::move(cache) : std::make_shared<EncodingCache>()) {}

std::size_t EvalEngine::LabelTable::index_of(const std::string& name) const {
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (names[i] == name) return i;
  }
  throw ContractViolation("unknown label: " + name);
}

EvalEngine::LabelTable EvalEngine::label_table(const datasets::Dataset& ds) {
  LabelTable t;
  t.index_per_case.reserve(ds.size());
  for (const auto& c : ds.cases) {
    const std::string name = c.label_name();
    std::size_t idx = t.names.size();
    for (std::size_t i = 0; i < t.names.size(); ++i) {
      if (t.names[i] == name) {
        idx = i;
        break;
      }
    }
    if (idx == t.names.size()) t.names.push_back(name);
    t.index_per_case.push_back(idx);
  }
  return t;
}

std::vector<std::size_t> EvalEngine::binary_labels(
    const datasets::Dataset& ds) {
  std::vector<std::size_t> y;
  y.reserve(ds.size());
  for (const auto& c : ds.cases) y.push_back(c.incorrect ? 1 : 0);
  return y;
}

void EvalEngine::evaluate_all(Detector& det, const datasets::Dataset& ds,
                              std::vector<Verdict>& verdicts) {
  verdicts.resize(ds.size());
  if (det.parallel_eval_safe()) {
    parallel_for(ds.size(), threads_,
                 [&](std::size_t i) { verdicts[i] = det.evaluate(ds, i); });
  } else {
    for (std::size_t i = 0; i < ds.size(); ++i) {
      verdicts[i] = det.evaluate(ds, i);
    }
  }
}

EvalReport EvalEngine::make_report(Detector& det, std::string protocol,
                                   const datasets::Dataset& train,
                                   const datasets::Dataset& valid,
                                   std::vector<Verdict> verdicts,
                                   bool multiclass) {
  EvalReport r;
  r.detector = std::string(det.name());
  r.protocol = std::move(protocol);
  r.train_dataset = train.name;
  r.valid_dataset = valid.name;
  r.cases = valid.size();

  const LabelTable labels = label_table(valid);
  for (std::size_t i = 0; i < valid.size(); ++i) {
    const Verdict& v = verdicts[i];
    const bool truth = valid.cases[i].incorrect;
    ++r.outcome_counts[static_cast<std::size_t>(v.outcome)];
    switch (v.outcome) {
      case Verdict::Outcome::Correct: r.confusion.add(truth, false); break;
      case Verdict::Outcome::Incorrect: r.confusion.add(truth, true); break;
      case Verdict::Outcome::Timeout: ++r.confusion.to; break;
      case Verdict::Outcome::RuntimeErr: ++r.confusion.re; break;
      case Verdict::Outcome::CompileErr: ++r.confusion.ce; break;
    }
    auto& [correct, total] = r.per_label[labels.names[labels.index_per_case[i]]];
    ++total;
    if (multiclass) {
      correct += (v.predicted_label.has_value() &&
                  *v.predicted_label == labels.index_per_case[i]);
    } else {
      correct += (v.conclusive() && v.flagged() == truth);
    }
  }
  r.verdicts = std::move(verdicts);
  return r;
}

EvalReport EvalEngine::sweep(Detector& det, const datasets::Dataset& ds) {
  const auto t0 = Clock::now();
  det.use_cache(cache_);
  det.prepare(ds, threads_);
  std::vector<Verdict> verdicts;
  evaluate_all(det, ds, verdicts);
  EvalReport r = make_report(det, "sweep", ds, ds, std::move(verdicts),
                             /*multiclass=*/false);
  r.wall_seconds = seconds_since(t0);
  return r;
}

EvalReport EvalEngine::kfold(Detector& det, const datasets::Dataset& ds) {
  return kfold(det, ds, det.eval_defaults());
}

EvalReport EvalEngine::kfold(Detector& det, const datasets::Dataset& ds,
                             const EvalOptions& opts) {
  const auto t0 = Clock::now();
  det.use_cache(cache_);
  det.prepare(ds, threads_);

  if (!det.trainable()) {
    // Nothing to train per fold: the protocol degenerates to a sweep.
    std::vector<Verdict> verdicts;
    evaluate_all(det, ds, verdicts);
    EvalReport r = make_report(det, "kfold", ds, ds, std::move(verdicts),
                               /*multiclass=*/false);
    r.wall_seconds = seconds_since(t0);
    return r;
  }

  const LabelTable labels = label_table(ds);
  const std::vector<std::size_t> y =
      opts.multiclass ? labels.index_per_case : binary_labels(ds);
  std::vector<std::vector<std::size_t>> folds;
  if (opts.hash_folds) {
    // Hashed assignment (corpus::fold_of): each case's fold depends only
    // on its name — the assignment the streamed k-fold uses, made
    // available here so the two paths are comparable bit for bit.
    folds.assign(static_cast<std::size_t>(opts.folds), {});
    for (std::size_t i = 0; i < ds.size(); ++i) {
      folds[corpus::fold_of(fnv1a64(ds.cases[i].name), folds.size(),
                            opts.seed)]
          .push_back(i);
    }
  } else {
    folds = ml::stratified_kfold(y, static_cast<std::size_t>(opts.folds),
                                 opts.seed);
  }

  std::vector<Verdict> verdicts(ds.size());
  const auto run_fold = [&](std::size_t f, const FitSpec& spec) {
    if (folds[f].empty()) return;  // possible under hashed assignment
    // A forced per-fold thread budget also caps the dense-math kernels
    // (ml/kernels.hpp) for the whole fold — training AND validation —
    // so they take their serial path directly; a fold running on the
    // pool would run any nested pool call inline anyway.
    ml::kernels::ScopedKernelThreads kernel_scope(
        spec.threads != 0 ? spec.threads : ml::kernels::kernel_threads());
    const auto& val_idx = folds[f];
    const auto train_idx = ml::fold_complement(val_idx, ds.size());
    auto fold_det = det.clone();
    fold_det->use_cache(cache_);
    fold_det->fit(ds, train_idx, select(y, train_idx), spec);
    for (const std::size_t i : val_idx) {
      verdicts[i] = fold_det->evaluate(ds, i);
    }
  };

  if (opts.multiclass) {
    // The per-label protocol trains folds serially with the detector's
    // own thread budget (matching the original per-label protocol).
    for (std::size_t f = 0; f < folds.size(); ++f) {
      run_fold(f, FitSpec{f, 0, true});
    }
  } else {
    // Folds are independent: train them in parallel, each fold capped at
    // one training thread to avoid oversubscribing the pool.
    parallel_for(folds.size(), threads_,
                 [&](std::size_t f) { run_fold(f, FitSpec{f, 1, false}); });
  }

  EvalReport r = make_report(det, "kfold", ds, ds, std::move(verdicts),
                             opts.multiclass);
  r.wall_seconds = seconds_since(t0);
  return r;
}

EvalReport EvalEngine::make_report_stream(Detector& det, std::string protocol,
                                          const corpus::CaseSource& src,
                                          std::vector<Verdict> verdicts) {
  EvalReport r;
  r.detector = std::string(det.name());
  r.protocol = std::move(protocol);
  r.train_dataset = src.name();
  r.valid_dataset = src.name();
  r.cases = src.size();

  // Same tallies as make_report, fed from index metadata: labels and
  // ground truth never require decoding a case. per_label is an
  // ordered map, so first-occurrence order of labels is irrelevant.
  for (std::size_t i = 0; i < src.size(); ++i) {
    const Verdict& v = verdicts[i];
    const bool truth = src.incorrect(i);
    ++r.outcome_counts[static_cast<std::size_t>(v.outcome)];
    switch (v.outcome) {
      case Verdict::Outcome::Correct: r.confusion.add(truth, false); break;
      case Verdict::Outcome::Incorrect: r.confusion.add(truth, true); break;
      case Verdict::Outcome::Timeout: ++r.confusion.to; break;
      case Verdict::Outcome::RuntimeErr: ++r.confusion.re; break;
      case Verdict::Outcome::CompileErr: ++r.confusion.ce; break;
    }
    auto& [correct, total] = r.per_label[src.label_name(i)];
    ++total;
    correct += (v.conclusive() && v.flagged() == truth);
  }
  r.verdicts = std::move(verdicts);
  return r;
}

void EvalEngine::evaluate_stream(Detector& det, const corpus::CaseSource& src,
                                 std::span<const std::size_t> idx,
                                 std::size_t window,
                                 std::vector<Verdict>& verdicts) {
  MPIDETECT_EXPECTS(window > 0);
  MPIDETECT_EXPECTS(verdicts.size() >= src.size());
  for (std::size_t b = 0; b < idx.size(); b += window) {
    const std::size_t end = std::min(idx.size(), b + window);
    datasets::Dataset win;
    win.name = src.name() + ":window";
    win.cases.reserve(end - b);
    for (std::size_t k = b; k < end; ++k) win.cases.push_back(src.load(idx[k]));
    // Window encodings must not accumulate, even when evaluate() throws.
    const ScopedPrepare prepared(det, win, threads_);
    if (det.parallel_eval_safe()) {
      parallel_for(win.size(), threads_, [&](std::size_t j) {
        verdicts[idx[b + j]] = det.evaluate(win, j);
      });
    } else {
      for (std::size_t j = 0; j < win.size(); ++j) {
        verdicts[idx[b + j]] = det.evaluate(win, j);
      }
    }
  }
}

EvalReport EvalEngine::sweep_stream(Detector& det,
                                    const corpus::CaseSource& src,
                                    const StreamOptions& sopts) {
  const auto t0 = Clock::now();
  det.use_cache(cache_);
  std::vector<std::size_t> all_idx(src.size());
  for (std::size_t i = 0; i < src.size(); ++i) all_idx[i] = i;
  std::vector<Verdict> verdicts(src.size());
  evaluate_stream(det, src, all_idx, sopts.window, verdicts);
  EvalReport r = make_report_stream(det, "sweep", src, std::move(verdicts));
  r.wall_seconds = seconds_since(t0);
  return r;
}

EvalReport EvalEngine::kfold_stream(Detector& det,
                                    const corpus::CaseSource& src,
                                    const EvalOptions& opts,
                                    const StreamOptions& sopts) {
  const auto t0 = Clock::now();
  if (opts.multiclass) {
    throw ContractViolation(
        "EvalEngine: streamed k-fold is binary-only (the per-label protocol "
        "needs the global label table up front)");
  }
  det.use_cache(cache_);
  const std::size_t n = src.size();

  if (!det.trainable()) {
    EvalReport r = sweep_stream(det, src, sopts);
    r.protocol = "kfold";
    r.wall_seconds = seconds_since(t0);
    return r;
  }

  // Hashed fold assignment from index metadata only.
  const std::size_t k = static_cast<std::size_t>(opts.folds);
  std::vector<std::size_t> fold_of_case(n);
  std::vector<std::size_t> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    fold_of_case[i] = corpus::fold_of(src.case_id(i), k, opts.seed);
    y[i] = src.incorrect(i) ? 1 : 0;
  }

  std::vector<Verdict> verdicts(n);
  for (std::size_t f = 0; f < k; ++f) {
    std::vector<std::size_t> train_idx, val_idx, train_y;
    for (std::size_t i = 0; i < n; ++i) {
      if (fold_of_case[i] == f) {
        val_idx.push_back(i);
      } else {
        train_idx.push_back(i);
        train_y.push_back(y[i]);
      }
    }
    if (val_idx.empty()) continue;
    // Same per-fold budget as the in-memory protocol (whose folds run
    // in parallel at one training thread each); here folds run serially
    // — out-of-core corpora trade wall-clock for bounded residency.
    const FitSpec spec{f, 1, false};
    ml::kernels::ScopedKernelThreads kernel_scope(1);
    auto fold_det = det.clone();
    fold_det->use_cache(cache_);
    fold_det->fit_stream(src, train_idx, train_y, spec, sopts.window);
    evaluate_stream(*fold_det, src, val_idx, sopts.window, verdicts);
  }

  EvalReport r = make_report_stream(det, "kfold", src, std::move(verdicts));
  r.wall_seconds = seconds_since(t0);
  return r;
}

EvalReport EvalEngine::cross(Detector& det, const datasets::Dataset& train,
                             const datasets::Dataset& valid) {
  return cross(det, train, valid, det.eval_defaults());
}

EvalReport EvalEngine::cross(Detector& det, const datasets::Dataset& train,
                             const datasets::Dataset& valid,
                             const EvalOptions& opts) {
  (void)opts;  // cross has no folds; kept for signature symmetry
  const auto t0 = Clock::now();
  fit_full(det, train);
  det.prepare(valid, threads_);
  std::vector<Verdict> verdicts;
  evaluate_all(det, valid, verdicts);
  EvalReport r = make_report(det, "cross", train, valid, std::move(verdicts),
                             /*multiclass=*/false);
  r.wall_seconds = seconds_since(t0);
  return r;
}

EvalReport EvalEngine::cross_stream(Detector& det,
                                    const corpus::CaseSource& train,
                                    const corpus::CaseSource& valid,
                                    const StreamOptions& sopts) {
  const auto t0 = Clock::now();
  det.use_cache(cache_);
  if (det.trainable()) {
    std::vector<std::size_t> all_idx(train.size());
    std::vector<std::size_t> y(train.size());
    for (std::size_t i = 0; i < train.size(); ++i) {
      all_idx[i] = i;
      y[i] = train.incorrect(i) ? 1 : 0;
    }
    // Same FitSpec as fit_full (no fold, default thread budget), so the
    // trained model matches the in-memory cross() bit for bit.
    det.fit_stream(train, all_idx, y, FitSpec{}, sopts.window);
  }
  std::vector<std::size_t> val_idx(valid.size());
  for (std::size_t i = 0; i < valid.size(); ++i) val_idx[i] = i;
  std::vector<Verdict> verdicts(valid.size());
  evaluate_stream(det, valid, val_idx, sopts.window, verdicts);
  EvalReport r = make_report_stream(det, "cross", valid, std::move(verdicts));
  r.train_dataset = train.name();
  r.wall_seconds = seconds_since(t0);
  return r;
}

void EvalEngine::fit_full(Detector& det, const datasets::Dataset& ds) {
  det.use_cache(cache_);
  det.prepare(ds, threads_);
  if (!det.trainable()) return;
  std::vector<std::size_t> all_idx(ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) all_idx[i] = i;
  const auto y = binary_labels(ds);
  det.fit(ds, all_idx, y, FitSpec{});
}

AblationReport EvalEngine::ablation(Detector& det, const datasets::Dataset& ds,
                                    const std::vector<std::string>& excluded,
                                    const std::optional<std::string>& measured,
                                    const EvalOptions& opts) {
  const auto t0 = Clock::now();
  det.use_cache(cache_);
  det.prepare(ds, threads_);

  const LabelTable labels = label_table(ds);
  std::vector<bool> is_excluded(ds.size(), false);
  std::vector<bool> is_measured(ds.size(), false);
  for (const auto& name : excluded) {
    const std::size_t label = labels.index_of(name);
    for (std::size_t i = 0; i < ds.size(); ++i) {
      if (labels.index_per_case[i] == label) {
        is_excluded[i] = true;
        if (!measured.has_value() || name == *measured) is_measured[i] = true;
      }
    }
  }

  const auto y = binary_labels(ds);
  const auto folds = ml::stratified_kfold(
      y, static_cast<std::size_t>(opts.folds), opts.seed);

  AblationReport r;
  for (std::size_t f = 0; f < folds.size(); ++f) {
    const auto& val_idx = folds[f];
    std::vector<std::size_t> train_idx;
    for (const std::size_t i : ml::fold_complement(val_idx, ds.size())) {
      if (!is_excluded[i]) train_idx.push_back(i);  // never train on them
    }
    auto fold_det = det.clone();
    fold_det->use_cache(cache_);
    fold_det->fit(ds, train_idx, select(y, train_idx), FitSpec{f, 0, false});
    for (const std::size_t i : val_idx) {
      if (!is_measured[i]) continue;
      ++r.total;
      r.detected += fold_det->evaluate(ds, i).flagged();
    }
  }
  r.wall_seconds = seconds_since(t0);
  return r;
}

}  // namespace mpidetect::core
