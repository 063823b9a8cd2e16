// Shared plumbing of the benchmark workloads: options, the result
// record printed as the last stdout line, progress lines run.py
// reads after a crash, and the machine fingerprint.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "datasets/dataset.hpp"
#include "ir/module.hpp"
#include "stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Which of the seed's corpora a one-pass workload runs: pass K of a
  /// run uses inputs drawn from derive_seed(seed, 1000 + K).
  std::uint64_t pass = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;     // scratch space for shards, bundles, sockets
  std::string daemon;      // path of the mpiguardd binary
  std::string trace_out;   // Chrome trace JSON (traced run only)
  /// serve_ir2vec: the low, mid and high request rates (1/s) and the
  /// p99 latency limit, frozen in perfbench/config.json.
  std::vector<double> rates;
  double slo_p99_ms = 0.0;
  /// paper_eval: this pass's golden confusions,
  /// "ir2vec_kfold=tp/tn/fp/fn/err,gnn_kfold=...,ir2vec_cross=..."
  /// (empty when config.json has none for the seed).
  std::string golden;

  /// Seed of this pass's inputs.
  std::uint64_t input_seed() const;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Human-readable extras (per-protocol accuracies, per-rate latency,
  /// fingerprint), printed as "info" lines before the result line.
  std::vector<std::pair<std::string, std::string>> info;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string key, std::string value) {
    info.emplace_back(std::move(key), std::move(value));
  }
  /// Records a failed check: the run is no longer correct.
  void fail(const std::string& why, std::uint64_t ops);
};

/// Prints the info lines, then the one-line JSON record.
void print_result(const Result& r);

/// "planned ops=N" line: operations this process has taken on so far.
/// If it dies, run.py counts every one not yet answered as failed.
void planned(std::uint64_t ops);

/// "progress attempted=N failed=M" line: operations answered so far.
void progress(std::uint64_t attempted, std::uint64_t failed);

/// Ends a traced run: writes the Chrome trace (when asked for) and adds
/// one info line per span name with its count, total and self time.
void finish_trace(const Options& opt, Result& r);

/// Machine and build fingerprint lines, added to every record.
void add_fingerprint(Result& r);

/// Minor page faults and system CPU seconds of this process so far.
struct ProcessCounters {
  long minor_faults = 0;
  double sys_s = 0, user_s = 0;
};
ProcessCounters process_counters();

/// Peak resident set of this process, in MiB (VmHWM).
double self_peak_rss_mb();
/// Peak resident set of another live process, in MiB (0 if unreadable).
double pid_peak_rss_mb(int pid);

using Clock = std::chrono::steady_clock;
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::string fmt(double v);

/// Derives an independent 64-bit seed for `stream` from the workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Per-case stage replay of the traced runs: each case is lowered with
/// progmodel::lower, then run through passes::run_pipeline at O0 and at
/// Os (two lowerings), each call spanned and timed. `after_o0` and
/// `after_os` see the optimised modules (for encoders, the simulator).
struct StageTimes {
  double cases = 0, lower_ns = 0, insts = 0;
  double o0_ns = 0, insts_o0 = 0, os_ns = 0, insts_os = 0;
  /// Adds progmodel.* and passes.* per-case means to `r`.
  void add_metrics(Result& r) const;
};
StageTimes replay_lowering(const std::vector<mpidetect::datasets::Case>& cases,
                           const std::function<void(mpidetect::ir::Module&)>& after_o0,
                           const std::function<void(mpidetect::ir::Module&)>& after_os);

Result run_paper_eval(const Options& opt);
Result run_fuzz_corpus(const Options& opt);
Result run_serve_ir2vec(const Options& opt);

}  // namespace perfbench
