#include "common.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "core/eval_engine.hpp"
#include "ml/kernels.hpp"
#include "passes/pipelines.hpp"
#include "progmodel/lower.hpp"
#include "trace.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_GIT_COMMIT
#define PERFBENCH_GIT_COMMIT "unknown"
#endif

namespace perfbench {

std::uint64_t Options::input_seed() const { return derive_seed(seed, 1000 + pass); }

void Result::fail(const std::string& why, std::uint64_t ops) {
  correct = false;
  failed += ops;
  note("check_failed", why);
  std::cerr << "perfbench: check failed: " << why << "\n";
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

namespace {

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

double status_kb(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) {
      std::istringstream ls(line.substr(key.size()));
      double kb = 0.0;
      ls >> kb;
      return kb;
    }
  }
  return 0.0;
}

}  // namespace

void print_result(const Result& r) {
  for (const auto& [k, v] : r.info) std::cout << "info " << k << " " << v << "\n";
  std::ostringstream o;
  o << "{\"correct\": " << (r.correct ? "true" : "false")
    << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
    << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    o << (i ? ", " : "") << json_str(m.name) << ": {\"value\": " << fmt(m.value)
      << ", \"unit\": " << json_str(m.unit) << "}";
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

void planned(std::uint64_t ops) {
  std::cout << "planned ops=" << ops << std::endl;
}

void progress(std::uint64_t attempted, std::uint64_t failed) {
  std::cout << "progress attempted=" << attempted << " failed=" << failed
            << std::endl;
}

void finish_trace(const Options& opt, Result& r) {
  const auto spans = trace::collect();
  if (!opt.trace_out.empty()) {
    if (!trace::write_chrome(opt.trace_out, spans)) {
      r.fail("could not write " + opt.trace_out, 0);
    }
    r.note("trace_file", opt.trace_out);
  }
  std::vector<std::pair<std::string, trace::NameStats>> rows;
  for (const auto& kv : trace::by_name(spans)) rows.push_back(kv);
  std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
    return a.second.self_ns > b.second.self_ns;
  });
  for (const auto& [name, s] : rows) {
    r.note("span." + name, "count=" + std::to_string(s.count) +
                               " total_ms=" + fmt(s.total_ns / 1e6) +
                               " self_ms=" + fmt(s.self_ns / 1e6));
  }
}

void add_fingerprint(Result& r) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int affinity =
      sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : -1;
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  namespace k = mpidetect::ml::kernels;
  // A throwaway engine reports the width EvalEngine resolves by default.
  const mpidetect::core::EvalEngine engine;
  r.note("fingerprint.nproc_online", std::to_string(online));
  r.note("fingerprint.sched_getaffinity_cpus", std::to_string(affinity));
  r.note("fingerprint.hardware_concurrency",
         std::to_string(std::thread::hardware_concurrency()));
  r.note("fingerprint.eval_engine_threads", std::to_string(engine.threads()));
  r.note("fingerprint.kernel_effective_threads",
         std::to_string(k::effective_threads(0)));
  r.note("fingerprint.isa", k::isa_name(k::active_isa()));
  r.note("fingerprint.build_type", PERFBENCH_BUILD_TYPE);
  r.note("fingerprint.git_commit", PERFBENCH_GIT_COMMIT);
}

ProcessCounters process_counters() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  ProcessCounters c;
  c.minor_faults = ru.ru_minflt;
  c.sys_s = static_cast<double>(ru.ru_stime.tv_sec) + 1e-6 * ru.ru_stime.tv_usec;
  c.user_s = static_cast<double>(ru.ru_utime.tv_sec) + 1e-6 * ru.ru_utime.tv_usec;
  return c;
}

double self_peak_rss_mb() {
  return status_kb("/proc/self/status", "VmHWM:") / 1024.0;
}

double pid_peak_rss_mb(int pid) {
  return status_kb("/proc/" + std::to_string(pid) + "/status", "VmHWM:") /
         1024.0;
}

StageTimes replay_lowering(const std::vector<mpidetect::datasets::Case>& cases,
                           const std::function<void(mpidetect::ir::Module&)>& after_o0,
                           const std::function<void(mpidetect::ir::Module&)>& after_os) {
  using namespace mpidetect;
  StageTimes st;
  for (const auto& c : cases) {
    trace::Span s("case");
    for (const auto level : {passes::OptLevel::O0, passes::OptLevel::Os}) {
      const bool o0 = level == passes::OptLevel::O0;
      auto a = trace::now_ns();
      std::unique_ptr<ir::Module> m;
      {
        trace::Span l("progmodel.lower");
        m = progmodel::lower(c.program);
      }
      auto b = trace::now_ns();
      if (o0) {
        st.lower_ns += static_cast<double>(b - a);
        st.insts += static_cast<double>(m->instruction_count());
      }
      {
        trace::Span l(o0 ? "passes.run_pipeline.O0" : "passes.run_pipeline.Os");
        passes::run_pipeline(*m, level);
      }
      a = trace::now_ns();
      (o0 ? st.o0_ns : st.os_ns) += static_cast<double>(a - b);
      (o0 ? st.insts_o0 : st.insts_os) += static_cast<double>(m->instruction_count());
      if (o0 && after_o0) after_o0(*m);
      if (!o0 && after_os) after_os(*m);
    }
    st.cases += 1;
  }
  return st;
}

void StageTimes::add_metrics(Result& r) const {
  const double n = std::max(1.0, cases);
  r.add("progmodel.lower_us", lower_ns / n / 1e3, "us");
  r.add("progmodel.ir_insts", insts / n, "count");
  r.add("passes.pipeline_us.O0", o0_ns / n / 1e3, "us");
  r.add("passes.pipeline_us.Os", os_ns / n / 1e3, "us");
  r.add("passes.ir_insts_after.O0", insts_o0 / n, "count");
  r.add("passes.ir_insts_after.Os", insts_os / n, "count");
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 over (seed, stream).
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + stream * 0xbf58476d1ce4e5b9ull +
                    0x94d049bb133111ebull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace perfbench
