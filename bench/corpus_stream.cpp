// Out-of-core corpus pipeline bench: distills a fuzz-drawn corpus into
// .mpcs shards (ingest cases/sec), re-opens and fully verifies it
// (decode cases/sec + the peak-RSS ceiling that proves the reader is
// bounded by a shard, not by the corpus), and times a streamed sweep
// against the in-memory baseline on the same cases (overhead factor,
// gated on bit-identical verdicts — streaming must never change an
// answer to go faster).
//
// Writes the machine-readable BENCH_corpus.json record (schema-checked
// by scripts/check_bench_json.py; format in docs/CORPUS.md). The
// committed record is produced by the full run (50k distilled cases)
// where `--require-win` additionally asserts peak RSS well below the
// corpus size; --quick shrinks to 2k cases for CI smoke, where the
// RSS ratio is meaningless (the process floor dwarfs a tiny corpus).
#include <sys/resource.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench/common.hpp"
#include "core/detector.hpp"
#include "core/eval_engine.hpp"
#include "core/fuzzer.hpp"
#include "corpus/corpus.hpp"
#include "datasets/spec.hpp"

using namespace mpidetect;
using bench::parse_number;
using Clock = std::chrono::steady_clock;

namespace {

namespace fs = std::filesystem;

[[noreturn]] void usage_error(const std::string& msg) {
  std::cerr << "corpus_stream: " << msg
            << "\nusage: corpus_stream [--quick] [--runs=N] [--shard-mb=M] "
               "[--window=N] [--eval=SPEC] [--detector=NAME] [--out=FILE]\n";
  std::exit(1);
}

struct Args {
  bool quick = false;
  int runs = 50'000;
  std::uint64_t shard_mb = 8;
  std::size_t window = 256;
  std::string eval_spec = "mbi:0.2@5";
  std::string detector = "parcoach";
  std::string out = "BENCH_corpus.json";

  static Args parse(int argc, char** argv) {
    Args a;
    try {
      for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) {
          a.quick = true;
          a.runs = 2'000;
          a.shard_mb = 2;
          a.eval_spec = "mbi:0.05@5";
        } else if (std::strncmp(argv[i], "--runs=", 7) == 0) {
          a.runs =
              static_cast<int>(parse_number(argv[i] + 7, "--runs", 1, true));
        } else if (std::strncmp(argv[i], "--shard-mb=", 11) == 0) {
          a.shard_mb = static_cast<std::uint64_t>(
              parse_number(argv[i] + 11, "--shard-mb", 1, true));
        } else if (std::strncmp(argv[i], "--window=", 9) == 0) {
          a.window = static_cast<std::size_t>(
              parse_number(argv[i] + 9, "--window", 1, true));
        } else if (std::strncmp(argv[i], "--eval=", 7) == 0) {
          a.eval_spec = argv[i] + 7;
        } else if (std::strncmp(argv[i], "--detector=", 11) == 0) {
          a.detector = argv[i] + 11;
        } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
          a.out = argv[i] + 6;
        } else {
          usage_error("unknown flag '" + std::string(argv[i]) + "'");
        }
      }
    } catch (const std::invalid_argument& e) {
      usage_error(e.what());
    }
    return a;
  }
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::size_t peak_rss_bytes() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::size_t>(ru.ru_maxrss) * 1024;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = Args::parse(argc, argv);
  const fs::path root = fs::temp_directory_path() / "mpidetect_bench_corpus";
  fs::remove_all(root);
  fs::create_directories(root);

  // ---- phase 1: ingest — fuzz draws distilled straight into shards --------
  core::FuzzConfig fcfg;
  fcfg.seed = 1;
  const core::DifferentialFuzzer fuzzer(fcfg);
  corpus::WriterOptions wopts;
  wopts.max_shard_bytes = args.shard_mb << 20;

  std::cout << "ingest: distilling " << args.runs << " fuzz draws ("
            << args.shard_mb << " MiB shards)...\n";
  const auto t_ingest = Clock::now();
  const corpus::WriteStats stats =
      fuzzer.distill(root / "corpus", args.runs, wopts);
  const double ingest_s = seconds_since(t_ingest);
  const double ingest_rate = static_cast<double>(stats.cases) / ingest_s;
  std::cout << "  " << stats.cases << " cases, " << stats.shards
            << " shards, " << stats.bytes << " bytes in " << ingest_s
            << " s (" << ingest_rate << " cases/s)\n";

  // ---- phase 2: verify — full open-time validation + decode of all --------
  const auto t_verify = Clock::now();
  const corpus::CorpusReader reader(root / "corpus");
  std::size_t decoded = 0;
  reader.for_each([&](std::size_t, const datasets::Case&) { ++decoded; });
  const double verify_s = seconds_since(t_verify);
  const double verify_rate = static_cast<double>(decoded) / verify_s;
  const std::size_t peak_rss = peak_rss_bytes();
  const double rss_over_corpus =
      static_cast<double>(peak_rss) / static_cast<double>(stats.bytes);
  if (decoded != stats.cases) {
    std::cerr << "verify decoded " << decoded << " != ingested "
              << stats.cases << "\n";
    return 1;
  }
  std::cout << "verify: " << decoded << " cases in " << verify_s << " s ("
            << verify_rate << " cases/s), peak RSS " << peak_rss
            << " bytes = " << rss_over_corpus << "x corpus size\n";

  // ---- phase 3: streamed vs in-memory sweep on identical cases ------------
  const auto ds = datasets::make_dataset(args.eval_spec);
  {
    corpus::CorpusWriter w(root / "eval", wopts);
    for (const auto& c : ds.cases) w.add(c);
    w.finish();
  }
  const corpus::CorpusReader eval_src(root / "eval");
  auto& registry = core::DetectorRegistry::global();
  core::StreamOptions sopts;
  sopts.window = args.window;

  core::EvalEngine engine;
  auto mem_det = registry.create(args.detector);
  const auto t_mem = Clock::now();
  const auto in_memory = engine.sweep(*mem_det, ds);
  const double mem_s = seconds_since(t_mem);

  auto stream_det = registry.create(args.detector);
  const auto t_stream = Clock::now();
  const auto streamed = engine.sweep_stream(*stream_det, eval_src, sopts);
  const double stream_s = seconds_since(t_stream);

  bool identical = in_memory.verdicts.size() == streamed.verdicts.size();
  for (std::size_t i = 0; identical && i < in_memory.verdicts.size(); ++i) {
    identical = in_memory.verdicts[i].outcome == streamed.verdicts[i].outcome &&
                in_memory.verdicts[i].predicted_label ==
                    streamed.verdicts[i].predicted_label &&
                in_memory.verdicts[i].confidence ==
                    streamed.verdicts[i].confidence;
  }
  const double overhead = stream_s / mem_s;
  std::cout << "eval (" << args.detector << ", " << ds.size()
            << " cases): in-memory " << mem_s << " s, streamed " << stream_s
            << " s (overhead " << overhead << "x), verdicts "
            << (identical ? "identical" : "DIVERGED") << "\n";
  if (!identical) {
    std::cerr << "streamed sweep diverged from in-memory — not writing a "
                 "record for a broken pipeline\n";
    fs::remove_all(root);
    return 1;
  }

  // ---- record --------------------------------------------------------------
  std::ofstream out(args.out, std::ios::trunc);
  out << "{\n";
  out << "  \"schema_version\": 1,\n";
  out << "  \"benchmark\": \"corpus_stream\",\n";
  out << "  \"config\": {\"runs\": " << args.runs
      << ", \"shard_mb\": " << args.shard_mb
      << ", \"window\": " << args.window << ", \"detector\": \""
      << args.detector << "\", \"eval_spec\": \"" << args.eval_spec
      << "\", \"quick\": " << (args.quick ? "true" : "false") << "},\n";
  out << "  \"ingest\": {\"cases\": " << stats.cases
      << ", \"shards\": " << stats.shards << ", \"bytes\": " << stats.bytes
      << ", \"wall_seconds\": " << ingest_s
      << ", \"cases_per_second\": " << ingest_rate << "},\n";
  out << "  \"verify\": {\"cases\": " << decoded
      << ", \"wall_seconds\": " << verify_s
      << ", \"cases_per_second\": " << verify_rate
      << ", \"peak_rss_bytes\": " << peak_rss
      << ", \"rss_over_corpus\": " << rss_over_corpus << "},\n";
  out << "  \"eval\": {\"cases\": " << ds.size()
      << ", \"in_memory_seconds\": " << mem_s
      << ", \"streamed_seconds\": " << stream_s
      << ", \"overhead\": " << overhead << ", \"verdicts_identical\": "
      << (identical ? "true" : "false") << "}\n";
  out << "}\n";
  out.close();
  std::cout << "wrote " << args.out << "\n";

  fs::remove_all(root);
  return 0;
}
