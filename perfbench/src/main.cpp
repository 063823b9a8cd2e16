// mpbench: runs one benchmark workload and prints its result record as
// the last line of standard output. perfbench/run.py builds and drives
// it; see perfbench/README.md.
//
//   mpbench --workload paper_eval|fuzz_corpus|serve_ir2vec --seed N
//           [--pass K] --seconds S --trace 0|1 --workdir DIR
//           [--daemon PATH] [--trace-out FILE] [--rates LOW,MID,HIGH]
//           [--slo-p99-ms MS] [--golden NAME=CONFUSION,...]
#include <cstring>
#include <exception>
#include <filesystem>
#include <iostream>
#include <sstream>
#include <string>

#include "common.hpp"

using namespace perfbench;

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "mpbench: " << a << " needs a value\n";
      return 2;
    }
    const std::string v = argv[++i];
    if (a == "--workload") opt.workload = v;
    else if (a == "--seed") opt.seed = std::stoull(v);
    else if (a == "--pass") opt.pass = std::stoull(v);
    else if (a == "--seconds") opt.seconds = std::stod(v);
    else if (a == "--trace") opt.trace = v == "1";
    else if (a == "--workdir") opt.workdir = v;
    else if (a == "--daemon") opt.daemon = v;
    else if (a == "--trace-out") opt.trace_out = v;
    else if (a == "--rates") {
      std::istringstream in(v);
      for (std::string r; std::getline(in, r, ',');) opt.rates.push_back(std::stod(r));
    } else if (a == "--slo-p99-ms") opt.slo_p99_ms = std::stod(v);
    else if (a == "--golden") opt.golden = v;
    else {
      std::cerr << "mpbench: unknown option " << a << "\n";
      return 2;
    }
  }
  if (opt.workdir.empty()) {
    std::cerr << "mpbench: --workdir is required\n";
    return 2;
  }
  try {
    std::filesystem::create_directories(opt.workdir);
    Result r;
    if (opt.workload == "paper_eval") r = run_paper_eval(opt);
    else if (opt.workload == "fuzz_corpus") r = run_fuzz_corpus(opt);
    else if (opt.workload == "serve_ir2vec") r = run_serve_ir2vec(opt);
    else {
      std::cerr << "mpbench: unknown workload '" << opt.workload << "'\n";
      return 2;
    }
    add_fingerprint(r);
    print_result(r);
  } catch (const std::exception& e) {
    std::cerr << "mpbench: " << opt.workload << " aborted: " << e.what() << "\n";
    return 3;
  }
  return 0;
}
