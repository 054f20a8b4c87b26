// LS3DF benchmark driver.
//
//   ls3df_perfbench --workload <alloy_scf|chain_sharded>
//                   --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//
// With --trace 0 the run measures the end-to-end metrics; with --trace 1
// it repeats the workload's work under the benchmark's own spans and
// reports the per-layer metrics. The last line of standard output is the
// run's JSON record: {"correct", "attempted", "failed", "metrics"}.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

using namespace perfbench;

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "ls3df_perfbench: %s\nusage: ls3df_perfbench --workload W "
               "--seed N --seconds S --trace 0|1 --workdir DIR\n",
               msg);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + k).c_str());
    const char* v = argv[++i];
    if (k == "--workload")
      a.workload = v;
    else if (k == "--seed")
      a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds")
      a.seconds = std::atof(v);
    else if (k == "--trace")
      a.trace = std::strcmp(v, "0") != 0;
    else if (k == "--workdir")
      a.workdir = v;
    else
      usage(("unknown option " + k).c_str());
  }
  if (a.workdir.empty()) usage("--workdir is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");

  now_s();  // start the run clock
  Report r;
  try {
    if (a.workload == "alloy_scf")
      r = run_alloy_scf(a);
    else if (a.workload == "chain_sharded")
      r = run_chain_sharded(a);
    else
      usage(("unknown workload " + a.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ls3df_perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("%s\n", r.json().c_str());
  return 0;
}
