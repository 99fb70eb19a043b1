// One repetition of one workload, printed as a JSON object on stdout.
// run.py launches a fresh process per repetition so that every repetition
// starts from the same memory baseline.
//
//   escra_perfbench --workload NAME --seed N [--trace 0|1] [--spans FILE]
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: escra_perfbench --workload NAME --seed N "
               "[--trace 0|1] [--spans FILE]\nworkloads:");
  for (const std::string& name : perfbench::workload_names()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RepOptions options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      char* end = nullptr;
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage();
      have_seed = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage();
      options.traced = value == "1";
    } else if (flag == "--spans") {
      options.spans_path = value;
    } else {
      return usage();
    }
  }
  if (options.workload.empty() || !have_seed) return usage();
  try {
    std::printf("%s\n", perfbench::run_rep(options).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "escra_perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
