// Entry point of one benchmark repetition: build a workload, run it on both
// clocks and report its metrics as one JSON object (see rig.h).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RepOptions {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  std::string spans_path;  // traced runs write their spans here at exit
};

// The workloads run_rep accepts, in the order BENCHMARK.json lists them.
const std::vector<std::string>& workload_names();

// Runs one repetition in this process. Throws std::invalid_argument for an
// unknown workload.
std::string run_rep(const RepOptions& options);

}  // namespace perfbench
