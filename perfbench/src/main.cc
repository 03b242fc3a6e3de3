// fsbench — the fewstate benchmark program.
//
//   fsbench gen --workload W --seed N --dir D [--small]
//       generates the workload's seeded trace and exact oracle into D;
//   fsbench run --workload W --seed N --seconds T --trace 0|1 --dir D
//               [--trace-out FILE] [--small]
//       runs the workload on the inputs in D and prints the result line.
//
// perfbench/run.py builds this binary and drives both steps.

#include <malloc.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "harness.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: fsbench gen --workload W --seed N --dir D [--small]\n"
               "       fsbench run --workload W --seed N --seconds T "
               "--trace 0|1 --dir D [--trace-out FILE] [--small]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  // Fixed allocator thresholds: with glibc's adaptive defaults, whether a
  // freed block goes back to the kernel depends on allocation history, and
  // the page faults of re-acquiring it made repeated set-ups and runs
  // bimodal. Pinned thresholds keep freed memory in the heap, so every
  // repetition does the same work.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 256 << 20);
  const std::string mode = argv[1];
  perfbench::RunArgs args;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      args.small = true;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value);
    } else if (flag == "--trace") {
      args.traced = std::strcmp(value, "0") != 0;
    } else if (flag == "--dir") {
      args.data_dir = value;
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (args.workload.empty() || args.data_dir.empty() || args.seconds <= 0) {
    return Usage();
  }
  const perfbench::WorkloadSpec& spec =
      perfbench::FindWorkload(args.workload, args.small);
  if (mode == "gen") {
    return perfbench::GenerateInputs(spec, args.small, args.seed, args.data_dir);
  }
  if (mode == "run") return perfbench::RunWorkload(args);
  return Usage();
}
