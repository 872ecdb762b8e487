// kacc_hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints a metric table, then one JSON result line as the last line of
// stdout. kacc's own log lines (drift warnings among them) go to stderr.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: kacc_hostbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:");
  for (const std::string& w : hostbench::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  hostbench::RunConfig cfg;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) {
        return usage();
      }
      const std::string v = argv[++i];
      if (a == "--workload") {
        cfg.workload = v;
      } else if (a == "--seed") {
        cfg.seed = std::stoull(v);
      } else if (a == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (a == "--trace") {
        cfg.trace = std::stoi(v) != 0;
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (cfg.workload.empty() || !(cfg.seconds > 0 && cfg.seconds <= 120)) {
    return usage();
  }
  try {
    const hostbench::Outcome o = hostbench::run_workload(cfg);
    hostbench::print_table(cfg.workload + (cfg.trace ? " (traced)" : ""),
                           o.metrics);
    std::printf("%s\n",
                hostbench::result_json(o.correct, o.attempted, o.failed,
                                       o.metrics)
                    .c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "kacc_hostbench: %s\n", e.what());
    return 1;
  }
}
