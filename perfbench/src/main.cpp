// perfbench: the repository's benchmark program.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --out <dir> [--param key=value ...]
//
// Runs one workload in this process and prints, as the last line of
// standard output, {"correct", "attempted", "failed", "metrics"}. The result
// file <dir>/<workload>-seed<n>-trace<t>.json adds the environment block,
// failure counts by code and per-matrix details; traced runs also write
// their spans beside it. perfbench/run.py builds this binary and passes the
// workload's fixed parameters from perfbench/workloads.json.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>

#include "common.hpp"
#include "layers.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr, "perfbench: %s\n", msg);
  std::exit(2);
}

pb::RunArgs parse(int argc, char** argv) {
  pb::RunArgs a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    if (key == "--workload") a.workload = val;
    else if (key == "--seed") a.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") a.seconds = std::atof(val.c_str());
    else if (key == "--trace") a.trace = val == "1";
    else if (key == "--out") a.out_dir = val;
    else if (key == "--param") {
      const auto eq = val.find('=');
      if (eq == std::string::npos) usage("--param wants key=value");
      a.params[val.substr(0, eq)] = val.substr(eq + 1);
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (a.workload.empty() || a.out_dir.empty()) usage("--workload and --out are required");
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const pb::RunArgs args = parse(argc, argv);
  pb::tracer().enable(args.trace);
  const std::string env = pb::environment_json(args);
  std::fprintf(stderr, "perfbench environment: %s\n", env.c_str());
  if (!pb::release_build())
    std::fprintf(stderr, "perfbench: WARNING: not a Release build; timings are not comparable\n");

  pb::Result r;
  try {
    if (args.workload == "square") pb::run_square(args, r);
    else if (args.workload == "serve_mix") pb::run_serve_mix(args, r);
    else usage(("unknown workload " + args.workload).c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  if (args.trace) {
    pb::report_common_layers(r);
    pb::fill_unexercised_layers(r);
    pb::tracer().print_table();
  }

  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" + (args.trace ? "1" : "0");
  std::ofstream(stem + ".json") << r.full_json(env);
  if (args.trace) pb::tracer().write(stem + ".spans.jsonl");

  std::printf("%s\n", r.summary_json().c_str());
  return r.correct() ? 0 : 3;
}
