// perfbench: one workload of the repository benchmark per invocation.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Prints host facts and every metric by name with its unit, one per line,
// then, as the last line, one JSON object with the keys correct, attempted,
// failed and metrics (all metrics measured). perfbench/run.py builds this
// program and narrows that last line to the metrics BENCHMARK.json names.
// Exits 1 when an op's output disagrees with the reference model or a
// self-check fails, 2 on bad arguments.
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Options;
using perfbench::Outcome;

const std::map<std::string, Outcome (*)(const Options&)>& workloads() {
  static const std::map<std::string, Outcome (*)(const Options&)> table = {
      {"kv_request", perfbench::run_kv_request},
      {"kv_background", perfbench::run_kv_background},
      {"compile_large", perfbench::run_compile_large},
  };
  return table;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--trace-out <file>]\nworkloads:",
               why);
  for (const auto& [name, fn] : workloads()) std::fprintf(stderr, " %s", name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') usage("--seed takes a whole number");
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(opt.seconds > 0) || opt.seconds > 600) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      opt.trace = value == "1";
      have_trace = true;
    } else if (flag == "--trace-out") {
      opt.trace_path = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (workloads().count(opt.workload) == 0) usage("unknown or missing --workload");
  if (!have_seed || opt.seconds <= 0 || !have_trace) {
    usage("--seed, --seconds and --trace are required");
  }
  if (opt.trace_path.empty()) {
    opt.trace_path = "trace-" + opt.workload + "-seed" + std::to_string(opt.seed) + ".json";
  }
  return opt;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse(argc, argv);
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n", opt.workload.c_str(),
              static_cast<unsigned long long>(opt.seed), opt.seconds, opt.trace ? 1 : 0);
  std::printf("host nproc=%ld build_type=%s jit_available=%d\n", sysconf(_SC_NPROCESSORS_ONLN),
              PERFBENCH_BUILD_TYPE, PRIVAGIC_JIT);
  std::fflush(stdout);

  const Outcome out = workloads().at(opt.workload)(opt);

  for (const auto& m : out.report.metrics()) {
    std::printf("metric %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (opt.trace) std::printf("trace written to %s\n", opt.trace_path.c_str());
  for (const auto& e : out.errors) std::printf("error: %s\n", e.c_str());
  const bool correct = out.errors.empty() && out.failed == 0 && out.attempted > 0;

  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(out.attempted) +
                     ", \"failed\": " + std::to_string(out.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& m : out.report.metrics()) {
    json += (first ? "\"" : ", \"") + m.name + "\": {\"value\": " + json_number(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
