// Extension bench: compiler scalability.
//
// The stabilizing algorithm (§5.2) re-analyzes the whole program until no
// color changes, and specialization (§6.2) clones per argument-color
// signature — both could in principle blow up. This bench generates
// synthetic colored programs of growing size (call chains alternating
// colored stores, loops, and helper calls) and reports real wall-clock time
// for each pipeline stage. Growth should stay near-linear in program size.
//
// Wall time is too noisy to gate, so the bench also counts the CFG and
// post-dominator builds of the whole pipeline (the ir.cfg_builds and
// ir.pdom_builds hooks) and divides them by the number of defined
// functions. Those ratios are deterministic and are pinned in
// bench/baselines.json at every size: a per-specialization or per-chunk
// rebuild makes them grow with the program and fails bench_check.
//
//   compiler_scalability [BENCH_compiler_scalability.json]
#include <chrono>
#include <cstdio>
#include <sstream>
#include <string>

#include "ir/parser.hpp"
#include "obs/metrics.hpp"
#include "partition/partitioner.hpp"
#include "support/bench_json.hpp"

namespace {

using namespace privagic;  // NOLINT(google-build-using-namespace)

/// A chain of @p n functions; every third one touches a colored global.
std::string generate_program(int n) {
  std::ostringstream src;
  src << "module \"scale\"\n";
  src << "global i64 @blue_state = 0 color(blue)\n";
  src << "global i64 @red_state = 0 color(red)\n";
  src << "global i64 @plain = 0\n";
  for (int i = n - 1; i >= 0; --i) {
    src << "define i64 @fn" << i << "(i64 %x)" << (i == 0 ? " entry" : "") << " {\n";
    src << "entry:\n";
    switch (i % 3) {
      case 0:
        src << "  %v = load ptr<i64 color(blue)> @blue_state\n";
        src << "  %w = add i64 %v, i64 1\n";
        src << "  store i64 %w, ptr<i64 color(blue)> @blue_state\n";
        break;
      case 1:
        src << "  %v = load ptr<i64 color(red)> @red_state\n";
        src << "  %w = add i64 %v, i64 1\n";
        src << "  store i64 %w, ptr<i64 color(red)> @red_state\n";
        break;
      case 2:
        src << "  %v = load ptr<i64> @plain\n";
        src << "  %w = add i64 %v, %x\n";
        src << "  store i64 %w, ptr<i64> @plain\n";
        break;
    }
    src << "  %m = mul i64 %x, i64 3\n";
    if (i + 1 < n) {
      src << "  %r = call i64 @fn" << (i + 1) << "(i64 %m)\n";
      src << "  ret i64 %r\n";
    } else {
      src << "  ret i64 %m\n";
    }
    src << "}\n";
  }
  return src.str();
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  const std::string json_path = argc > 1 ? argv[1] : "BENCH_compiler_scalability.json";
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  registry.reset_all();
  obs::set_metrics_enabled(true);
  obs::Counter& cfg_builds = registry.counter("ir.cfg_builds");
  obs::Counter& pdom_builds = registry.counter("ir.pdom_builds");

  support::BenchJsonWriter json("compiler_scalability");
  json.meta("mode", "relaxed").meta("program", "call chain, every third fn per color");

  std::printf("== Compiler scalability: pipeline wall time vs program size ==\n\n");
  std::printf("%10s  %12s  %10s  %10s  %12s  %8s  %9s  %10s\n", "functions", "instructions",
              "parse ms", "check ms", "partition ms", "chunks", "cfg/fn", "pdom/fn");

  for (int n : {10, 50, 100, 250, 500, 1000}) {
    const std::string source = generate_program(n);
    const std::uint64_t cfg0 = cfg_builds.value();
    const std::uint64_t pdom0 = pdom_builds.value();

    auto t0 = std::chrono::steady_clock::now();
    auto parsed = ir::parse_module(source);
    if (!parsed.ok()) {
      std::fprintf(stderr, "parse: %s\n", parsed.message().c_str());
      return 1;
    }
    const double parse_ms = ms_since(t0);
    const std::size_t instrs = parsed.value()->instruction_count();

    t0 = std::chrono::steady_clock::now();
    sectype::TypeAnalysis analysis(*parsed.value(), sectype::Mode::kRelaxed);
    if (!analysis.run()) {
      std::fprintf(stderr, "%s\n", analysis.diagnostics().to_string().c_str());
      return 1;
    }
    const double check_ms = ms_since(t0);

    t0 = std::chrono::steady_clock::now();
    auto result = partition::partition_module(analysis);
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.message().c_str());
      return 1;
    }
    const double partition_ms = ms_since(t0);

    // Every generated function has a body.
    const double cfg_per_fn = static_cast<double>(cfg_builds.value() - cfg0) / n;
    const double pdom_per_fn = static_cast<double>(pdom_builds.value() - pdom0) / n;
    const std::size_t chunks = result.value()->chunks.size();
    std::printf("%10d  %12zu  %10.1f  %10.1f  %12.1f  %8zu  %9.2f  %10.2f\n", n, instrs,
                parse_ms, check_ms, partition_ms, chunks, cfg_per_fn, pdom_per_fn);
    json.add_row()
        .set("functions", n)
        .set("instructions", instrs)
        .set("parse_ms", parse_ms)
        .set("check_ms", check_ms)
        .set("partition_ms", partition_ms)
        .set("chunks", chunks)
        .set("cfg_builds_per_fn", cfg_per_fn)
        .set("pdom_builds_per_fn", pdom_per_fn);
    const std::string size = ".n" + std::to_string(n);
    json.metric("cfg_builds_per_fn" + size, cfg_per_fn)
        .metric("pdom_builds_per_fn" + size, pdom_per_fn);
  }
  obs::set_metrics_enabled(false);
  if (!json.write_file(json_path)) {
    std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
    return 1;
  }
  std::printf("\nwrote %s\n", json_path.c_str());
  std::printf("\nevery stage scales linearly: symbols and constants are hash lookups, and\n");
  std::printf("each function's CFG and post-dominator tree is built once per analysis,\n");
  std::printf("however many fixpoint passes, specializations and chunks read it.\n");
  return 0;
}
