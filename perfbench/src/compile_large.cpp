// compile_large: seeded synthetic colored modules of ~1,000 functions, each
// op one module through parse -> type check -> partition -> Machine
// construction -> one run of its entry function -> teardown.
//
// The generator follows bench/compiler_scalability's shape (call chains of
// colored and plain functions) and adds loops, with colored stores inside
// some of them. Every seed gives the same multiset of function kinds, so
// modules of different seeds cost the same to compile; the seed only shuffles
// the order and picks the constants. The entry's result folds in the state
// the functions leave behind, so the reference check covers the colored
// loads and stores as well as the arithmetic. Modules compile in hardened
// mode, the mode of the kvcache request path.
#include <algorithm>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "interp/machine.hpp"
#include "support/rng.hpp"

namespace perfbench {
namespace {

using namespace privagic;  // NOLINT(google-build-using-namespace)

constexpr int kChains = 40;
constexpr int kChainLength = 25;  // kChains * kChainLength functions + the entry
constexpr std::size_t kPool = 4;  // distinct modules, compiled in turn
constexpr int kSetupReps = 4;     // one on each CPU of a 4-CPU host
constexpr int kSetupsBefore = 2;  // made before measuring; the rest after
constexpr int kTraceBlocks = 3;  // untraced/traced block pairs in a traced run
// latency_tail_us is this percentile. A run makes only about a hundred ops,
// twenty or so per CPU, so a p99 would be its slowest op.
constexpr double kTailQ = 0.90;

// The function kinds, in equal numbers: a straight-line body that updates
// blue, red or plain (U) state, or a loop that does so on every trip.
enum Kind : int { kBlue, kRed, kPlain, kLoopBlue, kLoopRed, kLoopPlain, kKinds };

/// The state a function of @p k updates: kBlue, kRed or kPlain.
Kind state_of(Kind k) { return k >= kLoopBlue ? static_cast<Kind>(k - kLoopBlue) : k; }

// @main's result weighs the blue and red update counts with distinct odd
// factors, so an update routed to the wrong color changes it.
constexpr std::uint64_t kBlueWeight = 0x9E3779B97F4A7C15ull;
constexpr std::uint64_t kRedWeight = 0xC2B2AE3D27D4EB4Full;

struct FnPlan {
  Kind kind = kPlain;
  std::uint64_t mul = 1;
  std::uint64_t add = 0;
  std::uint64_t mask = 0;
  int trips = 0;  // loop kinds only
  int next = -1;  // the callee in the chain, -1 at its tail
};

struct Module {
  std::string source;
  std::vector<FnPlan> fns;
  std::vector<int> heads;  // first function of each chain
  std::int64_t input = 0;
  std::int64_t expected = 0;
};

/// The globals a run of @main leaves behind: blue and red count their
/// updates, plain sums the argument of every plain update.
struct State {
  std::uint64_t blue = 0;
  std::uint64_t red = 0;
  std::uint64_t plain = 0;
};

/// Reference semantics of one generated function, written from the plan
/// (never from the interpreter): PIR i64 arithmetic wraps like uint64_t.
/// Returns the function's result and applies its state updates to @p st.
std::uint64_t eval(const std::vector<FnPlan>& fns, int i, std::uint64_t x, State& st) {
  const FnPlan& f = fns[static_cast<std::size_t>(i)];
  const bool loop = f.kind >= kLoopBlue;
  const auto updates = static_cast<std::uint64_t>(loop ? f.trips : 1);
  switch (state_of(f.kind)) {
    case kBlue: st.blue += updates; break;
    case kRed: st.red += updates; break;
    default: st.plain += x * updates; break;
  }
  std::uint64_t n = x;
  for (std::uint64_t t = 0; t < updates; ++t) n = n * f.mul + f.add;
  const std::uint64_t r = f.next >= 0 ? eval(fns, f.next, n, st) : n;
  return r ^ f.mask;
}

void emit_state_update(std::ostringstream& src, Kind kind, const char* indent) {
  const Kind state = state_of(kind);
  if (state != kPlain) {
    const char* c = state == kBlue ? "blue" : "red";
    src << indent << "%v = load ptr<i64 color(" << c << ")> @" << c << "_state\n"
        << indent << "%w = add i64 %v, i64 1\n"
        << indent << "store i64 %w, ptr<i64 color(" << c << ")> @" << c << "_state\n";
  } else {
    src << indent << "%v = load ptr<i64> @plain\n"
        << indent << "%w = add i64 %v, %x\n"
        << indent << "store i64 %w, ptr<i64> @plain\n";
  }
}

Module generate(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Module m;
  const int n = kChains * kChainLength;
  std::vector<Kind> kinds(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) kinds[static_cast<std::size_t>(i)] = static_cast<Kind>(i % kKinds);
  for (int i = n - 1; i > 0; --i) {
    std::swap(kinds[static_cast<std::size_t>(i)],
              kinds[rng.next_below(static_cast<std::uint64_t>(i) + 1)]);
  }
  m.fns.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    FnPlan& f = m.fns[static_cast<std::size_t>(i)];
    f.kind = kinds[static_cast<std::size_t>(i)];
    f.mul = (rng.next() & 0xFFFF) | 1;
    f.add = rng.next() & 0xFFFFFF;
    f.mask = rng.next() & 0xFFFFFFFF;
    f.trips = 2 + static_cast<int>(rng.next_below(4));
    f.next = (i + 1) % kChainLength == 0 ? -1 : i + 1;
    if (i % kChainLength == 0) m.heads.push_back(i);
  }
  m.input = static_cast<std::int64_t>(rng.next() & 0xFFFFFFFF);

  std::ostringstream src;
  src << "module \"compile_large\"\n"
      << "global i64 @blue_state = 0 color(blue)\n"
      << "global i64 @red_state = 0 color(red)\n"
      << "global i64 @plain = 0\n"
      << "global i64 @revealed = 0\n"
      << "declare i64 @reveal(i64) ignore\n";
  // @read_blue and @read_red hand their color's count back to U through the
  // `reveal` boundary; the U store gives each a U chunk that returns it.
  for (const char* c : {"blue", "red"}) {
    src << "define i64 @read_" << c << "() {\nentry:\n"
        << "  %v = load ptr<i64 color(" << c << ")> @" << c << "_state\n"
        << "  %d = call i64 @reveal(i64 %v)\n"
        << "  store i64 %d, ptr<i64> @revealed\n"
        << "  %u = load ptr<i64> @revealed\n"
        << "  ret i64 %u\n}\n";
  }
  for (int i = n - 1; i >= 0; --i) {
    const FnPlan& f = m.fns[static_cast<std::size_t>(i)];
    src << "define i64 @f" << i << "(i64 %x) {\nentry:\n";
    std::string result;
    if (f.kind >= kLoopBlue) {
      src << "  br %head\nhead:\n"
          << "  %i = phi i64 [ i64 0, %entry ], [ %i2, %body ]\n"
          << "  %acc = phi i64 [ %x, %entry ], [ %acc2, %body ]\n"
          << "  %more = icmp slt i64 %i, i64 " << f.trips << "\n"
          << "  cond_br i1 %more, %body, %exit\nbody:\n";
      emit_state_update(src, f.kind, "  ");
      src << "  %t = mul i64 %acc, i64 " << f.mul << "\n"
          << "  %acc2 = add i64 %t, i64 " << f.add << "\n"
          << "  %i2 = add i64 %i, i64 1\n"
          << "  br %head\nexit:\n";
      result = "%acc";
    } else {
      emit_state_update(src, f.kind, "  ");
      src << "  %t = mul i64 %x, i64 " << f.mul << "\n"
          << "  %n = add i64 %t, i64 " << f.add << "\n";
      result = "%n";
    }
    if (f.next >= 0) {
      src << "  %r = call i64 @f" << f.next << "(i64 " << result << ")\n";
      result = "%r";
    }
    src << "  %o = xor i64 " << result << ", i64 " << f.mask << "\n"
        << "  ret i64 %o\n}\n";
  }
  // @main runs every chain, then adds the chains' results, the weighted
  // blue and red counts and the plain sum.
  src << "define i64 @main(i64 %x) entry {\nentry:\n";
  State st;
  std::uint64_t expected = 0;
  std::string sum = "i64 0";
  for (std::size_t k = 0; k < m.heads.size(); ++k) {
    src << "  %a" << k << " = add i64 %x, i64 " << k << "\n"
        << "  %r" << k << " = call i64 @f" << m.heads[k] << "(i64 %a" << k << ")\n"
        << "  %s" << k << " = add i64 %r" << k << ", " << sum << "\n";
    sum = "%s" + std::to_string(k);
    expected += eval(m.fns, m.heads[k], static_cast<std::uint64_t>(m.input) + k, st);
  }
  src << "  %blue = call i64 @read_blue()\n"
      << "  %red = call i64 @read_red()\n"
      << "  %plain = load ptr<i64> @plain\n"
      << "  %bw = mul i64 %blue, i64 " << static_cast<std::int64_t>(kBlueWeight) << "\n"
      << "  %rw = mul i64 %red, i64 " << static_cast<std::int64_t>(kRedWeight) << "\n"
      << "  %t0 = add i64 " << sum << ", %bw\n"
      << "  %t1 = add i64 %t0, %rw\n"
      << "  %t2 = add i64 %t1, %plain\n"
      << "  ret i64 %t2\n}\n";
  expected += st.blue * kBlueWeight + st.red * kRedWeight + st.plain;
  m.source = src.str();
  m.expected = static_cast<std::int64_t>(expected);
  return m;
}

/// One op's stage timings and counters.
struct OpResult {
  double latency_us = 0, parse_us = 0, check_us = 0, partition_us = 0, load_us = 0,
         run_us = 0, teardown_us = 0;
  std::uint64_t instructions = 0, chunks = 0, executed = 0, messages = 0, flushes = 0,
                batched = 0, calls_elided = 0, wait_timeouts = 0, retransmits = 0,
                jit_compiles = 0, jit_deopts = 0;
  int threads = 0;  // alive while the module's Machine runs
  int cpu = -1;     // the CPU the compile ran on
};

const std::string kMain = "main";

/// One op: @p mod compiled, loaded, run once and torn down. The run's result
/// is checked against the plan's; a failure or mismatch counts in @p out.
/// The single-threaded compile runs on the next CPU of @p cpus.
OpResult compile_and_run(const Module& mod, Tracer* tracer, CpuRotation& cpus, Outcome& out) {
  OpResult r;
  ++out.attempted;
  cpus.step();
  r.cpu = cpus.current();
  const std::int64_t t0 = now_ns();
  Compiled c = compile(mod.source, sectype::Mode::kHardened);
  cpus.release();  // the Machine's workers inherit the full mask
  r.parse_us = c.parse_us;
  r.check_us = c.check_us;
  r.partition_us = c.partition_us;
  r.instructions = c.instructions;
  r.chunks = c.chunks;
  if (tracer != nullptr) {
    const auto ns = [](double us) { return static_cast<std::int64_t>(us * 1e3); };
    tracer->span(Tracer::kParse, 0, t0, t0 + ns(c.parse_us));
    tracer->span(Tracer::kCheck, 0, t0 + ns(c.parse_us), t0 + ns(c.parse_us + c.check_us));
    tracer->span(Tracer::kPartition, 0, t0 + ns(c.parse_us + c.check_us),
                 t0 + ns(c.parse_us + c.check_us + c.partition_us));
  }
  if (!c.error.empty()) {
    out.mismatch("compile: " + c.error);
    return r;
  }
  std::int64_t t = now_ns();
  auto machine = std::make_unique<interp::Machine>(*c.program);
  std::int64_t t_next = now_ns();
  r.load_us = static_cast<double>(t_next - t) / 1e3;
  if (tracer != nullptr) tracer->span(Tracer::kLoad, 0, t, t_next);
  machine->bind_external("reveal", [](interp::Machine::ExternalCtx&,
                                      std::span<const std::int64_t> a) -> std::int64_t {
    return a.empty() ? 0 : a[0];
  });

  t = now_ns();
  auto result = machine->call(kMain, {mod.input});
  t_next = now_ns();
  r.run_us = static_cast<double>(t_next - t) / 1e3;
  if (tracer != nullptr) tracer->span(Tracer::kRun, 0, t, t_next);
  r.threads = thread_count();
  r.executed = machine->instructions_executed();
  const auto st = machine->runtime_stats();
  r.messages = st.messages_sent;
  r.flushes = st.batch_flushes;
  r.batched = st.batched_messages;
  r.calls_elided = st.calls_elided;
  r.wait_timeouts = st.wait_timeouts;
  r.retransmits = st.retransmits;
  const auto jit = machine->jit_stats();
  r.jit_compiles = jit.compiles;
  r.jit_deopts = jit.deopts;

  t = t_next;
  machine.reset();
  t_next = now_ns();
  r.teardown_us = static_cast<double>(t_next - t) / 1e3;
  if (tracer != nullptr) tracer->span(Tracer::kTeardown, 0, t, t_next);
  r.latency_us = static_cast<double>(t_next - t0) / 1e3;

  if (!result.ok()) {
    out.mismatch("main failed: " + result.message());
  } else if (result.value() != mod.expected) {
    out.mismatch("main returned " + std::to_string(result.value()) + ", reference " +
                 std::to_string(mod.expected));
  }
  return r;
}

struct CompilePhase : Phase {
  std::vector<OpResult> results;
  void merge(const CompilePhase& o) {
    Phase::merge(o);
    results.insert(results.end(), o.results.begin(), o.results.end());
  }
};

CompilePhase loop(const std::vector<Module>& pool, double seconds, std::size_t& next,
                  Tracer* tracer, CpuRotation& cpus, Outcome& out) {
  CompilePhase ph;
  const auto budget = static_cast<std::int64_t>(seconds * 1e9);
  const Rusage ru0 = Rusage::now();
  const std::int64_t start = now_ns();
  while (now_ns() - start < budget) {
    const std::int64_t t0 = now_ns();
    ph.results.push_back(compile_and_run(pool[next++ % pool.size()], tracer, cpus, out));
    const std::int64_t t1 = now_ns();
    ++ph.ops;
    ph.call_ns += static_cast<double>(t1 - t0);
    if (tracer != nullptr) tracer->end_op(t0, t1);
  }
  ph.busy_ns = now_ns() - start;
  ph.usage = Rusage::now() - ru0;
  return ph;
}

template <class F>
std::vector<double> values_of(const std::vector<OpResult>& ops, F field) {
  std::vector<double> v;
  v.reserve(ops.size());
  for (const OpResult& r : ops) v.push_back(static_cast<double>(field(r)));
  return v;
}

template <class F>
double median_of(const std::vector<OpResult>& ops, F field) {
  return median(values_of(ops, field));
}

template <class F>
double sum_of(const std::vector<OpResult>& ops, F field) {
  double s = 0;
  for (const OpResult& r : ops) s += static_cast<double>(field(r));
  return s;
}

std::vector<double> latencies_us(const CompilePhase& ph) {
  return values_of(ph.results, [](const OpResult& r) { return r.latency_us; });
}

/// The @p q percentile of op latency, taken on each CPU's ops and averaged
/// over the CPUs. The host's CPUs run at different speeds, so a percentile
/// of all ops pooled jumps between those speeds from run to run.
double per_cpu_percentile(const CompilePhase& ph, double q) {
  std::map<int, std::vector<double>> by_cpu;
  for (const OpResult& r : ph.results) by_cpu[r.cpu].push_back(r.latency_us);
  double sum = 0;
  for (auto& [cpu, v] : by_cpu) sum += percentile(v, q);
  return by_cpu.empty() ? 0.0 : sum / static_cast<double>(by_cpu.size());
}

void report_stages(const CompilePhase& ph, Report& rep) {
  const auto& ops = ph.results;
  const double n = static_cast<double>(std::max<std::size_t>(ops.size(), 1));
  rep.set("ir.parse_us", median_of(ops, [](const OpResult& r) { return r.parse_us; }), "us");
  rep.set("ir.instructions", median_of(ops, [](const OpResult& r) { return r.instructions; }),
          "count");
  rep.set("sectype.check_us", median_of(ops, [](const OpResult& r) { return r.check_us; }),
          "us");
  rep.set("partition.partition_us",
          median_of(ops, [](const OpResult& r) { return r.partition_us; }), "us");
  rep.set("partition.chunks", median_of(ops, [](const OpResult& r) { return r.chunks; }),
          "count");
  rep.set("interp.load_us", median_of(ops, [](const OpResult& r) { return r.load_us; }), "us");
  const double executed = sum_of(ops, [](const OpResult& r) { return r.executed; });
  const double flushes = sum_of(ops, [](const OpResult& r) { return r.flushes; });
  rep.set("interp.instr_per_op", executed / n, "instr/op");
  rep.set("interp.ns_per_instr",
          executed == 0
              ? 0.0
              : sum_of(ops, [](const OpResult& r) { return r.run_us; }) * 1e3 / executed,
          "ns");
  rep.set("interp.jit_compiles", sum_of(ops, [](const OpResult& r) { return r.jit_compiles; }),
          "count");
  rep.set("interp.jit_deopts", sum_of(ops, [](const OpResult& r) { return r.jit_deopts; }),
          "count");
  rep.set("runtime.msgs_per_op", sum_of(ops, [](const OpResult& r) { return r.messages; }) / n,
          "msgs/op");
  rep.set("runtime.flushes_per_op", flushes / n, "flushes/op");
  rep.set("runtime.msgs_per_flush",
          flushes == 0 ? 0.0
                       : sum_of(ops, [](const OpResult& r) { return r.batched; }) / flushes,
          "msgs/flush");
  rep.set("runtime.calls_elided", sum_of(ops, [](const OpResult& r) { return r.calls_elided; }),
          "count");
  rep.set("runtime.wait_timeouts",
          sum_of(ops, [](const OpResult& r) { return r.wait_timeouts; }), "count");
  rep.set("runtime.retransmits", sum_of(ops, [](const OpResult& r) { return r.retransmits; }),
          "count");
  rep.set("os.vcsw_per_op", ph.usage.vcsw / n, "switches/op");
  rep.set("os.ivcsw_per_op", ph.usage.ivcsw / n, "switches/op");
  rep.set("os.cpu_us_per_op", ph.usage.cpu_us / n, "us");
  rep.set("compile.run_us", median_of(ops, [](const OpResult& r) { return r.run_us; }), "us");
  int threads = 0;
  for (const OpResult& r : ops) threads = std::max(threads, r.threads);
  rep.set("threads", threads, "count");
  rep.set("compile.teardown_us",
          median_of(ops, [](const OpResult& r) { return r.teardown_us; }), "us");
}

}  // namespace

Outcome run_compile_large(const Options& opt) {
  Outcome out;
  std::vector<Module> pool;
  Xoshiro256 seeds(opt.seed);
  for (std::size_t i = 0; i < kPool; ++i) pool.push_back(generate(seeds.next()));

  // Set-up: one full op (compile, Machine construction, a run), made before
  // and after measuring, as on kvcache.
  CpuRotation cpus;
  SetupTimes setups;
  const auto make_setups = [&](int n) {
    for (int i = 0; i < n; ++i) {
      setups.time([&] { return compile_and_run(pool[0], nullptr, cpus, out); });
    }
  };
  make_setups(kSetupsBefore);
  Report& rep = out.report;

  std::size_t next = 0;
  if (!opt.trace) {
    const CompilePhase ph = loop(pool, opt.seconds, next, nullptr, cpus, out);
    rep.set("ops_per_s", static_cast<double>(ph.ops) / (static_cast<double>(ph.busy_ns) / 1e9),
            "1/s");
    rep.set("latency_p50_us", per_cpu_percentile(ph, 0.50), "us");
    rep.set("latency_tail_us", per_cpu_percentile(ph, kTailQ), "us");
    rep.set("latency_tail_pct", kTailQ * 100, "%");
    rep.set("latency_samples", static_cast<double>(ph.ops), "count");
    report_stages(ph, rep);
  } else {
    CompilePhase plain;
    CompilePhase traced;
    Tracer tracer(1'000'000);
    alternate_blocks(opt.seconds, kTraceBlocks, plain, traced,
                     [&](double seconds, bool traced_block, CompilePhase& into) {
                       into.merge(
                           loop(pool, seconds, next, traced_block ? &tracer : nullptr, cpus, out));
                       return true;
                     });
    report_stages(plain, rep);
    std::vector<double> op = latencies_us(traced);
    rep.set("trace.op_us.p50", percentile(op, 0.50), "us");
    rep.set("trace.op_us.p99", percentile(op, 0.99), "us");
    // No request path here: the kvcache segments have no samples.
    for (const char* seg : {"trace.get.entry_us", "trace.get.to_store_us", "trace.get.store_us",
                            "trace.get.to_u_us", "trace.get.exit_us", "trace.put.crossing_us",
                            "trace.stats.call_us"}) {
      rep.set(std::string(seg) + ".p50", 0.0, "us");
      rep.set(std::string(seg) + ".p99", 0.0, "us");
    }
    report_trace_overhead(rep, plain, traced);
    rep.set("trace.untiled_ops", 0, "count");
    if (!tracer.write(opt.trace_path, opt.workload)) {
      out.fail("could not write trace file " + opt.trace_path);
    }
  }
  make_setups(kSetupReps - kSetupsBefore);
  setups.report(rep);
  finish(out);
  return out;
}

}  // namespace perfbench
