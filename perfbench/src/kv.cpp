// The two kvcache workloads: kv_request (closed loop of handle_request) and
// kv_background (closed loop of background_tick). Both run the hardened
// minicached core on a default Machine.
#include <algorithm>
#include <array>
#include <optional>
#include <string>

#include "apps/kvcache/pir_program.hpp"
#include "bench.hpp"
#include "interp/machine.hpp"
#include "support/rng.hpp"
#include "ycsb/workload.hpp"

namespace perfbench {
namespace {

using namespace privagic;  // NOLINT(google-build-using-namespace)

constexpr std::uint64_t kKeys = 1024;        // zipfian key space
constexpr std::size_t kSlots = 256;          // the PIR map's direct-mapped slots
constexpr std::size_t kWarmupOps = 4096;     // per set-up; also the exact-count probe
constexpr int kSetupReps = 9;                // setup_s is the median of these
constexpr int kSetupsBefore = 5;             // made before measuring; the rest after
// A closed loop cycles through this many pre-generated requests, so the
// harness's memory does not grow with the run (the model follows the cycle).
constexpr std::size_t kClosedLoopBlock = 1u << 18;
constexpr std::int64_t kWindowNs = 500'000'000;  // see Window
constexpr double kWindowTrim = 0.1;
constexpr int kTraceBlocks = 10;  // untraced/traced block pairs in a traced run
// Machine counts instructions against a lifetime budget
// (Machine::kMaxInstructions, 200M); a closed loop replaces its machine
// before reaching it, outside the timed window.
constexpr std::uint64_t kRotateInstructions = 150'000'000;

enum Op : std::uint64_t { kGet = 0, kPut = 1, kStats = 2 };

Op op_of(std::int64_t req) { return static_cast<Op>(static_cast<std::uint64_t>(req) >> 62); }

/// The kv_request mix: 50% get, 40% put, 10% stats over zipfian keys.
std::vector<std::int64_t> make_requests(std::uint64_t seed, std::size_t n) {
  Xoshiro256 rng(seed);
  const ycsb::ZipfianGenerator zipf(kKeys);
  std::vector<std::int64_t> out(n);
  for (auto& req : out) {
    const std::uint64_t pick = rng.next_below(10);
    const std::uint64_t op = pick < 5 ? kGet : pick < 9 ? kPut : kStats;
    const std::uint64_t key = zipf.next_key(rng);
    const std::uint64_t value = rng.next() & 0xFFFFFFFFu;
    req = static_cast<std::int64_t>((op << 62) | (key << 32) | value);
  }
  return out;
}

/// Reference model of apps/kvcache/pir_program.hpp, written from the PIR
/// text: the 256-slot map (keys and values start at 0), the three stat
/// counters and the 16-bucket histogram. classify/declassify are bound to
/// the identity, so values cross the boundary unchanged.
class KvModel {
 public:
  std::int64_t request(std::int64_t req) {
    const auto r = static_cast<std::uint64_t>(req);
    const std::uint64_t key = (r >> 32) & 0x3FFFFFFFu;
    const std::size_t idx = key & (kSlots - 1);
    switch (op_of(req)) {
      case kGet: {
        const bool hit = keys_[idx] == key;
        ++gets_;
        return response(hit ? 1 : 0, hit ? vals_[idx] : 0);
      }
      case kPut:
        keys_[idx] = key;
        vals_[idx] = r & 0xFFFFFFFFu;
        ++puts_;
        return response(2, 0);
      default: {
        const std::uint64_t all = gets_ + puts_ + hits_;
        ++histogram_[all & 15];
        return response(3, all);
      }
    }
  }

  std::int64_t background_tick() {
    std::uint64_t sum = 0;
    for (const std::uint64_t b : histogram_) sum ^= mix(b);
    gets_ >>= 1;
    return static_cast<std::int64_t>(sum | 1);
  }

 private:
  static std::int64_t response(std::uint64_t status, std::uint64_t payload) {
    return static_cast<std::int64_t>((status << 62) | payload);
  }
  static std::uint64_t mix(std::uint64_t x) {
    x ^= x >> 33;
    x *= static_cast<std::uint64_t>(-49064778989728563LL);
    x ^= x >> 33;
    x *= static_cast<std::uint64_t>(-4265267296055464877LL);
    x ^= x >> 33;
    return x;
  }

  std::array<std::uint64_t, kSlots> keys_{};
  std::array<std::uint64_t, kSlots> vals_{};
  std::uint64_t gets_ = 0;
  std::uint64_t puts_ = 0;
  std::uint64_t hits_ = 0;  // the PIR program never bumps @stat_hits
  std::array<std::uint64_t, 16> histogram_{};
};

/// State the external callbacks share with the app thread. net_recv hands
/// out the next pre-generated request and nothing else.
struct Wire {
  const std::vector<std::int64_t>* requests = nullptr;
  std::size_t next = 0;  // requests handed out; the stream repeats after its end
  std::int64_t sent = 0;    // last net_send argument
  std::int64_t logged = 0;  // last log_line payload
  Tracer* tracer = nullptr;
  [[nodiscard]] std::int64_t peek() const { return (*requests)[next % requests->size()]; }
};

/// Counters that must repeat exactly under one seed: the set-up's compile
/// and its warmup probe on a fresh machine.
struct Probe {
  std::uint64_t instructions = 0;  // ir.instructions
  std::uint64_t chunks = 0;        // partition.chunks
  std::uint64_t executed = 0;      // during the probe ops
  std::uint64_t messages = 0;
  std::uint64_t flushes = 0;
  std::uint64_t batched = 0;
  bool operator==(const Probe&) const = default;
};

struct Session {
  Compiled compiled;
  std::unique_ptr<Wire> wire;
  std::unique_ptr<interp::Machine> machine;  // destroyed before wire
  KvModel model;
  Probe probe;
  double load_us = 0;
  Session() = default;
  ~Session() { machine.reset(); }  // workers stop before the program goes
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;
};

const std::string kHandleRequest = "handle_request";
const std::string kBackgroundTick = "background_tick";

std::int64_t identity(interp::Machine::ExternalCtx&, std::span<const std::int64_t> a) {
  return a.empty() ? 0 : a[0];
}

void bind_wire(interp::Machine& m, Wire* w) {
  m.bind_external("net_recv", [w](interp::Machine::ExternalCtx& ctx,
                                  std::span<const std::int64_t>) -> std::int64_t {
    if (w->tracer != nullptr) w->tracer->instant(Tracer::kNetRecv, ctx.color);
    const std::int64_t req = w->peek();
    ++w->next;
    return req;
  });
  m.bind_external("net_send", [w](interp::Machine::ExternalCtx& ctx,
                                  std::span<const std::int64_t> a) -> std::int64_t {
    if (w->tracer != nullptr) w->tracer->instant(Tracer::kNetSend, ctx.color);
    w->sent = a.empty() ? 0 : a[0];
    return 0;
  });
  m.bind_external("log_line", [w](interp::Machine::ExternalCtx& ctx,
                                  std::span<const std::int64_t> a) -> std::int64_t {
    if (w->tracer != nullptr) w->tracer->instant(Tracer::kLogLine, ctx.color);
    w->logged = a.size() > 1 ? a[1] : 0;
    return 0;
  });
  m.bind_external("classify", [w](interp::Machine::ExternalCtx& ctx,
                                  std::span<const std::int64_t> a) -> std::int64_t {
    if (w->tracer != nullptr) w->tracer->instant(Tracer::kClassify, ctx.color);
    return identity(ctx, a);
  });
  m.bind_external("declassify", [w](interp::Machine::ExternalCtx& ctx,
                                    std::span<const std::int64_t> a) -> std::int64_t {
    if (w->tracer != nullptr) w->tracer->instant(Tracer::kDeclassify, ctx.color);
    return identity(ctx, a);
  });
}

/// One handle_request on @p s, checked against the model: the return value
/// and the net_send argument must both equal the model's response.
bool checked_request(Session& s, std::int64_t req, Outcome& out, std::int64_t* t0,
                     std::int64_t* t1) {
  ++out.attempted;
  *t0 = now_ns();
  auto r = s.machine->call(kHandleRequest, {});
  *t1 = now_ns();
  const std::int64_t expect = s.model.request(req);
  if (!r.ok()) {
    out.mismatch("handle_request failed: " + r.message());
    return false;
  }
  if (r.value() != expect || s.wire->sent != expect) {
    out.mismatch("handle_request(" + std::to_string(req) + ") returned " +
                 std::to_string(r.value()) + ", sent " + std::to_string(s.wire->sent) +
                 ", reference " + std::to_string(expect));
    return false;
  }
  return true;
}

bool checked_tick(Session& s, Outcome& out, std::int64_t* t0, std::int64_t* t1) {
  ++out.attempted;
  *t0 = now_ns();
  auto r = s.machine->call(kBackgroundTick, {});
  *t1 = now_ns();
  const std::int64_t expect = s.model.background_tick();
  if (!r.ok()) {
    out.mismatch("background_tick failed: " + r.message());
    return false;
  }
  if (r.value() != expect || s.wire->logged != expect) {
    out.mismatch("background_tick returned " + std::to_string(r.value()) + ", logged " +
                 std::to_string(s.wire->logged) + ", reference " + std::to_string(expect));
    return false;
  }
  return true;
}

/// Set-up: compile the hardened kvcache core, construct a default Machine,
/// then warm it with the warmup stream (kv_background also runs ticks). The
/// warmup doubles as the exact-count probe.
std::unique_ptr<Session> make_session(const std::vector<std::int64_t>& warmup,
                                      bool background, Outcome& out) {
  auto sp = std::make_unique<Session>();
  Session& s = *sp;
  s.compiled = compile(apps::kMinicachedCorePir, sectype::Mode::kHardened);
  if (!s.compiled.error.empty()) {
    out.mismatch("compile: " + s.compiled.error);
    return sp;
  }
  s.wire = std::make_unique<Wire>();
  s.wire->requests = &warmup;
  const auto t0 = Clock::now();
  s.machine = std::make_unique<interp::Machine>(*s.compiled.program);
  s.load_us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  bind_wire(*s.machine, s.wire.get());

  std::int64_t a = 0;
  std::int64_t b = 0;
  for (const std::int64_t req : warmup) checked_request(s, req, out, &a, &b);
  const std::uint64_t exec0 = s.machine->instructions_executed();
  const auto st0 = s.machine->runtime_stats();
  if (background) {
    for (std::size_t i = 0; i < kWarmupOps; ++i) checked_tick(s, out, &a, &b);
  }
  const auto st1 = s.machine->runtime_stats();
  // kv_request probes the warmup requests; kv_background the ticks.
  s.probe.instructions = s.compiled.instructions;
  s.probe.chunks = s.compiled.chunks;
  s.probe.executed = background ? s.machine->instructions_executed() - exec0 : exec0;
  s.probe.messages = background ? st1.messages_sent - st0.messages_sent : st0.messages_sent;
  s.probe.flushes = background ? st1.batch_flushes - st0.batch_flushes : st0.batch_flushes;
  s.probe.batched =
      background ? st1.batched_messages - st0.batched_messages : st0.batched_messages;
  return sp;
}

/// The set-ups of one run: their times, and the exact counts each must
/// repeat. A run makes some before it measures and the rest after, so
/// setup_s spans the host's state over the whole run, not its first 0.3 s.
class Setups {
 public:
  Setups(const std::vector<std::int64_t>& warmup, bool background, Outcome& out)
      : warmup_(warmup), background_(background), out_(out) {}

  /// Makes @p n set-ups, one after another, and returns the last; one without
  /// a Machine when compiling failed.
  std::unique_ptr<Session> make(int n) {
    std::unique_ptr<Session> sp;
    for (int i = 0; i < n; ++i) {
      sp.reset();
      sp = times_.time([&] { return make_session(warmup_, background_, out_); });
      const Session& s = *sp;
      if (s.machine == nullptr) return sp;
      parse_.push_back(s.compiled.parse_us);
      check_.push_back(s.compiled.check_us);
      part_.push_back(s.compiled.partition_us);
      load_.push_back(s.load_us);
      if (times_.count() == 1) {
        first_ = s.probe;
      } else if (!(s.probe == first_)) {
        out_.fail("exact counts drifted between set-ups under one seed (instructions " +
                  std::to_string(first_.executed) + " vs " + std::to_string(s.probe.executed) +
                  ", messages " + std::to_string(first_.messages) + " vs " +
                  std::to_string(s.probe.messages) + ", flushes " +
                  std::to_string(first_.flushes) + " vs " + std::to_string(s.probe.flushes) +
                  ")");
      }
    }
    return sp;
  }

  /// setup_s and the compile layers as medians; the probe's exact counts.
  void report() const {
    const double probe_ops = static_cast<double>(kWarmupOps);
    Report& r = out_.report;
    times_.report(r);
    r.set("ir.parse_us", median(parse_), "us");
    r.set("ir.instructions", static_cast<double>(first_.instructions), "count");
    r.set("sectype.check_us", median(check_), "us");
    r.set("partition.partition_us", median(part_), "us");
    r.set("partition.chunks", static_cast<double>(first_.chunks), "count");
    r.set("interp.load_us", median(load_), "us");
    r.set("interp.instr_per_op", static_cast<double>(first_.executed) / probe_ops,
          "instr/op");
    r.set("runtime.msgs_per_op", static_cast<double>(first_.messages) / probe_ops, "msgs/op");
    r.set("runtime.flushes_per_op", static_cast<double>(first_.flushes) / probe_ops,
          "flushes/op");
    r.set("runtime.msgs_per_flush",
          first_.flushes == 0 ? 0.0
                              : static_cast<double>(first_.batched) /
                                    static_cast<double>(first_.flushes),
          "msgs/flush");
  }

 private:
  const std::vector<std::int64_t>& warmup_;
  bool background_;
  Outcome& out_;
  SetupTimes times_;
  std::vector<double> parse_, check_, part_, load_;
  Probe first_;
};

/// Per-op wall-time segments of the traced run (µs), split at the external
/// callbacks the request path calls out through.
struct Segments {
  std::vector<double> op, get_entry, get_to_store, get_store, get_to_u, get_exit,
      put_crossing, stats_call;
  std::uint64_t untiled = 0;  // ops whose events were missing or out of order

  /// @p op_kind: the request's op, or nullopt for a background tick.
  void add(std::optional<Op> op_kind, const Tracer& tr, std::int64_t t0, std::int64_t t1) {
    op.push_back(static_cast<double>(t1 - t0) / 1e3);
    std::size_t n = 0;
    const Tracer::Event* ev = tr.current(&n);
    std::int64_t first_classify = -1, last_classify = -1, first_decl = -1, last_decl = -1,
                 send = -1;
    for (std::size_t i = 0; i < n; ++i) {
      const std::int64_t t = ev[i].begin_ns;
      switch (ev[i].kind) {
        case Tracer::kClassify:
          if (first_classify < 0) first_classify = t;
          last_classify = t;
          break;
        case Tracer::kDeclassify:
          if (first_decl < 0) first_decl = t;
          last_decl = t;
          break;
        case Tracer::kNetSend: send = t; break;
        default: break;
      }
    }
    const auto us = [](std::int64_t a, std::int64_t b) { return static_cast<double>(b - a) / 1e3; };
    if (!op_kind) return;
    if (*op_kind == kGet) {
      // call start -> classify -> first declassify -> last declassify ->
      // net_send -> return: five segments that tile the call span.
      const std::array<std::int64_t, 6> cut = {t0, first_classify, first_decl, last_decl,
                                               send, t1};
      for (std::size_t i = 1; i < cut.size(); ++i) {
        if (cut[i] < cut[i - 1]) {
          ++untiled;
          return;
        }
      }
      get_entry.push_back(us(cut[0], cut[1]));
      get_to_store.push_back(us(cut[1], cut[2]));
      get_store.push_back(us(cut[2], cut[3]));
      get_to_u.push_back(us(cut[3], cut[4]));
      get_exit.push_back(us(cut[4], cut[5]));
    } else if (*op_kind == kPut) {
      if (last_classify < t0 || send < last_classify || t1 < send) {
        ++untiled;
        return;
      }
      put_crossing.push_back(us(last_classify, send));
    } else {
      stats_call.push_back(us(t0, t1));
    }
  }

  void report(Report& r) {
    const auto both = [&r](const std::string& name, std::vector<double>& v) {
      r.set(name + ".p50", percentile(v, 0.50), "us");
      r.set(name + ".p99", percentile(v, 0.99), "us");
    };
    both("trace.op_us", op);
    both("trace.get.entry_us", get_entry);
    both("trace.get.to_store_us", get_to_store);
    both("trace.get.store_us", get_store);
    both("trace.get.to_u_us", get_to_u);
    both("trace.get.exit_us", get_exit);
    both("trace.put.crossing_us", put_crossing);
    both("trace.stats.call_us", stats_call);
  }
};

/// One stretch of kWindowNs of timed wall time, on one CPU. The end-to-end
/// figures are trimmed means over windows (kWindowTrim of them dropped at
/// each end), so a stall in one part of a run moves one window, not the
/// result. A median would jump between the speeds of the host's CPUs as
/// their share of the windows shifts; the mean moves with the share.
struct Window {
  LatencyHistogram latency;
  std::uint64_t ops = 0;
  std::int64_t ns = 0;
};

/// A Machine's cumulative counters at one moment; a phase adds the
/// difference between two of them for every Machine it used.
struct Mark {
  std::uint64_t executed = 0;
  runtime::RuntimeStats::Snapshot stats{};
  interp::Machine::JitStats jit{};
  static Mark of(const interp::Machine& m) {
    return {m.instructions_executed(), m.runtime_stats(), m.jit_stats()};
  }
};

/// What a measured kvcache phase saw, summed over the machines it used.
struct KvPhase : Phase {
  Mark counts;  // differences over the phase, not cumulative values
  std::vector<Window> windows = std::vector<Window>(1);

  void add_counters(const interp::Machine& m, const Mark& m0) {
    const Mark m1 = Mark::of(m);
    counts.executed += m1.executed - m0.executed;
    counts.stats.messages_sent += m1.stats.messages_sent - m0.stats.messages_sent;
    counts.stats.batch_flushes += m1.stats.batch_flushes - m0.stats.batch_flushes;
    counts.stats.calls_elided += m1.stats.calls_elided - m0.stats.calls_elided;
    counts.stats.wait_timeouts += m1.stats.wait_timeouts - m0.stats.wait_timeouts;
    counts.stats.retransmits += m1.stats.retransmits - m0.stats.retransmits;
    counts.jit.compiles += m1.jit.compiles - m0.jit.compiles;
    counts.jit.deopts += m1.jit.deopts - m0.jit.deopts;
  }
  /// One op whose call ran t0..t1.
  void record(std::int64_t t0, std::int64_t t1) {
    ++ops;
    ++windows.back().ops;
    windows.back().latency.add(t1 - t0);
    call_ns += static_cast<double>(t1 - t0);
  }
  void close_window(std::int64_t ns) {
    windows.back().ns = ns;
    windows.emplace_back();
  }
  /// Adds another block's counts (windows stay per block; the traced run,
  /// the only caller, reports none).
  void merge(const KvPhase& o) {
    Phase::merge(o);
    counts.executed += o.counts.executed;
    counts.stats.messages_sent += o.counts.stats.messages_sent;
    counts.stats.batch_flushes += o.counts.stats.batch_flushes;
    counts.stats.calls_elided += o.counts.stats.calls_elided;
    counts.stats.wait_timeouts += o.counts.stats.wait_timeouts;
    counts.stats.retransmits += o.counts.stats.retransmits;
    counts.jit.compiles += o.counts.jit.compiles;
    counts.jit.deopts += o.counts.jit.deopts;
  }
};

/// The traced blocks of a run: a tracer wired into the externals, and the
/// segments computed from its events op by op.
struct Traced {
  Tracer tracer{20'000};
  Segments segments;
  void end_op(std::optional<Op> kind, std::int64_t t0, std::int64_t t1) {
    segments.add(kind, tracer, t0, t1);
    tracer.end_op(t0, t1);
  }
};

struct Stream {
  const std::vector<std::int64_t>* warmup;
  const std::vector<std::int64_t>* requests;
  std::size_t next = 0;
};

/// A closed loop of handle_request (or background_tick) calls for
/// @p seconds of timed wall time. Replaces the machine, untimed, before it
/// reaches its instruction budget. The app thread moves to the next CPU of
/// @p cpus at every window.
KvPhase closed_loop(std::unique_ptr<Session>& sp, Stream& in, bool background, double seconds,
                    Traced* traced, CpuRotation& cpus, Outcome& out) {
  KvPhase ph;
  const std::vector<std::int64_t>& requests = *in.requests;
  const auto attach = [&] {
    sp->wire->tracer = traced != nullptr ? &traced->tracer : nullptr;
    sp->wire->requests = &requests;
    sp->wire->next = in.next;
  };
  attach();
  Mark m0 = Mark::of(*sp->machine);
  const auto budget_ns = static_cast<std::int64_t>(seconds * 1e9);
  Rusage ru0 = Rusage::now();
  std::int64_t seg_start = now_ns();
  std::int64_t window_start = 0;  // on the timed clock, which stops while rotating
  cpus.step();
  while (ph.busy_ns + (now_ns() - seg_start) < budget_ns) {
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    std::optional<Op> kind;
    if (background) {
      checked_tick(*sp, out, &t0, &t1);
    } else {
      const std::int64_t req = sp->wire->peek();
      kind = op_of(req);
      checked_request(*sp, req, out, &t0, &t1);
    }
    ph.record(t0, t1);
    if (traced != nullptr) traced->end_op(kind, t0, t1);
    const std::int64_t clock = ph.busy_ns + (t1 - seg_start);
    if (clock - window_start >= kWindowNs) {
      ph.close_window(clock - window_start);
      window_start = clock;
      cpus.step();
    }
    if ((ph.ops & 1023) == 0 && sp->machine->instructions_executed() > kRotateInstructions) {
      ph.busy_ns += now_ns() - seg_start;
      ph.usage = ph.usage + (Rusage::now() - ru0);
      ph.add_counters(*sp->machine, m0);
      in.next = sp->wire->next;
      sp.reset();
      cpus.release();  // the new Machine's workers inherit the full mask
      sp = make_session(*in.warmup, background, out);
      cpus.step();
      if (sp->machine == nullptr) return ph;
      attach();
      m0 = Mark::of(*sp->machine);
      ru0 = Rusage::now();
      seg_start = now_ns();
    }
  }
  ph.busy_ns += now_ns() - seg_start;
  ph.windows.back().ns = ph.busy_ns - window_start;
  ph.usage = ph.usage + (Rusage::now() - ru0);
  ph.add_counters(*sp->machine, m0);
  in.next = sp->wire->next;
  sp->wire->tracer = nullptr;
  cpus.release();
  return ph;
}

std::uint64_t derive(std::uint64_t seed, std::uint64_t stream) {
  return SplitMix64(seed ^ (stream * 0xD1B54A32D192ED03ull)).next();
}

/// ops_per_s and the latency percentiles are trimmed means over the phase's
/// full windows (a closing partial window counts only when it is over half
/// full).
void report_end_to_end(const KvPhase& ph, Outcome& out) {
  std::vector<double> rate, p50, p99;
  for (const Window& w : ph.windows) {
    if (w.ops == 0 || (w.ns < kWindowNs / 2 && ph.windows.size() > 1)) continue;
    rate.push_back(static_cast<double>(w.ops) / (static_cast<double>(w.ns) / 1e9));
    p50.push_back(w.latency.percentile(0.50) / 1e3);
    p99.push_back(w.latency.percentile(0.99) / 1e3);
  }
  Report& r = out.report;
  r.set("ops_per_s", trimmed_mean(rate, kWindowTrim), "1/s");
  r.set("latency_p50_us", trimmed_mean(p50, kWindowTrim), "us");
  r.set("latency_tail_us", trimmed_mean(p99, kWindowTrim), "us");  // a window: >= 12,000 ops
  r.set("latency_tail_pct", 99, "%");
  r.set("latency_samples", static_cast<double>(ph.ops), "count");
  r.set("latency_windows", static_cast<double>(p50.size()), "count");
}

/// Per-layer metrics of the untraced phase @p plain, the traced phase's
/// segments, and the tracing overhead between the two.
void report_layers(const KvPhase& plain, const KvPhase& traced_phase, Traced& traced,
                   Outcome& out) {
  Report& r = out.report;
  const double ops = static_cast<double>(std::max<std::uint64_t>(plain.ops, 1));
  const Mark& c = plain.counts;
  r.set("interp.ns_per_instr",
        c.executed == 0 ? 0.0 : plain.call_ns / static_cast<double>(c.executed), "ns");
  r.set("interp.jit_compiles", static_cast<double>(c.jit.compiles), "count");
  r.set("interp.jit_deopts", static_cast<double>(c.jit.deopts), "count");
  r.set("runtime.calls_elided", static_cast<double>(c.stats.calls_elided), "count");
  r.set("runtime.wait_timeouts", static_cast<double>(c.stats.wait_timeouts), "count");
  r.set("runtime.retransmits", static_cast<double>(c.stats.retransmits), "count");
  r.set("os.vcsw_per_op", plain.usage.vcsw / ops, "switches/op");
  r.set("os.ivcsw_per_op", plain.usage.ivcsw / ops, "switches/op");
  r.set("os.cpu_us_per_op", plain.usage.cpu_us / ops, "us");
  traced.segments.report(r);
  report_trace_overhead(r, plain, traced_phase);
  r.set("trace.untiled_ops", static_cast<double>(traced.segments.untiled), "count");
  if (traced.segments.untiled != 0) {
    out.fail(std::to_string(traced.segments.untiled) +
             " traced ops whose callback events do not tile the call span");
  }
}

/// kv_request and kv_background share everything but the op they loop on.
Outcome run_closed(const Options& opt, bool background) {
  Outcome out;
  const auto warmup = make_requests(derive(opt.seed, 1), kWarmupOps);
  const auto requests = make_requests(derive(opt.seed, 2), background ? 0 : kClosedLoopBlock);
  Stream in{&warmup, &requests};
  CpuRotation cpus;
  Setups setups(warmup, background, out);
  auto sp = setups.make(kSetupsBefore);
  if (sp->machine != nullptr) {
    out.report.set("threads", thread_count(), "count");
    if (!opt.trace) {
      const KvPhase ph = closed_loop(sp, in, background, opt.seconds, nullptr, cpus, out);
      report_end_to_end(ph, out);
    } else {
      KvPhase plain;
      KvPhase tp;
      Traced traced;
      alternate_blocks(opt.seconds, kTraceBlocks, plain, tp,
                       [&](double seconds, bool traced_block, KvPhase& into) {
                         into.merge(closed_loop(sp, in, background, seconds,
                                                traced_block ? &traced : nullptr, cpus, out));
                         return sp->machine != nullptr;
                       });
      if (sp->machine != nullptr) {
        report_layers(plain, tp, traced, out);
        if (!traced.tracer.write(opt.trace_path, opt.workload)) {
          out.fail("could not write trace file " + opt.trace_path);
        }
      }
    }
    sp.reset();
    setups.make(kSetupReps - kSetupsBefore);
  }
  setups.report();
  finish(out);
  return out;
}

}  // namespace

Outcome run_kv_request(const Options& opt) { return run_closed(opt, false); }
Outcome run_kv_background(const Options& opt) { return run_closed(opt, true); }

}  // namespace perfbench
