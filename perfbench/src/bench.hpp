// Shared pieces of the perfbench program: the options every workload takes,
// the metric report it fills in, the compile pipeline it times stage by
// stage, process counters from getrusage, and the in-memory span recorder
// the traced run writes out at exit.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "partition/partitioner.hpp"
#include "sectype/analysis.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_path;  // where the traced run writes its spans
};

/// Every metric a workload measured, in the order it was set. run.py
/// picks the end-to-end or per-layer subset that BENCHMARK.json names.
class Report {
 public:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

/// The outcome of one workload run. `errors` keeps the first few failures
/// (mismatches, drift, an untiled trace); any error fails the run.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;
  Report report;
  void fail(std::string why) {
    if (errors.size() < 5) errors.push_back(std::move(why));
  }
  /// An attempted op whose output disagreed with the reference model.
  void mismatch(std::string why) {
    ++failed;
    fail(std::move(why));
  }
};

/// Sets fail_share (failed over attempted ops) and peak_rss_mib.
void finish(Outcome& out);

/// Nearest-rank percentile (q in [0, 1]) of @p v; sorts it. 0 when empty.
double percentile(std::vector<double>& v, double q);
double median(std::vector<double> v);
/// Mean of @p v without its lowest and highest @p trim share. 0 when empty.
double trimmed_mean(std::vector<double> v, double trim);

/// Latencies in ns, in log-linear buckets 1/512 of an octave wide (exact
/// below 1024 ns): fixed memory however many ops a run makes.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}
  void add(std::int64_t ns);
  /// Nearest-rank percentile (q in [0, 1]) in ns, as its bucket's midpoint.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] std::uint64_t count() const { return total_; }

 private:
  static constexpr int kSubBits = 9;
  static constexpr std::size_t kBuckets = 1024 + (64 - 10) * 512;
  std::vector<std::uint32_t> counts_;
  std::uint64_t total_ = 0;
};

/// Process-wide CPU time and context switches (all threads).
struct Rusage {
  double cpu_us = 0;
  double vcsw = 0;
  double ivcsw = 0;
  static Rusage now();
  Rusage operator-(const Rusage& o) const {
    return {cpu_us - o.cpu_us, vcsw - o.vcsw, ivcsw - o.ivcsw};
  }
  Rusage operator+(const Rusage& o) const {
    return {cpu_us + o.cpu_us, vcsw + o.vcsw, ivcsw + o.ivcsw};
  }
};
double peak_rss_mib();
int thread_count();

/// Steps the calling thread round the CPUs the process may run on, one CPU
/// per step(). The vCPUs of a shared host can run at different speeds for
/// minutes, so a single-threaded op reads fast or slow by where the
/// scheduler put it;
/// stepping through every CPU gives each run the same mix. release()
/// restores the thread's mask, so threads created after it are not pinned;
/// the destructor does too.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void step();
  void release();
  /// The CPU of the last step(), or -1 when the thread is not rotating.
  [[nodiscard]] int current() const { return current_; }

 private:
  std::vector<int> cpus_;  // the CPUs in the thread's mask at construction
  std::size_t next_ = 0;
  int current_ = -1;
};

/// What a measured block of ops saw. Workloads extend it with their own
/// counters and merge blocks through merge().
struct Phase {
  std::uint64_t ops = 0;
  std::int64_t busy_ns = 0;  // timed wall time
  double call_ns = 0;        // sum of per-op spans
  Rusage usage{};            // process-wide, over the timed wall time
  void merge(const Phase& o) {
    ops += o.ops;
    busy_ns += o.busy_ns;
    call_ns += o.call_ns;
    usage = usage + o.usage;
  }
  [[nodiscard]] double mean_op_ns() const {
    return call_ns / static_cast<double>(ops == 0 ? 1 : ops);
  }
};

/// The measurement of a traced run: @p pairs pairs of an untraced and a
/// traced block, seconds / (2 * pairs) each, so both kinds see the same
/// host. @p block(seconds, traced, into) measures one block and merges it
/// into @p into; it returns false to stop early (after a failed set-up).
template <class P, class Block>
void alternate_blocks(double seconds, int pairs, P& plain, P& traced, Block block) {
  const double each = seconds / (2.0 * pairs);
  for (int b = 0; b < pairs; ++b) {
    if (!block(each, false, plain) || !block(each, true, traced)) return;
  }
}

/// trace.overhead_share: the traced mean op time over the untraced one, minus 1.
void report_trace_overhead(Report& r, const Phase& plain, const Phase& traced);

/// setup_s: the median of the set-ups a run makes, some before it measures
/// and the rest after, so it follows the host over the whole run.
class SetupTimes {
 public:
  /// Runs @p make_setup, records its wall time, and returns its result.
  template <class F>
  auto time(F&& make_setup) {
    const auto t0 = Clock::now();
    auto result = make_setup();
    s_.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
    return result;
  }
  [[nodiscard]] std::size_t count() const { return s_.size(); }
  void report(Report& r) const { r.set("setup_s", median(s_), "s"); }

 private:
  std::vector<double> s_;
};

/// One PIR module through parse -> type check -> partition, with each
/// stage's wall time. The module and analysis stay alive as long as the
/// partition result that refers to them.
struct Compiled {
  std::unique_ptr<privagic::ir::Module> module;
  std::unique_ptr<privagic::sectype::TypeAnalysis> analysis;
  std::unique_ptr<privagic::partition::PartitionResult> program;
  double parse_us = 0;
  double check_us = 0;
  double partition_us = 0;
  std::uint64_t instructions = 0;
  std::uint64_t chunks = 0;
  std::string error;  // empty on success
};
Compiled compile(std::string_view source, privagic::sectype::Mode mode);

/// Spans and events of the traced run, kept in memory and written out as
/// Chrome trace_event JSON at exit. External callbacks record instant events
/// into the current op's buffer from whichever worker runs them; the app
/// thread reads that buffer once the op has returned (every worker event of
/// an op happens before the reply that ends the op), then calls end_op. The
/// first `keep_ops` ops are kept for the trace file; the rest only feed the
/// segment metrics, so memory stays bounded however long the run is.
class Tracer {
 public:
  enum Kind : std::uint8_t {
    kOp, kNetRecv, kNetSend, kClassify, kDeclassify, kLogLine,
    kParse, kCheck, kPartition, kLoad, kRun, kTeardown
  };
  struct Event {
    std::uint32_t op = 0;
    Kind kind = kOp;
    std::int64_t color = 0;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;  // == begin_ns for instant events
  };
  static constexpr std::size_t kPerOp = 64;

  explicit Tracer(std::size_t keep_ops) : keep_ops_(keep_ops) {}

  void instant(Kind kind, std::int64_t color) { span(kind, color, now_ns(), -1); }
  void span(Kind kind, std::int64_t color, std::int64_t begin, std::int64_t end) {
    const std::size_t i = cur_n_.fetch_add(1, std::memory_order_relaxed);
    if (i < kPerOp) {
      cur_[i] = Event{op_, kind, color, begin, end < 0 ? begin : end};
    }
  }
  /// The current op's events, in recording order.
  [[nodiscard]] const Event* current(std::size_t* n) const {
    const std::size_t got = cur_n_.load(std::memory_order_relaxed);
    *n = got < kPerOp ? got : kPerOp;
    return cur_.data();
  }
  /// Closes the current op with its span and starts the next one.
  void end_op(std::int64_t begin, std::int64_t end);
  /// Writes the kept events as Chrome trace_event JSON; false on I/O failure.
  bool write(const std::string& path, const std::string& process_name) const;

 private:
  std::size_t keep_ops_;
  std::uint32_t op_ = 0;
  std::array<Event, kPerOp> cur_{};
  std::atomic<std::size_t> cur_n_{0};
  std::vector<Event> kept_;
};

Outcome run_kv_request(const Options& opt);
Outcome run_kv_background(const Options& opt);
Outcome run_compile_large(const Options& opt);

}  // namespace perfbench
