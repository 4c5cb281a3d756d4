#include "bench.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "ir/parser.hpp"

namespace perfbench {

void Report::set(const std::string& name, double value, const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back({name, value, unit});
}

double percentile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

double median(std::vector<double> v) { return percentile(v, 0.5); }

double trimmed_mean(std::vector<double> v, double trim) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto cut = static_cast<std::size_t>(trim * static_cast<double>(v.size()));
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

void LatencyHistogram::add(std::int64_t ns) {
  const auto v = static_cast<std::uint64_t>(std::max<std::int64_t>(ns, 0));
  std::size_t idx = v;
  if (v >= 1024) {
    const int msb = 63 - __builtin_clzll(v);
    const int shift = msb - kSubBits;
    idx = 1024 + static_cast<std::size_t>(msb - 10) * 512 + ((v >> shift) - 512);
  }
  ++counts_[idx];
  ++total_;
}

double LatencyHistogram::percentile(double q) const {
  if (total_ == 0) return 0.0;
  const auto rank = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(total_))), 1, total_);
  std::uint64_t seen = 0;
  for (std::size_t idx = 0; idx < counts_.size(); ++idx) {
    seen += counts_[idx];
    if (seen < rank) continue;
    if (idx < 1024) return static_cast<double>(idx);
    const std::size_t octave = (idx - 1024) / 512;  // msb - 10
    const std::uint64_t sub = (idx - 1024) % 512 + 512;
    const int shift = static_cast<int>(octave) + 10 - kSubBits;
    const double lo = static_cast<double>(sub << shift);
    return lo + static_cast<double>(1ull << shift) / 2.0;
  }
  return 0.0;
}

void finish(Outcome& out) {
  out.report.set("fail_share",
                 out.attempted == 0 ? 1.0
                                    : static_cast<double>(out.failed) /
                                          static_cast<double>(out.attempted),
                 "fraction");
  out.report.set("peak_rss_mib", peak_rss_mib(), "MiB");
}

void report_trace_overhead(Report& r, const Phase& plain, const Phase& traced) {
  r.set("trace.overhead_share", traced.mean_op_ns() / plain.mean_op_ns() - 1.0, "fraction");
}

Rusage Rusage::now() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const auto us = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e6 + static_cast<double>(tv.tv_usec);
  };
  return {us(ru.ru_utime) + us(ru.ru_stime), static_cast<double>(ru.ru_nvcsw),
          static_cast<double>(ru.ru_nivcsw)};
}

double peak_rss_mib() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "Threads:") {
      int n = 0;
      status >> n;
      return n;
    }
  }
  return 0;
}

CpuRotation::CpuRotation() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &mask)) cpus_.push_back(c);
  }
}

void CpuRotation::step() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  current_ = cpus_[next_++ % cpus_.size()];
  CPU_SET(current_, &one);
  sched_setaffinity(0, sizeof one, &one);
}

void CpuRotation::release() {
  if (cpus_.size() < 2) return;
  cpu_set_t all;
  CPU_ZERO(&all);
  for (const int c : cpus_) CPU_SET(c, &all);
  sched_setaffinity(0, sizeof all, &all);
  current_ = -1;
}

namespace {

double us_since(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

}  // namespace

Compiled compile(std::string_view source, privagic::sectype::Mode mode) {
  using namespace privagic;  // NOLINT(google-build-using-namespace)
  Compiled c;
  auto t0 = Clock::now();
  auto parsed = ir::parse_module(source);
  c.parse_us = us_since(t0);
  if (!parsed.ok()) {
    c.error = "parse: " + parsed.message();
    return c;
  }
  c.module = std::move(parsed).value();
  c.instructions = c.module->instruction_count();

  t0 = Clock::now();
  c.analysis = std::make_unique<sectype::TypeAnalysis>(*c.module, mode);
  const bool typed = c.analysis->run();
  c.check_us = us_since(t0);
  if (!typed) {
    c.error = "type check: " + c.analysis->diagnostics().to_string();
    return c;
  }

  t0 = Clock::now();
  auto partitioned = partition::partition_module(*c.analysis);
  c.partition_us = us_since(t0);
  if (!partitioned.ok()) {
    c.error = "partition: " + partitioned.message();
    return c;
  }
  c.program = std::move(partitioned).value();
  c.chunks = c.program->chunks.size();
  return c;
}

void Tracer::end_op(std::int64_t begin, std::int64_t end) {
  std::size_t n = 0;
  const Event* ev = current(&n);
  if (op_ < keep_ops_) {
    kept_.push_back(Event{op_, kOp, 0, begin, end});
    kept_.insert(kept_.end(), ev, ev + n);
  }
  ++op_;
  cur_n_.store(0, std::memory_order_relaxed);
}

bool Tracer::write(const std::string& path, const std::string& process_name) const {
  static constexpr const char* kNames[] = {
      "op", "net_recv", "net_send", "classify", "declassify", "log_line",
      "parse", "check", "partition", "load", "run", "teardown"};
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::int64_t t0 = kept_.empty() ? 0 : kept_.front().begin_ns;
  std::fprintf(f, "{\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
               "\"args\":{\"name\":\"%s\"}}",
               process_name.c_str());
  for (const Event& e : kept_) {
    // tid = simulated enclave color, so each enclave gets its own track;
    // instant events become 0-length complete events carrying their op id.
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%lld,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u}}",
                 kNames[e.kind], static_cast<long long>(e.color),
                 static_cast<double>(e.begin_ns - t0) / 1e3,
                 static_cast<double>(e.end_ns - e.begin_ns) / 1e3, e.op);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
