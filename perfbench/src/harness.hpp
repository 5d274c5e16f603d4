// Measurement plumbing shared by every workload: exact-sample quantiles,
// an in-memory span log, process memory probes and the result record
// that main() prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double seconds_since(Clock::time_point from) {
  return seconds_between(from, Clock::now());
}

// Percentiles are read from the exact samples (nearest rank), never from
// obs::Histogram, whose base-2 buckets bound a tail only within 2x.
// A percentile counts as measured only when at least
// kMinSamplesBeyond samples lie above it.
inline constexpr std::size_t kMinSamplesBeyond = 10;

struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;  // size of the sample set it was read from
  bool resolved = false;    // at least kMinSamplesBeyond samples beyond it
};

// Nearest-rank q-quantile (q in (0, 1)) of `samples`; sorts a copy.
Quantile exact_quantile(std::vector<double> samples, double q);
double sum_of(const std::vector<double>& samples);
double mean_of(const std::vector<double>& samples);
double median_of(std::vector<double> samples);

// Set-up runs this many times per run; setup_s is the median.
inline constexpr int kSetupRepeats = 5;

// One timed call into a layer. Spans of one operation share `op`;
// `parent` is the index of the enclosing span or -1.
struct Span {
  const char* name = "";
  std::uint64_t op = 0;
  double start_s = 0.0;     // seconds since the log's origin
  double duration_s = 0.0;
  int thread = 0;
  long long parent = -1;
};

// Append-only, one per thread; merged and written when the run ends.
class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin, int thread = 0)
      : origin_(origin), thread_(thread) {}

  // Records [begin, end) and returns the span's index in this log.
  long long add(const char* name, std::uint64_t op, Clock::time_point begin,
                Clock::time_point end, long long parent = -1);
  void append(const SpanLog& other);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  // Durations (seconds) of every span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  // Chrome trace-event JSON ("X" events, microseconds).
  void write_chrome_trace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  int thread_ = 0;
  std::vector<Span> spans_;
};

// /proc/self/status fields, in MiB.
struct MemoryUsage {
  double peak_rss_mb = 0.0;  // VmHWM
  double rss_mb = 0.0;       // VmRSS
  double vm_mb = 0.0;        // VmSize
};
MemoryUsage memory_usage();

// What a workload reports: metric values by the names BENCHMARK.json
// declares (main() attaches the units), plus human-readable notes.
struct RunResult {
  long long attempted = 0;
  long long failed = 0;
  bool harness_ok = true;  // self-tests and stage-sum checks held
  std::map<std::string, double> values;
  std::vector<std::string> notes;
  std::vector<std::string> failures;  // first few failure descriptions
  SpanLog trace{Clock::now()};        // the traced pass's spans, if any

  void fail(const std::string& why);
  void set(const std::string& name, double value) { values[name] = value; }
  void note(const std::string& line) { notes.push_back(line); }
};

// One timed pass of a workload: per-operation latencies and completion
// times, and the wall time the pass took, cut into windows by edges_s.
struct Pass {
  std::vector<double> latencies_s;  // per operation
  std::vector<double> done_s;       // per operation, since the pass began
  std::vector<double> edges_s;      // ascending window bounds; empty: one window
  long long ops = 0;
  double elapsed_s = 0.0;

  void record(double latency_s, double done) {
    latencies_s.push_back(latency_s);
    done_s.push_back(done);
    ++ops;
  }
  // Windows of `width_s` each; a final window shorter than half of that
  // joins the one before it.
  void time_windows(double width_s);
  [[nodiscard]] double seconds_per_op() const { return ops > 0 ? elapsed_s / ops : 0.0; }
};

// Throughput and latency quantiles of one window.
struct WindowStats {
  double ops_per_s = 0.0;
  Quantile p50, p90;
};
std::vector<WindowStats> window_stats(const Pass& pass);

// Sets the end-to-end metrics from an untraced pass: the highest window
// rate and the lowest window p50 and p90. Every window carries the same
// traffic mix, and a neighbour on a shared host, whose load comes and goes
// over tens of seconds, can only slow a window down; so the best window is
// the one nearest the program's own speed. Notes the median window and
// the whole-pass quantiles with their sample counts.
void report_end_to_end(RunResult& result, const Pass& pass, double setup_s,
                       double peak_rss_mb);
// Each input's fastest time in a pass that repeats `distinct` inputs in
// a fixed order: operation i of the pass is a repeat of input i % distinct.
std::vector<double> best_per_input(const Pass& pass, std::size_t distinct);
// Sets the end-to-end metrics from best_per_input: ops_per_s is `distinct`
// over the sum of the best times, and the latency quantiles are read from
// the `distinct` best times. A neighbour on a shared host can only slow a
// call down, so the fastest repeat is the call with the least interference.
void report_best_of(RunResult& result, const Pass& pass, std::size_t distinct, double setup_s,
                    double peak_rss_mb);
// Sets obs.trace_overhead: traced / untraced wall time per operation.
void report_trace_overhead(RunResult& result, const Pass& untraced, const Pass& traced);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";  // scratch files (sockets, traces) go here
};

// Latency summary lines: p50, p90 and p99 with sample counts, each marked
// when fewer than kMinSamplesBeyond samples lie beyond it.
std::string describe_latency(const std::vector<double>& latencies_s);

}  // namespace perfbench
