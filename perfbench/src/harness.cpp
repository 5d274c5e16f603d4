#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <stdexcept>

namespace perfbench {

Quantile exact_quantile(std::vector<double> samples, double q) {
  Quantile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  // Nearest rank: the ceil(q*n)-th smallest sample (1-based).
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  out.value = samples[rank - 1];
  out.resolved = n - rank >= kMinSamplesBeyond;
  return out;
}

double sum_of(const std::vector<double>& samples) {
  return std::accumulate(samples.begin(), samples.end(), 0.0);
}

double mean_of(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  return sum_of(samples) / static_cast<double>(samples.size());
}

double median_of(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

long long SpanLog::add(const char* name, std::uint64_t op, Clock::time_point begin,
                       Clock::time_point end, long long parent) {
  spans_.push_back(Span{name, op, seconds_between(origin_, begin),
                        seconds_between(begin, end), thread_, parent});
  return static_cast<long long>(spans_.size()) - 1;
}

void SpanLog::append(const SpanLog& other) {
  const auto base = static_cast<long long>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += base;
    spans_.push_back(span);
  }
}

std::vector<double> SpanLog::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) out.push_back(span.duration_s);
  }
  return out;
}

void SpanLog::write_chrome_trace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"traceEvents\":[";
  char buffer[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buffer, sizeof(buffer),
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%llu,\"parent\":%lld}}",
                  i == 0 ? "" : ",", s.name, s.thread, s.start_s * 1e6,
                  s.duration_s * 1e6, static_cast<unsigned long long>(s.op), s.parent);
    out << buffer;
  }
  out << "\n]}\n";
}

MemoryUsage memory_usage() {
  MemoryUsage usage;
  std::ifstream status("/proc/self/status");
  std::string line;
  auto field_mb = [&](const char* key, double& into) {
    if (line.rfind(key, 0) == 0) {
      into = std::stod(line.substr(std::string(key).size())) / 1024.0;  // kB
    }
  };
  while (std::getline(status, line)) {
    field_mb("VmHWM:", usage.peak_rss_mb);
    field_mb("VmRSS:", usage.rss_mb);
    field_mb("VmSize:", usage.vm_mb);
  }
  return usage;
}

void RunResult::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 5) failures.push_back(why);
}

void Pass::time_windows(double width_s) {
  edges_s.assign(1, 0.0);
  for (double edge = width_s; edge <= elapsed_s - width_s / 2; edge += width_s) {
    edges_s.push_back(edge);
  }
  edges_s.push_back(elapsed_s);
}

std::vector<WindowStats> window_stats(const Pass& pass) {
  std::vector<double> edges = pass.edges_s;
  if (edges.size() < 2) edges = {0.0, pass.elapsed_s};
  std::vector<std::vector<double>> latencies(edges.size() - 1);
  for (std::size_t i = 0; i < pass.latencies_s.size(); ++i) {
    // Window w holds the operations done in (edges[w], edges[w + 1]].
    auto upper = std::lower_bound(edges.begin() + 1, edges.end(), pass.done_s[i]);
    if (upper == edges.end()) --upper;
    latencies[static_cast<std::size_t>(upper - edges.begin()) - 1].push_back(pass.latencies_s[i]);
  }
  std::vector<WindowStats> stats;
  for (std::size_t w = 0; w < latencies.size(); ++w) {
    const double width = edges[w + 1] - edges[w];
    if (latencies[w].empty() || width <= 0) continue;
    stats.push_back({static_cast<double>(latencies[w].size()) / width,
                     exact_quantile(latencies[w], 0.5), exact_quantile(latencies[w], 0.9)});
  }
  return stats;
}

void report_end_to_end(RunResult& result, const Pass& pass, double setup_s,
                       double peak_rss_mb) {
  const auto windows = window_stats(pass);
  std::vector<double> rate, p50, p90;
  bool resolved = !windows.empty();
  for (const WindowStats& window : windows) {
    rate.push_back(window.ops_per_s);
    p50.push_back(window.p50.value);
    p90.push_back(window.p90.value);
    resolved = resolved && window.p90.resolved;
  }
  const auto best = [](const std::vector<double>& v, bool highest) {
    if (v.empty()) return 0.0;
    return highest ? *std::max_element(v.begin(), v.end()) : *std::min_element(v.begin(), v.end());
  };
  result.set("ops_per_s", best(rate, true));
  result.set("latency_p50_ms", best(p50, false) * 1e3);
  result.set("latency_p90_ms", best(p90, false) * 1e3);
  result.set("setup_s", setup_s);
  result.set("peak_rss_mb", peak_rss_mb);
  char line[240];
  std::snprintf(line, sizeof(line),
                "%zu windows, %lld operations in %.3f s; per window: ops_per_s %.4g..%.4g "
                "(median %.4g), p90 %.4g..%.4g ms (median %.4g ms)",
                windows.size(), pass.ops, pass.elapsed_s, best(rate, false), best(rate, true),
                median_of(rate), best(p90, false) * 1e3, best(p90, true) * 1e3,
                median_of(p90) * 1e3);
  result.note(line);
  result.note("whole pass: " + describe_latency(pass.latencies_s));
  if (!resolved) {
    result.note("WARNING: a window has fewer than 10 samples beyond its p90");
  }
}

std::vector<double> best_per_input(const Pass& pass, std::size_t distinct) {
  std::vector<double> best;
  for (std::size_t i = 0; i < pass.latencies_s.size(); ++i) {
    if (i < distinct) {
      best.push_back(pass.latencies_s[i]);
    } else {
      best[i % distinct] = std::min(best[i % distinct], pass.latencies_s[i]);
    }
  }
  return best;
}

void report_best_of(RunResult& result, const Pass& pass, std::size_t distinct, double setup_s,
                    double peak_rss_mb) {
  const std::vector<double> best = best_per_input(pass, distinct);
  const Quantile p50 = exact_quantile(best, 0.5);
  const Quantile p90 = exact_quantile(best, 0.9);
  const double total = sum_of(best);
  result.set("ops_per_s", total > 0 ? static_cast<double>(best.size()) / total : 0.0);
  result.set("latency_p50_ms", p50.value * 1e3);
  result.set("latency_p90_ms", p90.value * 1e3);
  result.set("setup_s", setup_s);
  result.set("peak_rss_mb", peak_rss_mb);
  char line[240];
  std::snprintf(line, sizeof(line),
                "%lld operations in %.3f s, each of %zu inputs run %.1f times; fastest run of "
                "each input: ",
                pass.ops, pass.elapsed_s, best.size(),
                best.empty() ? 0.0 : static_cast<double>(pass.ops) / static_cast<double>(best.size()));
  result.note(line + describe_latency(best));
  result.note("every run: " + describe_latency(pass.latencies_s));
  if (!p90.resolved) {
    result.note("WARNING: fewer than 10 inputs lie beyond the p90");
  }
}

void report_trace_overhead(RunResult& result, const Pass& untraced, const Pass& traced) {
  const double base = untraced.seconds_per_op();
  result.set("obs.trace_overhead", base > 0 ? traced.seconds_per_op() / base : 0.0);
}

std::string describe_latency(const std::vector<double>& latencies_s) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(4);
  const char* sep = "";
  for (double q : {0.5, 0.9, 0.99}) {
    Quantile quantile = exact_quantile(latencies_s, q);
    out << sep << "p" << static_cast<int>(std::lround(q * 100)) << "="
        << quantile.value * 1e3 << " ms";
    if (!quantile.resolved) out << " (unresolved)";
    sep = ", ";
  }
  out << " over " << latencies_s.size() << " samples";
  return out.str();
}

}  // namespace perfbench
