// Shared pieces of the benchmark binary: run configuration, the result
// record every workload fills in, the benchmark's own layer spans, RSS
// probes, latency histograms and the verdict checksum.
//
// Layers are measured from outside: a workload wraps each public call it
// makes into the library in a LayerScope.  With tracing off (the timed runs)
// a scope costs one branch; with tracing on it records wall time and the
// process's current and peak RSS before and after the call.  Nothing here
// opens a span inside the library.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 20170921;
  unsigned seconds = 10;
  bool trace = false;
  unsigned workers = 0;  // executor workers handed to every threads knob
  std::string work_dir;  // working files (zone files) live here
};

// Seconds on the steady clock since the process started measuring.
double now_s();

// Process RSS in MB: current (/proc/self/statm) and peak (getrusage).
double current_rss_mb();
double peak_rss_mb();

// One measured quantity of the run: the value, its unit and how many
// samples stand behind it (1 for a single measurement).
struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 1;
};

// One named correctness check.
struct Check {
  std::string name;
  bool ok = false;
  std::string detail;
};

// One call into the library, as the benchmark observed it.
struct LayerSpan {
  std::string name;
  int parent = -1;  // index into the span list, -1 at top level
  double start_s = 0.0;
  double end_s = 0.0;
  double rss_before_mb = 0.0;
  double rss_after_mb = 0.0;
  double peak_before_mb = 0.0;
  double peak_after_mb = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  const std::vector<LayerSpan>& spans() const { return spans_; }

  // Index of the opened span, or -1 when tracing is off.
  int open(const char* name);
  void close(int index);

  // Per-name aggregates over the closed spans.
  std::vector<double> durations(std::string_view name) const;
  double median(std::string_view name) const;
  // Largest current-RSS growth across any span of that name.
  double max_rss_growth(std::string_view name) const;

 private:
  bool enabled_;
  std::vector<LayerSpan> spans_;
  std::vector<int> stack_;
};

class LayerScope {
 public:
  LayerScope(Tracer& tracer, const char* name)
      : tracer_(tracer), index_(tracer.open(name)) {}
  ~LayerScope() { tracer_.close(index_); }
  LayerScope(const LayerScope&) = delete;
  LayerScope& operator=(const LayerScope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

// Wall-time stopwatch for the end-to-end metrics (always on).
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Log-linear latency histogram: exact counts, bounded memory, about 0.05%
// relative bucket width; quantiles interpolate inside the bucket.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add_ns(std::uint64_t ns);
  std::uint64_t count() const { return count_; }
  // Quantile in microseconds (q in [0, 1]).
  double quantile_us(double q) const;

 private:
  static constexpr int kSubBits = 11;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

double median(std::vector<double> values);
// Quantile q in [0, 1], by linear interpolation between order statistics.
double quantile(std::vector<double> values, double q);
// "min p10 p25 p50 p75 max" of a per-round series, for the run record.
std::string spread_summary(std::vector<double> values);
// "p10 p25 p50 p75 p90 p99" of a latency histogram in us, for the run record.
std::string latency_summary(const LatencyHistogram& histogram);

// FNV-1a over 64-bit words (strings: 8-byte little-endian chunks, the
// last one zero-padded, then the length).
inline constexpr std::uint64_t kFnvBasis = 14695981039346656037ull;
std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes);
std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t value);
std::string hex64(std::uint64_t value);

// What a workload hands back to main(): the result record.
struct RunResult {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Check> checks;
  // Answers a run must reproduce for its seed (compared by run.py against
  // the recorded values, and across worker counts).
  std::map<std::string, std::string> digests;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  // Workload facts worth keeping with the record (scale, days, ...).
  std::map<std::string, std::string> facts;

  void check(std::string name, bool ok, std::string detail = "");
  bool all_ok() const;
};

RunResult run_census(const RunConfig& config, Tracer& tracer);
RunResult run_serve_churn(const RunConfig& config, Tracer& tracer);

}  // namespace perfbench
