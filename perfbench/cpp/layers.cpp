#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

#include "bench.h"
#include "idnscope/obs/export.h"
#include "idnscope/obs/metrics.h"
#include "idnscope/obs/provenance.h"
#include "idnscope/obs/trace.h"
#include "idnscope/render/renderer.h"
#include "workload.h"

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       kEpoch)
      .count();
}

double current_rss_mb() {
  std::FILE* statm = std::fopen("/proc/self/statm", "r");
  if (statm == nullptr) {
    return 0.0;
  }
  unsigned long size = 0;
  unsigned long resident = 0;
  const int fields = std::fscanf(statm, "%lu %lu", &size, &resident);
  std::fclose(statm);
  if (fields != 2) {
    return 0.0;
  }
  return static_cast<double>(resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

void move_to_cpu(unsigned n) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    return;
  }
  const int count = CPU_COUNT(&allowed);
  if (count < 2) {
    return;
  }
  int skip = static_cast<int>(n % static_cast<unsigned>(count));
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed) && skip-- == 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      if (sched_setaffinity(0, sizeof(one), &one) == 0) {
        sched_setaffinity(0, sizeof(allowed), &allowed);
      }
      return;
    }
  }
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    return 0.0;
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

int Tracer::open(const char* name) {
  if (!enabled_) {
    return -1;
  }
  LayerSpan span;
  span.name = name;
  span.parent = stack_.empty() ? -1 : stack_.back();
  span.rss_before_mb = current_rss_mb();
  span.peak_before_mb = peak_rss_mb();
  span.start_s = now_s();
  spans_.push_back(std::move(span));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::close(int index) {
  if (index < 0) {
    return;
  }
  LayerSpan& span = spans_[static_cast<std::size_t>(index)];
  span.end_s = now_s();
  span.rss_after_mb = current_rss_mb();
  span.peak_after_mb = peak_rss_mb();
  stack_.pop_back();
}

std::vector<double> Tracer::durations(std::string_view name) const {
  std::vector<double> out;
  for (const LayerSpan& span : spans_) {
    if (span.name == name) {
      out.push_back(span.end_s - span.start_s);
    }
  }
  return out;
}

double Tracer::median(std::string_view name) const {
  return perfbench::median(durations(name));
}

double Tracer::max_rss_growth(std::string_view name) const {
  double growth = 0.0;
  for (const LayerSpan& span : spans_) {
    if (span.name == name) {
      growth = std::max(growth, span.rss_after_mb - span.rss_before_mb);
    }
  }
  return growth;
}

LatencyHistogram::LatencyHistogram()
    : buckets_((std::size_t{65} - kSubBits) << (kSubBits - 1), 0) {}

void LatencyHistogram::add_ns(std::uint64_t ns) {
  constexpr std::uint64_t kExact = std::uint64_t{1} << kSubBits;
  std::size_t index = 0;
  if (ns < kExact) {
    index = static_cast<std::size_t>(ns);
  } else {
    const int msb = 63 - std::countl_zero(ns);
    const int shift = msb - (kSubBits - 1);
    const std::uint64_t sub = ns >> shift;  // [2^(kSubBits-1), 2^kSubBits)
    index = static_cast<std::size_t>(
        kExact + (static_cast<std::uint64_t>(shift - 1) << (kSubBits - 1)) +
        (sub - (kExact >> 1)));
  }
  ++buckets_[index];
  ++count_;
}

double LatencyHistogram::quantile_us(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  constexpr std::uint64_t kExact = std::uint64_t{1} << kSubBits;
  constexpr std::uint64_t kHalf = kExact >> 1;
  // Rank of the wanted sample (0-based, fractional), then linear
  // interpolation across the bucket that holds it.
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t n = buckets_[i];
    if (n == 0 || static_cast<double>(seen + n) <= rank) {
      seen += n;
      continue;
    }
    double lower = 0.0;
    double width = 1.0;
    if (i < kExact) {
      lower = static_cast<double>(i);
    } else {
      const std::uint64_t rel = i - kExact;
      const int shift = static_cast<int>(rel >> (kSubBits - 1)) + 1;
      const std::uint64_t sub = kHalf + (rel & (kHalf - 1));
      lower = static_cast<double>(sub << shift);
      width = static_cast<double>(std::uint64_t{1} << shift);
    }
    const double within =
        (rank - static_cast<double>(seen) + 0.5) / static_cast<double>(n);
    return (lower + std::clamp(within, 0.0, 1.0) * width) / 1000.0;
  }
  return 0.0;
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const std::size_t below = static_cast<std::size_t>(rank);
  const std::size_t above = std::min(below + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(below);
  return values[below] + frac * (values[above] - values[below]);
}

std::string spread_summary(std::vector<double> values) {
  std::string out;
  for (const double q : {0.0, 0.10, 0.25, 0.50, 0.75, 1.0}) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%s%.6g", out.empty() ? "" : " ",
                  quantile(values, q));
    out += buffer;
  }
  return out;
}

std::string latency_summary(const LatencyHistogram& histogram) {
  std::string out;
  for (const double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.99}) {
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%s%.6g", out.empty() ? "" : " ",
                  histogram.quantile_us(q));
    out += buffer;
  }
  return out;
}

std::uint64_t fnv1a_u64(std::uint64_t hash, std::uint64_t value) {
  return (hash ^ value) * 1099511628211ull;
}

std::uint64_t fnv1a(std::uint64_t hash, std::string_view bytes) {
  std::size_t i = 0;
  for (; i + 8 <= bytes.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, bytes.data() + i, 8);
    hash = fnv1a_u64(hash, word);
  }
  if (i < bytes.size()) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, bytes.data() + i, bytes.size() - i);
    hash = fnv1a_u64(hash, tail);
  }
  return fnv1a_u64(hash, bytes.size());  // length-terminated
}

std::string hex64(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

void RunResult::check(std::string name, bool ok, std::string detail) {
  if (!ok) {
    std::fprintf(stderr, "check failed: %s %s\n", name.c_str(),
                 detail.c_str());
  }
  checks.push_back(Check{std::move(name), ok, std::move(detail)});
}

bool RunResult::all_ok() const {
  return std::all_of(checks.begin(), checks.end(),
                     [](const Check& c) { return c.ok; });
}

namespace {

double ratio(std::uint64_t numerator, std::uint64_t denominator) {
  return denominator == 0 ? 0.0
                          : static_cast<double>(numerator) /
                                static_cast<double>(denominator);
}

// Bytes one full SSIM evaluation touches, from the render geometry of a
// typical brand-length label: two 8-bit images plus the five double-valued
// moment fields (two means, two variances, the covariance) the reference
// pipeline filters per call.
double ssim_bytes_per_eval() {
  const idnscope::render::GrayImage image =
      idnscope::render::render_ascii("example.com");
  const double pixels = static_cast<double>(image.pixels().size());
  return pixels * (2.0 * sizeof(std::uint8_t) + 5.0 * sizeof(double));
}

}  // namespace

void add_common_layer_metrics(RunResult& result,
                              const idnscope::obs::Snapshot& before,
                              const idnscope::obs::Snapshot& after) {
  const auto counter = [&](const char* name) -> std::uint64_t {
    const auto at = [name](const idnscope::obs::Snapshot& snap) {
      const auto it = snap.counters.find(name);
      return it == snap.counters.end() ? std::uint64_t{0} : it->second;
    };
    return at(after) - at(before);
  };
  auto& layer = result.per_layer;
  layer["core.zone_scan.seam_dup_ratio"] = {
      ratio(counter("core.zone_scan.seam_dups"),
            counter("core.zone_scan.shard_candidates")),
      "ratio", counter("core.zone_scan.shard_candidates")};
  const std::uint64_t homograph_evals =
      counter("core.homograph.ssim_evaluations");
  const std::uint64_t sweep_evals = counter("core.availability.ssim_evaluations");
  layer["core.homograph.ssim_evaluations"] = {
      static_cast<double>(homograph_evals), "count"};
  layer["core.homograph.match_ratio"] = {
      ratio(counter("core.homograph.matches"), homograph_evals), "ratio",
      homograph_evals};
  layer["core.availability.pass_ratio"] = {
      ratio(counter("core.availability.homographic"), sweep_evals), "ratio",
      sweep_evals};
  layer["render.ssim.evaluations"] = {
      static_cast<double>(homograph_evals + sweep_evals), "count"};
  layer["render.ssim.bytes_per_eval"] = {ssim_bytes_per_eval(), "bytes"};
  layer["core.delta.redetected"] = {
      static_cast<double>(counter("core.delta.redetected")), "count"};
  layer["obs.provenance.records"] = {
      static_cast<double>(counter("obs.provenance.records")), "count"};

  // Skeleton-index builds, wherever the library opened them.
  std::uint64_t index_calls = 0;
  std::uint64_t index_ns = 0;
  for (const auto& [path, stats] : idnscope::obs::trace_table()) {
    if (path == "core.skeleton_index.build" ||
        path.ends_with("/core.skeleton_index.build")) {
      index_calls += stats.calls;
      index_ns += stats.total_ns;
    }
  }
  layer["core.skeleton_index.build_ms"] = {
      index_calls == 0 ? 0.0
                       : static_cast<double>(index_ns) / 1e6 /
                             static_cast<double>(index_calls),
      "ms", index_calls};
}

ExecutorCounts ExecutorCounts::read() {
  ExecutorCounts counts;
  auto& registry = idnscope::obs::Registry::global();
  counts.invocations = registry.counter("runtime.parallel.invocations").value();
  counts.chunks = registry.counter("runtime.parallel.chunks").value();
  counts.batches = registry.counter("serve.engine.batches").value();
  counts.cache_hits = registry.counter("serve.engine.cache_hits").value();
  counts.cache_misses = registry.counter("serve.engine.cache_misses").value();
  for (const auto& [path, stats] : idnscope::obs::trace_table()) {
    if (path == "runtime.parallel.worker" ||
        path.ends_with("/runtime.parallel.worker")) {
      counts.worker_spans += stats.calls;
    }
  }
  return counts;
}

void ExecutorCounts::add(const ExecutorCounts& before,
                         const ExecutorCounts& after) {
  invocations += after.invocations - before.invocations;
  chunks += after.chunks - before.chunks;
  worker_spans += after.worker_spans - before.worker_spans;
  batches += after.batches - before.batches;
  cache_hits += after.cache_hits - before.cache_hits;
  cache_misses += after.cache_misses - before.cache_misses;
}

double ExecutorCounts::useful_ratio_since(const ExecutorCounts& before) const {
  return ratio(chunks - before.chunks, worker_spans - before.worker_spans);
}

BatchSplit::BatchSplit()
    : misses_(idnscope::obs::Registry::global().counter(
          "serve.engine.cache_misses")) {}

void BatchSplit::start() { last_misses_ = misses_.value(); }

void BatchSplit::observe(double batch_ms, double fill_ms) {
  const std::uint64_t misses = misses_.value();
  const std::uint64_t batch_misses = misses - last_misses_;
  last_misses_ = misses;
  if (batch_misses == 0) {
    hit_batch_ms_ += batch_ms;
    ++hit_batches_;
  } else {
    miss_batch_ms_ += batch_ms;
    miss_queries_ += batch_misses;
  }
  fill_ms_ += fill_ms;
  ++batches_;
}

void BatchSplit::report(RunResult& result, const ExecutorCounts& before,
                        const ExecutorCounts& after,
                        double memo_growth_mb) const {
  auto& layer = result.per_layer;
  const std::uint64_t hits = after.cache_hits - before.cache_hits;
  const std::uint64_t misses = after.cache_misses - before.cache_misses;
  const std::uint64_t batches = after.batches - before.batches;
  layer["serve.engine.memo_hit_ratio"] = {ratio(hits, hits + misses), "ratio",
                                          hits + misses};
  layer["serve.engine.hit_batch_us"] = {
      hit_batches_ == 0 ? 0.0
                        : hit_batch_ms_ * 1e3 / static_cast<double>(hit_batches_),
      "us", hit_batches_};
  layer["serve.engine.miss_us"] = {
      miss_queries_ == 0
          ? 0.0
          : miss_batch_ms_ * 1e3 / static_cast<double>(miss_queries_),
      "us", miss_queries_};
  layer["serve.engine.fill_wait_us"] = {
      batches_ == 0 ? 0.0 : fill_ms_ * 1e3 / static_cast<double>(batches_),
      "us", batches_};
  layer["serve.engine.memo_growth_mb"] = {memo_growth_mb, "MB"};
  layer["runtime.parallel.dispatches_per_batch"] = {
      ratio(after.invocations - before.invocations, batches), "ratio",
      batches};
  layer["runtime.parallel.useful_worker_ratio"] = {
      after.useful_ratio_since(before), "ratio"};
}

double library_span_mean_s(std::string_view path) {
  const auto table = idnscope::obs::trace_table();
  const auto it = table.find(std::string(path));
  return it == table.end() || it->second.calls == 0
             ? 0.0
             : static_cast<double>(it->second.total_ns) / 1e9 /
                   static_cast<double>(it->second.calls);
}

std::uint64_t provenance_payload_bytes(const char* name) {
  const auto& ledger = idnscope::obs::Ledger::global();
  return idnscope::obs::provenance_to_jsonl(name, ledger.merged(),
                                            ledger.dropped(),
                                            idnscope::obs::GeneratedBy{})
      .size();
}

}  // namespace perfbench
