// Helpers the workload implementations share.
#pragma once

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>

#include "bench.h"
#include "idnscope/obs/metrics.h"

namespace perfbench {


// Running FNV-1a digest of a sequence of answers.
class Digest {
 public:
  void u(std::uint64_t value) { hash_ = fnv1a_u64(hash_, value); }
  void s(std::string_view bytes) { hash_ = fnv1a(hash_, bytes); }
  void f(double value) { u(std::bit_cast<std::uint64_t>(value)); }
  std::uint64_t value() const { return hash_; }
  std::string hex() const { return hex64(hash_); }

 private:
  std::uint64_t hash_ = kFnvBasis;
};

// Moves the calling thread to the n-th CPU it may run on (counting round),
// then lets it run on all of them again, so that threads it starts later
// may use every CPU.  On a shared host one CPU can run 40% slower than
// another for seconds at a time, so a thread that stays on one CPU times
// that CPU; a workload moves its thread before each repeat of a
// single-threaded step, and the repeats' median or mean then measures the
// step on a typical CPU.
void move_to_cpu(unsigned n);

// Time one call into the library: always returns its wall seconds, and
// records a layer span when tracing is on.
template <typename Fn>
double timed_call(Tracer& tracer, const char* name, Fn&& fn) {
  const LayerScope scope(tracer, name);
  const Stopwatch watch;
  fn();
  return watch.seconds();
}

// Executor effort at one moment: dispatches and chunks from the metrics
// registry, worker spans from the library's trace table.
struct ExecutorCounts {
  std::uint64_t invocations = 0;
  std::uint64_t chunks = 0;
  std::uint64_t worker_spans = 0;
  std::uint64_t batches = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;

  static ExecutorCounts read();
  // Adds the effort counted between two readings.
  void add(const ExecutorCounts& before, const ExecutorCounts& after);
  // Chunks claimed per worker span opened since `before`.
  double useful_ratio_since(const ExecutorCounts& before) const;
};

// What a serving workload's sink learns about each dispatched batch in a
// traced run: whether the memo answered all of it (the cache_misses counter
// delta read in the sink), its dispatch time and how long it took to fill.
class BatchSplit {
 public:
  BatchSplit();
  void start();  // call when the batches to report on begin
  void observe(double batch_ms, double fill_ms);
  // serve.engine.* and runtime.parallel.* metrics of the batches observed
  // between the two executor readings.
  void report(RunResult& result, const ExecutorCounts& before,
              const ExecutorCounts& after, double memo_growth_mb) const;

 private:
  idnscope::obs::Counter misses_;
  std::uint64_t last_misses_ = 0;
  double hit_batch_ms_ = 0.0;
  std::uint64_t hit_batches_ = 0;
  double miss_batch_ms_ = 0.0;
  std::uint64_t miss_queries_ = 0;
  double fill_ms_ = 0.0;
  std::uint64_t batches_ = 0;
};

// Per-layer metrics every workload reports (zero where the workload does not
// exercise the layer): counts and ratios from the registry counters' growth
// between `before` and `after`, which bracket the work the workload names,
// and means from the library's own trace table.  Workloads add their own on
// top.
void add_common_layer_metrics(RunResult& result,
                              const idnscope::obs::Snapshot& before,
                              const idnscope::obs::Snapshot& after);

// Mean wall seconds of one call of a span the library itself records, by
// its exact trace path (0 when it never ran).
double library_span_mean_s(std::string_view path);

// Size of the provenance ledger serialized the way obs::emit_metrics
// writes PROV_<name>.jsonl.
std::uint64_t provenance_payload_bytes(const char* name);

}  // namespace perfbench
