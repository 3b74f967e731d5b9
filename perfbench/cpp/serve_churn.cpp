// serve_churn: queries served while new generations are published.  Each
// day the world first takes the day's delta (ecosystem::apply_delta, the
// registries' side), then the client advances one generation (the day's
// delta text in hand -> the next generation published) and submits that
// day's queries against it, whose memo starts empty.  It then submits the
// same queries once more: that warm pass is all memo hits, is checked
// against the cold answers, and feeds the memo-hit layer metrics, but stays
// out of the end-to-end metrics.
//
// The advance reads only the previous snapshot and the day's text, so it
// runs kAdvanceRepeats times a day from the same snapshot, and the last
// repeat's generation is published.  Each repeat starts on the next CPU in
// turn (move_to_cpu): timed on whichever CPU the thread sat on, the same
// day's advance differed by up to 40% between runs.  The mean over the
// run's repeats averages over the CPUs, as the query passes' workers do.
//
// The world and its delta stream are the same in every run (scenario seed
// kWorldSeed); --seed draws the query streams.  Timeline::next can register
// one fresh name twice in a day, which the apply paths then reject, and at
// this scale it does so for most scenario seeds within 20 days.  kWorldSeed's
// stream applies cleanly for 32 days and breaks on day 33.  The first set-up
// repeat applies the whole derived stream before anything is timed, and a
// stream that does not apply fails the run.
#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "bench.h"
#include "idnscope/ecosystem/timeline.h"
#include "idnscope/serve/engine.h"
#include "idnscope/serve/loadgen.h"
#include "idnscope/serve/publisher.h"
#include "verdict.h"
#include "workload.h"

namespace perfbench {

using namespace idnscope;

namespace {

constexpr std::size_t kBatch = 256;
constexpr std::size_t kDayQueries = 10000;
constexpr std::uint64_t kWorldSeed = 20170921;
// Set-up runs this many times per run; setup_s is their median.  A set-up
// takes half a second, so more repeats than census's three are cheap.
constexpr unsigned kSetupRepeats = 7;
// Repeats of each day's advance; an advance takes about 5 ms.
constexpr unsigned kAdvanceRepeats = 9;

ecosystem::Scenario churn_scenario() {
  ecosystem::Scenario scenario = ecosystem::Scenario::paper2017();
  scenario.seed = kWorldSeed;
  scenario.bulk_scale = 200;
  scenario.abuse_scale = 50;
  scenario.generate_filler = false;
  return scenario;
}

// The world takes one day's delta: the registries' side of a day, not part
// of the advance.  Empty on success, else the error.
std::string apply_to_world(ecosystem::Ecosystem& eco,
                           ecosystem::TimelineState& state,
                           const std::string& text) {
  const auto parsed = ecosystem::parse_delta(text);
  if (!parsed.ok()) {
    return parsed.error().message;
  }
  const auto applied = ecosystem::apply_delta(eco, state, parsed.value());
  return applied.ok() ? std::string() : applied.error().message;
}

// Empty when every day's delta text parses and applies to the world in
// order, else the first error.  Mutates `eco`.
std::string stream_error(ecosystem::Ecosystem& eco,
                         const std::vector<std::string>& delta_text) {
  ecosystem::TimelineState state = ecosystem::TimelineState::from(eco);
  for (std::size_t day = 0; day < delta_text.size(); ++day) {
    const std::string error = apply_to_world(eco, state, delta_text[day]);
    if (!error.empty()) {
      return "day " + std::to_string(day + 1) + ": " + error;
    }
  }
  return {};
}

// Stage times of one advance, in seconds.
struct AdvanceTimes {
  double parse = 0.0;
  double clone = 0.0;
  double apply = 0.0;
  double advance = 0.0;
  double total = 0.0;
};

// One advance from `prev`, the day's delta text in hand to the next
// generation built: parse, clone, Study::apply_delta with the snapshot's
// detectors, snapshot advance.  Null, with `error` set, when it fails.
std::shared_ptr<const serve::StudySnapshot> advance_once(
    const serve::StudySnapshot& prev, const std::string& text,
    Tracer& tracer, AdvanceTimes& times, std::string& error) {
  const LayerScope scope(tracer, "serve.advance");
  const Stopwatch watch;
  std::optional<ecosystem::DayDelta> delta;
  times.parse = timed_call(tracer, "ecosystem.parse_delta", [&] {
    auto parsed = ecosystem::parse_delta(text);
    if (parsed.ok()) {
      delta.emplace(std::move(parsed).value());
    } else {
      error = parsed.error().message;
    }
  });
  if (!delta) {
    return nullptr;
  }
  std::optional<core::Study> study;
  times.clone = timed_call(tracer, "core.study.clone",
                           [&] { study.emplace(prev.study().clone()); });
  times.apply = timed_call(tracer, "core.study.apply_delta", [&] {
    const core::DeltaDetectors detectors = prev.detectors();
    const auto applied = study->apply_delta(*delta, &detectors);
    if (!applied.ok()) {
      error = applied.error().message;
    }
  });
  if (!error.empty()) {
    return nullptr;
  }
  std::shared_ptr<const serve::StudySnapshot> next;
  times.advance = timed_call(tracer, "serve.snapshot.advance", [&] {
    next = std::make_shared<const serve::StudySnapshot>(
        prev, std::move(*study), prev.generation() + 1);
  });
  times.total = watch.seconds();
  return next;
}

std::vector<std::string> sorted_strings(
    const core::Study& study, std::span<const runtime::DomainId> ids) {
  std::vector<std::string> out = study.resolve(ids);
  std::sort(out.begin(), out.end());
  return out;
}

bool groups_equal(const core::Study& a, const core::Study& b) {
  const auto& ga = a.tld_groups();
  const auto& gb = b.tld_groups();
  if (ga.size() != gb.size()) {
    return false;
  }
  for (std::size_t i = 0; i < ga.size(); ++i) {
    if (ga[i].name != gb[i].name || ga[i].sld_count != gb[i].sld_count ||
        ga[i].idn_count != gb[i].idn_count ||
        ga[i].whois_count != gb[i].whois_count ||
        ga[i].blacklist_virustotal != gb[i].blacklist_virustotal ||
        ga[i].blacklist_360 != gb[i].blacklist_360 ||
        ga[i].blacklist_baidu != gb[i].blacklist_baidu ||
        ga[i].blacklist_total != gb[i].blacklist_total) {
      return false;
    }
  }
  return true;
}

}  // namespace

RunResult run_serve_churn(const RunConfig& config, Tracer& tracer) {
  RunResult result;
  const unsigned days = std::max(1u, config.seconds);
  result.facts["days"] = std::to_string(days);
  result.facts["day_queries"] = std::to_string(kDayQueries);

  const ecosystem::Scenario scenario = churn_scenario();
  result.facts["world_seed"] = std::to_string(scenario.seed);
  result.facts["bulk_scale"] = std::to_string(scenario.bulk_scale);
  result.facts["abuse_scale"] = std::to_string(scenario.abuse_scale);
  result.facts["filler"] = "false";

  // --- set-up: world, first snapshot, the delta stream as text.
  std::optional<ecosystem::Ecosystem> eco;
  std::shared_ptr<const serve::StudySnapshot> snapshot;
  std::optional<serve::SnapshotPublisher> publisher;
  std::optional<ecosystem::TimelineState> state;
  std::vector<std::string> delta_text;
  std::vector<double> setup_times;
  // Traced runs: registry counters from the last set-up repeat to the end
  // of the timed phase, the work of the world that is timed.
  obs::Snapshot counters_before;
  serve::SnapshotOptions snapshot_options;
  snapshot_options.study.threads = config.workers;
  {
    const LayerScope setup(tracer, "setup");
    for (unsigned r = 0; r < kSetupRepeats; ++r) {
      {
        const LayerScope scope(tracer, "serve.teardown");
        publisher.reset();
        snapshot.reset();
        state.reset();
        delta_text.clear();
        eco.reset();
      }
      if (tracer.enabled() && r + 1 == kSetupRepeats) {
        counters_before = obs::Registry::global().snapshot();
      }
      move_to_cpu(r);
      double seconds = 0.0;
      seconds += timed_call(tracer, "ecosystem.generate",
                            [&] { eco.emplace(ecosystem::generate(scenario)); });
      seconds += timed_call(tracer, "serve.snapshot.build", [&] {
        snapshot =
            std::make_shared<const serve::StudySnapshot>(*eco, snapshot_options);
        publisher.emplace(snapshot);
      });
      seconds += timed_call(tracer, "ecosystem.timeline", [&] {
        ecosystem::Timeline timeline(*eco);
        state.emplace(ecosystem::TimelineState::from(*eco));
        for (unsigned day = 1; day <= days; ++day) {
          delta_text.push_back(ecosystem::serialize_delta(timeline.next()));
        }
      });
      setup_times.push_back(seconds);
      if (r == 0) {
        // The first repeat's world is discarded by the next one, so its
        // stream is checked on it, outside the set-up time.
        const LayerScope scope(tracer, "ecosystem.stream_check");
        const std::string error = stream_error(*eco, delta_text);
        ++result.attempted;
        if (!error.empty()) {
          ++result.failed;
          result.check("serve_churn.clean_stream", false,
                       "world seed " + std::to_string(scenario.seed) +
                           ", bulk 1:" + std::to_string(scenario.bulk_scale) +
                           ", " + std::to_string(days) + " days: " + error);
          return result;
        }
      }
    }
  }

  // --- timed phase: advance, then that day's queries.
  std::vector<std::chrono::steady_clock::time_point> submitted;
  std::vector<std::uint64_t> day_hash;
  // Cold query latency: every query of the run, and the current day's.  The
  // slowest queries sit in each day's first batches, which find the memo
  // empty, so a p99 over the whole run rests on a few dozen batches and a
  // burst of load on a few days moves it.  The end-to-end percentiles are
  // therefore each day's, and the median over the days is reported.
  LatencyHistogram latency;
  std::vector<double> day_latency_us;
  std::vector<double> day_p50_us;
  std::vector<double> day_p99_us;
  BatchSplit split;  // traced runs only
  const bool traced = tracer.enabled();
  bool warm = false;
  std::size_t warm_answered = 0;
  std::uint64_t warm_mismatches = 0;
  std::optional<serve::QueryEngine> engine;
  engine.emplace(
      *publisher, serve::EngineOptions{kBatch, config.workers},
      [&](std::span<const serve::Verdict> verdicts, double batch_ms) {
        const auto done = std::chrono::steady_clock::now();
        const std::size_t first = warm ? warm_answered : day_hash.size();
        for (std::size_t i = 0; i < verdicts.size(); ++i) {
          const std::uint64_t hash = verdict_hash(verdicts[i]);
          if (warm) {
            warm_mismatches += hash != day_hash[first + i] ? 1 : 0;
            continue;
          }
          day_hash.push_back(hash);
          const auto ns = static_cast<std::uint64_t>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  done - submitted[first + i])
                  .count());
          latency.add_ns(ns);
          day_latency_us.push_back(static_cast<double>(ns) / 1e3);
        }
        if (warm) {
          warm_answered += verdicts.size();
        }
        if (traced) {
          split.observe(batch_ms, std::chrono::duration<double, std::milli>(
                                      submitted.back() - submitted[first])
                                      .count());
        }
      });

  std::vector<AdvanceTimes> advances;  // every repeat
  std::vector<double> publish_s;
  std::vector<double> world_s;  // ecosystem::apply_delta
  std::vector<serve::Query> queries;
  std::vector<double> day_qps;
  double query_seconds = 0.0;
  std::uint64_t queries_answered = 0;
  unsigned days_run = 0;
  // Traced runs: executor effort of the query passes alone, without the
  // advances' index builds.
  ExecutorCounts engine_effort;
  const double rss_before = current_rss_mb();
  split.start();
  {
    const LayerScope timed(tracer, "timed");
    for (unsigned day = 1; day <= days; ++day) {
      const std::string& text = delta_text[day - 1];
      std::string error;
      world_s.push_back(timed_call(tracer, "ecosystem.apply_delta", [&] {
        error = apply_to_world(*eco, *state, text);
      }));
      std::shared_ptr<const serve::StudySnapshot> next;
      for (unsigned r = 0; error.empty() && r < kAdvanceRepeats; ++r) {
        next.reset();  // the previous repeat's generation, outside the timing
        move_to_cpu((day - 1) * kAdvanceRepeats + r);
        AdvanceTimes times;
        next = advance_once(*snapshot, text, tracer, times, error);
        if (error.empty()) {
          advances.push_back(times);
        }
      }
      ++result.attempted;  // the day's advance
      if (!error.empty()) {
        ++result.failed;
        result.check("serve_churn.advance", false,
                     "day " + std::to_string(day) + ": " + error);
        break;
      }
      publish_s.push_back(timed_call(tracer, "serve.publish",
                                     [&] { publisher->publish(next); }));
      {
        const LayerScope scope(tracer, "serve.snapshot.retire");
        snapshot = std::move(next);
      }
      {
        // Input generation: outside every timed window.
        const LayerScope scope(tracer, "serve.loadgen.stream");
        serve::LoadGenerator loadgen(
            *snapshot, Rng(config.seed)
                           .fork("perfbench/serve_churn/day/" +
                                 std::to_string(day))
                           .next_u64());
        queries = loadgen.batch(kDayQueries);
      }
      const ExecutorCounts engine_before =
          traced ? ExecutorCounts::read() : ExecutorCounts{};
      {
        const LayerScope scope(tracer, "serve.engine.day");
        submitted.clear();
        day_hash.clear();
        const Stopwatch phase;
        for (const serve::Query& query : queries) {
          submitted.push_back(std::chrono::steady_clock::now());
          engine->submit(query);
        }
        engine->flush();
        const double seconds = phase.seconds();
        query_seconds += seconds;
        day_qps.push_back(static_cast<double>(queries.size()) / seconds);
        day_p50_us.push_back(quantile(day_latency_us, 0.50));
        day_p99_us.push_back(quantile(day_latency_us, 0.99));
        day_latency_us.clear();
      }
      {
        const LayerScope scope(tracer, "serve.engine.day_warm");
        submitted.clear();
        warm = true;
        warm_answered = 0;
        for (const serve::Query& query : queries) {
          submitted.push_back(std::chrono::steady_clock::now());
          engine->submit(query);
        }
        engine->flush();
        warm = false;
      }
      if (traced) {
        engine_effort.add(engine_before, ExecutorCounts::read());
      }
      queries_answered += queries.size();
      result.attempted += 2 * queries.size();
      Digest d;
      for (const std::uint64_t hash : day_hash) {
        d.u(hash);
      }
      result.digests["day" + std::to_string(day)] = d.hex();
      ++days_run;
    }
  }
  const double rss_after = current_rss_mb();
  const obs::Snapshot counters_after =
      tracer.enabled() ? obs::Registry::global().snapshot() : obs::Snapshot{};
  result.facts["days_run"] = std::to_string(days_run);

  const auto advance_median = [&](double AdvanceTimes::*field) {
    std::vector<double> v;
    for (const AdvanceTimes& t : advances) {
      v.push_back(t.*field);
    }
    return median(v);
  };
  std::vector<double> advance_totals;
  double advance_sum = 0.0;
  for (const AdvanceTimes& t : advances) {
    advance_totals.push_back(t.total);
    advance_sum += t.total;
  }
  double publish_sum = 0.0;
  for (const double seconds : publish_s) {
    publish_sum += seconds;
  }
  // The mean advance over every repeat of the run, plus the mean publish.
  const double advance_mean_s =
      advances.empty()
          ? 0.0
          : advance_sum / static_cast<double>(advances.size()) +
                publish_sum / static_cast<double>(publish_s.size());
  result.end_to_end["setup_s"] = {median(setup_times), "s",
                                  setup_times.size()};
  result.end_to_end["study_ms"] = {advance_mean_s * 1e3, "ms",
                                   advances.size()};
  result.end_to_end["qps"] = {
      query_seconds > 0.0 ? static_cast<double>(queries_answered) / query_seconds
                          : 0.0,
      "1/s", queries_answered};
  result.end_to_end["query_p50_us"] = {median(day_p50_us), "us",
                                       latency.count()};
  result.end_to_end["query_p99_us"] = {median(day_p99_us), "us",
                                       latency.count()};
  result.facts["day_qps"] = spread_summary(day_qps);
  result.facts["day_p50_us"] = spread_summary(day_p50_us);
  result.facts["day_p99_us"] = spread_summary(day_p99_us);
  result.facts["query_us"] = latency_summary(latency);
  result.facts["advance_s"] = spread_summary(advance_totals);

  if (tracer.enabled()) {
    auto& layer = result.per_layer;
    layer["ecosystem.generate_s"] = {tracer.median("ecosystem.generate"), "s",
                                     kSetupRepeats};
    layer["ecosystem.generate_rss_mb"] = {
        tracer.max_rss_growth("ecosystem.generate"), "MB"};
    layer["ecosystem.timeline_s"] = {tracer.median("ecosystem.timeline"), "s",
                                     kSetupRepeats};
    layer["serve.snapshot.build_ms"] = {
        tracer.median("serve.snapshot.build") * 1e3, "ms", kSetupRepeats};
    layer["serve.snapshot.bytes"] = {static_cast<double>(snapshot->bytes()),
                                     "bytes"};
    layer["runtime.domain_table.bytes"] = {
        static_cast<double>(snapshot->study().table().memory_bytes()), "bytes"};
    layer["core.study.ingest_s"] = {library_span_mean_s("serve.snapshot.build"),
                                    "s", kSetupRepeats};
    layer["core.study.ingest_rss_mb"] = {
        tracer.max_rss_growth("serve.snapshot.build"), "MB"};
    layer["ecosystem.parse_delta_ms"] = {
        advance_median(&AdvanceTimes::parse) * 1e3, "ms", advances.size()};
    layer["ecosystem.apply_delta_ms"] = {median(world_s) * 1e3, "ms",
                                         world_s.size()};
    layer["core.study.clone_ms"] = {advance_median(&AdvanceTimes::clone) * 1e3,
                                    "ms", advances.size()};
    layer["core.study.apply_delta_ms"] = {
        advance_median(&AdvanceTimes::apply) * 1e3, "ms", advances.size()};
    layer["serve.snapshot.advance_ms"] = {
        advance_median(&AdvanceTimes::advance) * 1e3, "ms", advances.size()};
    layer["serve.publish_us"] = {median(publish_s) * 1e6, "us",
                                 publish_s.size()};
    split.report(result, ExecutorCounts{}, engine_effort,
                 rss_after - rss_before);
    add_common_layer_metrics(result, counters_before, counters_after);
    const LayerScope scope(tracer, "bench.provenance");
    layer["obs.provenance.bytes"] = {
        static_cast<double>(provenance_payload_bytes("serve_churn")), "bytes"};
  }

  // --- checks, outside the timed window: day-N parity of the advanced
  // Study with a from-scratch Study, and of the last day's served answers
  // with fresh batch detectors.
  result.check("serve_churn.memo_equals_cold", warm_mismatches == 0,
               std::to_string(warm_mismatches) +
                   " warm answers differ from the day's cold answers");
  if (days_run == days) {
    const LayerScope checks(tracer, "checks");
    std::optional<core::Study> fresh;
    {
      const LayerScope scope(tracer, "core.study.rescan");
      fresh.emplace(*eco, snapshot_options.study);
    }
    const core::Study& advanced = snapshot->study();
    const bool same =
        groups_equal(advanced, *fresh) &&
        sorted_strings(advanced, advanced.idns()) ==
            sorted_strings(*fresh, fresh->idns()) &&
        sorted_strings(advanced, advanced.malicious_idns()) ==
            sorted_strings(*fresh, fresh->malicious_idns());
    result.check("serve_churn.day_n_parity", same,
                 "day " + std::to_string(days) +
                     ": advanced study vs from-scratch study");
    std::map<std::string, std::uint64_t> distinct;
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::string domain =
          queries[i].text.empty()
              ? std::string(advanced.domain(queries[i].id))
              : queries[i].text;
      distinct.emplace(domain, day_hash[i]);
    }
    std::vector<std::string> domains;
    std::vector<std::uint64_t> served;
    for (auto& [domain, hash] : distinct) {
      domains.push_back(domain);
      served.push_back(hash);
    }
    const BatchDetectors detectors(config.workers);
    const std::uint64_t mismatches = parity_mismatches(
        domains, served, *fresh, detectors, config.workers);
    result.check("serve_churn.last_day_parity", mismatches == 0,
                 std::to_string(mismatches) + " of " +
                     std::to_string(domains.size()) +
                     " distinct domains differ from the batch detectors");
  }
  {
    const LayerScope scope(tracer, "teardown");
    engine.reset();
    publisher.reset();
    snapshot.reset();
    state.reset();
    eco.reset();
  }
  return result;
}

}  // namespace perfbench
