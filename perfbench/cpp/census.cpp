// census: the paper's batch pipeline from zone files on disk to the last
// result.  Set-up generates the world and writes its 56 zone files; each
// timed pass ingests them through the file-based Study, runs every analysis
// core::build_markdown_report runs, and the Fig 7 sweep over the Alexa
// top 100.  After each pass the census answers a batch of point lookups on
// its executor through the pass's batch detectors (no serving layer): is
// this brand lookalike a registered name, a homograph or a semantic attack?
#include <cstdio>
#include <filesystem>
#include <optional>

#include "bench.h"
#include "idnscope/core/availability.h"
#include "idnscope/core/browser.h"
#include "idnscope/core/content_study.h"
#include "idnscope/core/dns_study.h"
#include "idnscope/core/language_study.h"
#include "idnscope/core/registration_study.h"
#include "idnscope/core/skeleton_index.h"
#include "idnscope/core/ssl_study.h"
#include "idnscope/dns/zone_io.h"
#include "idnscope/ecosystem/brands.h"
#include "idnscope/obs/provenance.h"
#include "idnscope/runtime/parallel.h"
#include "verdict.h"
#include "workload.h"

namespace perfbench {

using namespace idnscope;

namespace {

// Set-up runs this many times per run; setup_s is their median.
constexpr unsigned kSetupRepeats = 3;
constexpr std::size_t kSweepBrands = 100;

ecosystem::Scenario census_scenario(std::uint64_t seed) {
  ecosystem::Scenario scenario = ecosystem::Scenario::paper2017();
  scenario.seed = seed;
  scenario.bulk_scale = 20;
  scenario.abuse_scale = 10;
  scenario.generate_filler = false;
  return scenario;
}

// Every result one pass produces, kept until it is digested.
struct Answers {
  std::vector<core::TldGroup> groups;
  core::LanguageStats languages;
  core::RegistrarStats registrars;
  double created_before_2008 = 0.0;
  std::vector<core::RegistrantPortfolio> registrants;
  std::uint64_t opportunistic = 0;
  core::ActivityEcdfs idn_com;
  core::ActivityEcdfs non_idn_com;
  core::HostingConcentration hosting;
  core::ContentComparison content;
  core::SslComparison ssl;
  std::vector<std::pair<std::string, std::uint64_t>> shared_certs;
  core::HomographReport homographs;
  core::SemanticReport semantics;
  std::vector<core::Type2Match> type2;
  std::vector<core::SurveyVerdict> browsers;
  core::AvailabilityReport sweep;
};

// Per-pass wall times behind the per-layer medians.
struct PassTimes {
  double ingest = 0.0;
  double joins = 0.0;
  double analyses = 0.0;
  double semantic = 0.0;
  double total = 0.0;
};

void digest_ecdf(Digest& d, const core::ActivityEcdfs& ecdfs) {
  d.u(ecdfs.covered);
  for (const stats::Ecdf* ecdf : {&ecdfs.active_days, &ecdfs.query_volume}) {
    d.u(ecdf->size());
    if (!ecdf->empty()) {
      d.f(ecdf->fraction_at(100));
      d.f(ecdf->median());
      d.f(ecdf->max());
    }
  }
}

std::string digest_answers(const Answers& a) {
  Digest d;
  for (const core::TldGroup& g : a.groups) {
    d.s(g.name);
    for (const std::uint64_t v :
         {g.sld_count, g.idn_count, g.whois_count, g.blacklist_virustotal,
          g.blacklist_360, g.blacklist_baidu, g.blacklist_total}) {
      d.u(v);
    }
  }
  for (std::size_t i = 0; i < a.languages.all.size(); ++i) {
    d.u(a.languages.all[i]);
    d.u(a.languages.malicious[i]);
  }
  d.u(a.registrars.distinct_registrars);
  d.f(a.registrars.top10_share);
  for (const core::RegistrarShare& r : a.registrars.top) {
    d.s(r.name);
    d.u(r.idn_count);
  }
  d.f(a.created_before_2008);
  for (const core::RegistrantPortfolio& p : a.registrants) {
    d.s(p.email);
    d.u(p.idn_count);
  }
  d.u(a.opportunistic);
  digest_ecdf(d, a.idn_com);
  digest_ecdf(d, a.non_idn_com);
  d.u(a.hosting.distinct_ips);
  d.u(a.hosting.distinct_segments);
  for (const std::uint64_t size : a.hosting.segment_sizes) {
    d.u(size);
  }
  for (const core::ContentBreakdown* c : {&a.content.idn, &a.content.non_idn}) {
    for (const std::uint64_t n : c->counts) {
      d.u(n);
    }
  }
  for (const ssl::ProblemCounts* p : {&a.ssl.idn, &a.ssl.non_idn}) {
    d.u(p->expired);
    d.u(p->invalid_authority);
    d.u(p->invalid_common_name);
    d.u(p->valid);
  }
  for (const auto& [cert, count] : a.shared_certs) {
    d.s(cert);
    d.u(count);
  }
  for (const core::HomographMatch& m : a.homographs.matches) {
    d.s(m.domain);
    d.s(m.brand);
    d.s(m.rule);
    d.u(obs::to_micros(m.ssim));
  }
  d.u(a.homographs.blacklisted_count);
  d.u(a.homographs.protective);
  for (const core::SemanticMatch& m : a.semantics.matches) {
    d.s(m.domain);
    d.s(m.brand);
  }
  for (const core::Type2Match& m : a.type2) {
    d.s(m.domain);
    d.s(m.brand);
  }
  for (const core::SurveyVerdict& v : a.browsers) {
    d.s(v.browser);
    d.s(v.platform);
    d.s(v.homograph_result);
  }
  d.u(a.sweep.total_candidates);
  d.u(a.sweep.total_homographic);
  d.u(a.sweep.total_registered);
  for (const core::BrandAvailability& row : a.sweep.per_brand) {
    d.s(row.brand);
    d.u(row.candidates);
    d.u(row.homographic);
    d.u(row.registered);
  }
  return d.hex();
}

}  // namespace

RunResult run_census(const RunConfig& config, Tracer& tracer) {
  RunResult result;
  const ecosystem::Scenario scenario = census_scenario(config.seed);
  result.facts["bulk_scale"] = std::to_string(scenario.bulk_scale);
  result.facts["abuse_scale"] = std::to_string(scenario.abuse_scale);
  result.facts["filler"] = "false";
  const std::string zone_dir = config.work_dir + "/zones";
  std::filesystem::create_directories(zone_dir);

  // --- set-up: generate the world and write its zone files, several times.
  std::optional<ecosystem::Ecosystem> eco;
  std::vector<std::string> zone_files;
  std::vector<double> setup_times;
  {
    const LayerScope setup(tracer, "setup");
    for (unsigned r = 0; r < kSetupRepeats; ++r) {
      if (eco) {
        const LayerScope scope(tracer, "ecosystem.teardown");
        eco.reset();
      }
      move_to_cpu(r);
      const Stopwatch watch;
      {
        const LayerScope scope(tracer, "ecosystem.generate");
        eco.emplace(ecosystem::generate(scenario));
      }
      {
        const LayerScope scope(tracer, "dns.write_zones");
        zone_files.clear();
        for (const dns::Zone& zone : eco->zones) {
          std::string path = zone_dir + "/" + zone.origin() + ".zone";
          ++result.attempted;
          const auto written = dns::write_zone_file(zone, path);
          if (!written.ok()) {
            ++result.failed;
            result.check("census.write_zone", false,
                         path + ": " + written.error().message);
          }
          zone_files.push_back(std::move(path));
        }
      }
      setup_times.push_back(watch.seconds());
    }
  }
  result.facts["zones"] = std::to_string(zone_files.size());

  core::StudyOptions study_options;
  study_options.threads = config.workers;
  core::AvailabilityOptions sweep_options;
  sweep_options.threads = config.workers;
  std::vector<ecosystem::Brand> brands;
  std::vector<std::string> lookups;
  {
    // The point lookups: one lookalike of every Alexa top-1k brand, the same
    // for every seed (a brand owner's question to the census).
    const LayerScope scope(tracer, "census.lookup_set");
    brands = ecosystem::alexa_top(kSweepBrands);
    lookups = brand_lookalikes();
  }

  // --- timed phase: census passes until the measurement time is used up.
  std::vector<double> pass_times;
  std::vector<PassTimes> pass_parts;
  std::vector<std::uint64_t> lookup_hash(lookups.size());
  std::vector<std::uint64_t> lookup_ns(lookups.size());
  std::vector<std::uint64_t> lookup_total_ns(lookups.size(), 0);
  std::uint64_t lookup_rounds = 0;
  std::vector<double> lookup_qps;
  double lookup_seconds = 0.0;
  std::string census_digest;
  std::string lookup_digest;
  bool passes_agree = true;
  std::uint64_t table_bytes = 0;
  std::uint64_t provenance_bytes = 0;
  // Traced runs: registry counters across the first pass, lookups excluded.
  obs::Snapshot counters_before;
  obs::Snapshot counters_after;
  if (tracer.enabled()) {
    counters_before = obs::Registry::global().snapshot();
  }
  const ExecutorCounts executor_before = ExecutorCounts::read();
  {
    const LayerScope timed(tracer, "timed");
    const Stopwatch phase;
    while (pass_times.empty() || phase.seconds() < config.seconds) {
      std::optional<core::Study> study;
      std::optional<BatchDetectors> detectors;
      Answers a;
      PassTimes t;
      move_to_cpu(static_cast<unsigned>(pass_times.size()));
      {
        const LayerScope pass(tracer, "census.pass");
        const Stopwatch pass_watch;
        t.ingest = timed_call(tracer, "core.study.ingest", [&] {
          study.emplace(*eco, zone_files, study_options);
        });
        a.groups = study->tld_groups();
        a.groups.push_back(study->totals());
        // Joins: the StreamJoin consumers.
        t.joins += timed_call(tracer, "core.study.join.registrars", [&] {
          a.registrars = core::registrar_stats(*study, 10);
        });
        t.joins += timed_call(tracer, "core.study.join.registrants", [&] {
          a.registrants = core::top_registrants(*study, 5);
        });
        t.joins += timed_call(tracer, "core.study.join.opportunistic", [&] {
          a.opportunistic = core::opportunistic_idn_count(*study, 100);
        });
        t.joins += timed_call(tracer, "core.study.join.activity", [&] {
          a.idn_com = core::idn_activity(*study, "com", false);
          a.non_idn_com = core::non_idn_activity(*study, "com");
        });
        t.joins += timed_call(tracer, "core.study.join.hosting", [&] {
          a.hosting = core::hosting_concentration(*study);
        });
        // Analyses of Sections IV-V.
        t.analyses += timed_call(tracer, "core.study.analysis.languages", [&] {
          a.languages = core::analyze_languages(*study);
        });
        t.analyses +=
            timed_call(tracer, "core.study.analysis.created_before", [&] {
              a.created_before_2008 = core::fraction_created_before(*study, 2008);
            });
        t.analyses += timed_call(tracer, "core.study.analysis.content", [&] {
          a.content = core::sampled_content_comparison(
              *study, std::min<std::size_t>(500, study->idns().size()), 1);
        });
        t.analyses += timed_call(tracer, "core.study.analysis.ssl", [&] {
          a.ssl = core::ssl_comparison(*study);
          a.shared_certs = core::shared_cert_table(*study, 3);
        });
        t.analyses += timed_call(tracer, "core.browser.survey", [&] {
          a.browsers = core::run_browser_survey();
        });
        // Detectors of Sections VI-VII.
        {
          const LayerScope scope(tracer, "core.detectors.build");
          detectors.emplace(config.workers);
        }
        {
          const LayerScope scope(tracer, "core.homograph.scan");
          a.homographs =
              core::analyze_homographs(*study, detectors->homograph, 10);
        }
        t.semantic += timed_call(tracer, "core.semantic.scan_type1", [&] {
          a.semantics = core::analyze_semantics(*study, detectors->semantic, 10);
        });
        t.semantic += timed_call(tracer, "core.semantic.scan_type2", [&] {
          a.type2 = detectors->type2.scan(study->table(), study->idns(),
                                          config.workers);
        });
        // Fig 7: the skeleton index, then the sweep that reads it.
        {
          const LayerScope scope(tracer, "core.skeleton_index.build");
          study->skeleton_index();
        }
        {
          const LayerScope scope(tracer, "core.availability.sweep");
          a.sweep = core::availability_sweep(*study, brands, sweep_options);
        }
        t.total = pass_watch.seconds();
      }
      pass_times.push_back(t.total);
      pass_parts.push_back(t);
      if (tracer.enabled() && pass_times.size() == 1) {
        const LayerScope scope(tracer, "bench.provenance");
        counters_after = obs::Registry::global().snapshot();
        provenance_bytes = provenance_payload_bytes("census");
      }
      {
        const LayerScope scope(tracer, "bench.digest");
        const std::string digest = digest_answers(a);
        if (census_digest.empty()) {
          census_digest = digest;
          table_bytes = study->table().memory_bytes();
        }
        passes_agree = passes_agree && digest == census_digest;
      }
      // Point lookups against this pass's Study and detectors, on the
      // executor.  A lookup's time on a worker depends on how busy that
      // worker's CPU is in that round, so each lookup's latency is its mean
      // over the run's rounds.
      {
        const LayerScope scope(tracer, "census.lookups");
        const Stopwatch lookup_watch;
        runtime::parallel_for(
            lookups.size(), config.workers, [&](std::size_t i) {
              const auto start = std::chrono::steady_clock::now();
              lookup_hash[i] =
                  verdict_hash(batch_verdict(lookups[i], *study, *detectors));
              lookup_ns[i] = static_cast<std::uint64_t>(
                  std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count());
            });
        const double seconds = lookup_watch.seconds();
        Digest d;
        for (std::size_t i = 0; i < lookups.size(); ++i) {
          lookup_total_ns[i] += lookup_ns[i];
          d.u(lookup_hash[i]);
        }
        ++lookup_rounds;
        lookup_seconds += seconds;
        lookup_qps.push_back(static_cast<double>(lookups.size()) / seconds);
        result.attempted += lookups.size();
        if (lookup_digest.empty()) {
          lookup_digest = d.hex();
        }
        passes_agree = passes_agree && d.hex() == lookup_digest;
      }
      {
        const LayerScope scope(tracer, "core.study.teardown");
        detectors.reset();
        study.reset();
        obs::Ledger::global().reset();  // each pass is one census's ledger
      }
      ++result.attempted;  // the pass itself
    }
  }
  const ExecutorCounts executor_after = ExecutorCounts::read();

  result.digests["census"] = census_digest;
  result.digests["lookups"] = lookup_digest;
  result.check("census.passes_agree", passes_agree,
               "every pass and every lookup round gave the same answers");
  result.facts["passes"] = std::to_string(pass_times.size());

  result.end_to_end["setup_s"] = {median(setup_times), "s",
                                  setup_times.size()};
  result.end_to_end["study_ms"] = {median(pass_times) * 1e3, "ms",
                                   pass_times.size()};
  LatencyHistogram lookup_latency;
  for (const std::uint64_t total_ns : lookup_total_ns) {
    lookup_latency.add_ns(total_ns / lookup_rounds);
  }
  result.end_to_end["qps"] = {
      static_cast<double>(lookups.size() * lookup_rounds) / lookup_seconds,
      "1/s", lookups.size() * lookup_rounds};
  result.end_to_end["query_p50_us"] = {lookup_latency.quantile_us(0.50), "us",
                                       lookup_latency.count()};
  result.end_to_end["query_p99_us"] = {lookup_latency.quantile_us(0.99), "us",
                                       lookup_latency.count()};
  result.facts["pass_s"] = spread_summary(pass_times);
  result.facts["lookup_qps"] = spread_summary(lookup_qps);
  result.facts["lookup_us"] = latency_summary(lookup_latency);
  result.facts["setup_s"] = spread_summary(setup_times);

  if (tracer.enabled()) {
    auto& layer = result.per_layer;
    const auto part = [&](double PassTimes::*field) {
      std::vector<double> v;
      for (const PassTimes& t : pass_parts) {
        v.push_back(t.*field);
      }
      return median(v);
    };
    layer["ecosystem.generate_s"] = {tracer.median("ecosystem.generate"), "s",
                                     kSetupRepeats};
    layer["ecosystem.generate_rss_mb"] = {
        tracer.max_rss_growth("ecosystem.generate"), "MB"};
    layer["dns.write_zones_s"] = {tracer.median("dns.write_zones"), "s",
                                  kSetupRepeats};
    layer["core.study.ingest_s"] = {part(&PassTimes::ingest), "s",
                                    pass_parts.size()};
    layer["core.study.ingest_rss_mb"] = {
        tracer.max_rss_growth("core.study.ingest"), "MB"};
    layer["runtime.domain_table.bytes"] = {static_cast<double>(table_bytes),
                                           "bytes"};
    layer["core.study.joins_s"] = {part(&PassTimes::joins), "s",
                                   pass_parts.size()};
    layer["core.study.analyses_s"] = {part(&PassTimes::analyses), "s",
                                      pass_parts.size()};
    layer["core.homograph.scan_s"] = {tracer.median("core.homograph.scan"),
                                      "s", pass_parts.size()};
    layer["core.semantic.scan_s"] = {part(&PassTimes::semantic), "s",
                                     pass_parts.size()};
    layer["core.availability.sweep_s"] = {
        tracer.median("core.availability.sweep"), "s", pass_parts.size()};
    layer["runtime.parallel.useful_worker_ratio"] = {
        executor_after.useful_ratio_since(executor_before), "ratio"};
    layer["obs.provenance.bytes"] = {static_cast<double>(provenance_bytes),
                                     "bytes"};
    add_common_layer_metrics(result, counters_before, counters_after);
  }

  {
    const LayerScope scope(tracer, "teardown");
    eco.reset();
    std::filesystem::remove_all(zone_dir);
  }
  return result;
}

}  // namespace perfbench
