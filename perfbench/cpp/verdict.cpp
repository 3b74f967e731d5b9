#include "verdict.h"

#include "idnscope/ecosystem/brands.h"
#include "idnscope/idna/lookalike.h"
#include "idnscope/obs/metrics.h"
#include "idnscope/runtime/parallel.h"

namespace perfbench {

using namespace idnscope;

BatchDetectors::BatchDetectors(unsigned threads)
    : homograph(ecosystem::alexa_top1k(),
                [threads] {
                  core::HomographOptions options;
                  options.threads = threads;
                  return options;
                }()),
      semantic(ecosystem::alexa_top1k()) {}

serve::Verdict batch_verdict(std::string_view ace, const core::Study& study,
                             const BatchDetectors& detectors) {
  serve::Verdict verdict;
  verdict.domain = std::string(ace);
  verdict.parsed = true;
  const runtime::DomainId id = study.table().find(ace);
  if (id != runtime::kInvalidDomainId) {
    verdict.domain_id = id;
    verdict.known = true;
    verdict.registered = study.table().is_registered(id);
    verdict.idn = study.table().is_idn(id);
    verdict.blacklist_mask = study.table().blacklist_mask(id);
  }
  if (auto match = detectors.homograph.best_match(verdict.domain)) {
    verdict.homograph.flagged = true;
    verdict.homograph.rule = match->rule;
    verdict.homograph.brand = std::move(match->brand);
    verdict.homograph.score_micros = obs::to_micros(match->ssim);
  }
  if (auto hit = detectors.semantic.match(verdict.domain)) {
    verdict.semantic_t1.flagged = true;
    verdict.semantic_t1.rule = "ascii_strip_brand_match";
    verdict.semantic_t1.brand = std::move(hit->brand);
    verdict.semantic_t1.score_micros = obs::to_micros(1.0);
  }
  if (auto hit = detectors.type2.match(verdict.domain)) {
    verdict.semantic_t2.flagged = true;
    verdict.semantic_t2.rule = "translation_substring";
    verdict.semantic_t2.brand = std::move(hit->brand);
    verdict.semantic_t2.score_micros = obs::to_micros(1.0);
  }
  return verdict;
}

std::vector<std::string> brand_lookalikes() {
  const std::vector<ecosystem::Brand>& brands = ecosystem::alexa_top1k();
  std::vector<std::string> out;
  for (std::size_t i = 0; i < brands.size(); ++i) {
    std::vector<idna::LookalikeCandidate> candidates =
        idna::single_substitution_candidates(brands[i].domain);
    if (!candidates.empty()) {
      out.push_back(std::move(candidates[i % candidates.size()].ace_domain));
    }
  }
  return out;
}

std::uint64_t parity_mismatches(const std::vector<std::string>& domains,
                                const std::vector<std::uint64_t>& served,
                                const core::Study& study,
                                const BatchDetectors& detectors,
                                unsigned threads) {
  std::vector<std::uint8_t> bad(domains.size(), 0);
  runtime::parallel_for(domains.size(), threads, [&](std::size_t i) {
    bad[i] = verdict_hash(batch_verdict(domains[i], study, detectors)) !=
                     served[i]
                 ? 1
                 : 0;
  });
  std::uint64_t mismatches = 0;
  for (std::size_t i = 0; i < domains.size(); ++i) {
    if (bad[i] != 0) {
      if (++mismatches <= 5) {
        std::fprintf(stderr, "parity mismatch: %s\n", domains[i].c_str());
      }
    }
  }
  return mismatches;
}

}  // namespace perfbench
