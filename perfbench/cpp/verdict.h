// Verdict hashing and the batch-detector reference verdict, shared by the
// workloads that answer queries.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench.h"
#include "idnscope/common/rng.h"
#include "idnscope/core/homograph.h"
#include "idnscope/core/semantic.h"
#include "idnscope/core/semantic_type2.h"
#include "idnscope/core/study.h"
#include "idnscope/serve/snapshot.h"

namespace perfbench {

// Hash of every field a verdict answers with, except the generation and the
// DomainId (both differ legitimately between an advanced and a from-scratch
// Study).  Cheap enough to run once per served query.
inline std::uint64_t finding_hash(std::uint64_t hash,
                                  const idnscope::serve::Finding& finding) {
  hash = fnv1a_u64(hash, finding.flagged ? 1 : 0);
  hash = fnv1a(hash, finding.rule);
  hash = fnv1a(hash, finding.brand);
  return fnv1a_u64(hash, finding.score_micros);
}

inline std::uint64_t verdict_hash(const idnscope::serve::Verdict& verdict) {
  std::uint64_t hash = fnv1a(kFnvBasis, verdict.domain);
  hash = fnv1a_u64(hash, (verdict.parsed ? 1u : 0u) |
                             (verdict.known ? 2u : 0u) |
                             (verdict.registered ? 4u : 0u) |
                             (verdict.idn ? 8u : 0u) |
                             (static_cast<std::uint64_t>(
                                  verdict.blacklist_mask)
                              << 8));
  hash = finding_hash(hash, verdict.homograph);
  hash = finding_hash(hash, verdict.semantic_t1);
  return finding_hash(hash, verdict.semantic_t2);
}

// The three batch detectors, constructed the way core::build_markdown_report
// constructs them; that construction defines "the batch verdict".
struct BatchDetectors {
  idnscope::core::HomographDetector homograph;
  idnscope::core::SemanticDetector semantic;
  idnscope::core::Type2Detector type2;

  explicit BatchDetectors(unsigned threads);
};

// The verdict the batch pipeline reaches for one lowercase ACE domain,
// with the table facts taken from `study`.  Field-for-field what
// serve::StudySnapshot::classify answers for the same domain.
idnscope::serve::Verdict batch_verdict(std::string_view ace,
                                       const idnscope::core::Study& study,
                                       const BatchDetectors& detectors);

// One single-substitution lookalike of every Alexa top-1k brand, in brand
// order: brand i's candidate i mod (its candidate count), so every length
// bucket, substitution position and homoglyph pool is represented.
std::vector<std::string> brand_lookalikes();

// Parity of served verdict hashes against batch_verdict over distinct
// domains, on the executor.  Returns the number of mismatches.
std::uint64_t parity_mismatches(const std::vector<std::string>& domains,
                                const std::vector<std::uint64_t>& served,
                                const idnscope::core::Study& study,
                                const BatchDetectors& detectors,
                                unsigned threads);

}  // namespace perfbench
