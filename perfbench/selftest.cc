// Self-test of the output checks: each must pass the true answer and
// reject doctored ones (a dropped node, a swapped score, a lost document,
// an off-by-one counter). Run by `python3 perfbench/run.py --selftest`.

#include <cmath>
#include <cstdio>
#include <string>

#include "perfbench.h"
#include "workload/corpus_gen.h"

namespace pb {
namespace {

int failures = 0;

void Expect(bool pass_wanted, const std::string& verdict, const char* what) {
  const bool passed = verdict.empty();
  if (passed != pass_wanted) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s (verdict: \"%s\")\n", what, verdict.c_str());
  } else {
    std::fprintf(stderr, "selftest ok: %s%s%s\n", what, passed ? "" : " -> ",
                 verdict.c_str());
  }
}

}  // namespace

int SelfTest() {
  // (a) node sets against the naive oracle on a small generated corpus.
  fts::CorpusGenOptions gen;
  gen.num_nodes = 60;
  gen.seed = 7;
  const fts::Corpus corpus = fts::GenerateCorpus(gen);
  const std::vector<uint64_t> truth = NaiveNodes(
      corpus, "SOME p1 (p1 HAS 'topic0' AND SOME p2 (p2 HAS 'topic1' AND distance(p1, p2, 8)))");
  if (truth.size() < 3) {
    std::fprintf(stderr, "selftest: oracle answer too small to doctor\n");
    return 1;
  }
  Expect(true, CheckNodes(truth, truth), "(a) oracle answer accepted");
  std::vector<uint64_t> dropped = truth;
  dropped.erase(dropped.begin() + 1);
  Expect(false, CheckNodes(truth, dropped), "(a) dropped node rejected");
  std::vector<uint64_t> extra = truth;
  extra.push_back(truth.back() + 1);
  Expect(false, CheckNodes(truth, extra), "(a) extra node rejected");
  std::vector<uint64_t> shifted = truth;
  shifted[0] += 1;
  Expect(false, CheckNodes(truth, shifted), "(a) wrong node rejected");

  // (b) top-k against the full scored result.
  const std::vector<uint64_t> nodes = {1, 2, 3, 4, 5, 6};
  const std::vector<double> scores = {0.5, 2.0, 1.0, 2.0, 0.25, 1.5};
  const std::vector<uint64_t> top_nodes = {2, 4, 6};
  const std::vector<double> top_scores = {2.0, 2.0, 1.5};
  Expect(true, CheckTopK(nodes, scores, top_nodes, top_scores, 3), "(b) true top-3 accepted");
  Expect(false, CheckTopK(nodes, scores, {4, 2, 6}, top_scores, 3),
         "(b) tie broken by id desc rejected");
  Expect(false, CheckTopK(nodes, scores, top_nodes, {2.0, 1.5, 2.0}, 3),
         "(b) swapped scores rejected");
  Expect(false,
         CheckTopK(nodes, scores, top_nodes, {2.0, 2.0, std::nextafter(1.5, 2.0)}, 3),
         "(b) score one ulp off rejected");
  Expect(false, CheckTopK(nodes, scores, {2, 4}, {2.0, 2.0}, 3), "(b) short top-k rejected");

  // (c) ingest counts.
  const std::vector<bool> deleted = {false, true, false};
  Expect(true, CheckIngestCounts(30, 1, 29, {1, 0, 1}, deleted), "(c) true counts accepted");
  Expect(false, CheckIngestCounts(30, 1, 28, {1, 0, 1}, deleted),
         "(c) lost document rejected");
  Expect(false, CheckIngestCounts(30, 1, 29, {1, 1, 1}, deleted),
         "(c) deleted marker still found rejected");
  Expect(false, CheckIngestCounts(30, 1, 29, {1, 0, 2}, deleted),
         "(c) marker found twice rejected");

  // (d) response counters against /metrics growth.
  std::string text = "# fts server \"x\"\nfts_up 1\n";
  fts::EvalCounters want;
  uint64_t v = 3;
  for (const CounterField& f : CounterFields()) {
    want.*f.member = v;
    text += std::string("fts_eval_") + f.name + " " + std::to_string(v) + "\n";
    v += 7;
  }
  const fts::EvalCounters parsed = CountersFromMetrics(ParseMetricsText(text));
  Expect(true, DiffCounters(want, parsed).empty() ? "" : "differs",
         "(d) equal counters accepted");
  for (const CounterField& f : CounterFields()) {
    fts::EvalCounters off = parsed;
    off.*f.member += 1;
    Expect(false, DiffCounters(want, off).empty() ? "" : DiffCounters(want, off)[0],
           (std::string("(d) off-by-one ") + f.name + " rejected").c_str());
  }
  std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace pb
