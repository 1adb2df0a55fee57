// ingest_under_query: an in-process IngestService (auto-seal, background
// merge, deletes) fed by one closed-loop writer while a SearchService on
// its snapshots serves queries. No network. README.md says why.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "eval/searcher.h"
#include "exec/ingest_service.h"
#include "exec/search_service.h"
#include "index/index_builder.h"
#include "index/index_io.h"
#include "lang/parser.h"
#include "perfbench.h"
#include "text/analyzer.h"
#include "trace.h"
#include "workload/corpus_gen.h"

namespace pb {
namespace {

constexpr uint32_t kBaseDocs = 2000;
constexpr uint32_t kStreamDocs = 3000;
constexpr size_t kMaxBuffered = 256;
constexpr size_t kMergeFactor = 8;
constexpr uint32_t kRound = 50;  ///< adds per writer round; the last is a marker
constexpr uint32_t kDeleteLag = 5;  ///< round i deletes the marker of round i - lag
constexpr double kOpenRate = 400;  ///< queries/s offered in the open-loop phase
/// The writer runs whole rounds on a fixed schedule, so every run ingests
/// the same documents at the same cadence and the queries meet the same
/// seals and merges; closed-loop ingest speed is measured by the preload.
constexpr double kWriterDocsPerS = 250;
constexpr size_t kWorkers = 2;
constexpr const char* kAllToken = "ingestall";

std::string MarkerToken(uint64_t i) { return "mk" + std::to_string(i); }

/// The query matching marker i (appended piecewise: GCC 12 warns falsely,
/// -Wrestrict, on a literal prepended to a temporary string).
std::string MarkerQuery(uint64_t i) {
  std::string q = "'";
  q += MarkerToken(i);
  q += "'";
  return q;
}

std::vector<std::string> IngestQueries() {
  return {
      "'topic0' AND 'topic1'",
      "'topic2' AND NOT 'topic3'",
      "SOME p1 SOME p2 (p1 HAS 'topic4' AND p2 HAS 'topic5' AND distance(p1, p2, 8))",
      "'topic6' OR 'topic7'",
      "SOME p1 SOME p2 (p1 HAS 'topic0' AND p2 HAS 'topic2' AND samepara(p1, p2))",
      "SOME p1 SOME p2 (p1 HAS 'topic1' AND p2 HAS 'topic3' AND not_samesentence(p1, p2))",
      "'topic4' AND 'ingestall'",
      "'topic5' AND 'topic6' AND NOT 'topic7'",
  };
}

uint64_t CountNodes(const fts::Searcher& s, const std::string& q) {
  fts::ExecContext ctx;
  auto r = s.Search(q, ctx);
  if (!r.ok()) throw BenchError("ingest search failed: " + r.status().ToString());
  return r->result.nodes.size();
}

/// The live system under test plus the writer's bookkeeping.
struct Live {
  std::unique_ptr<fts::IngestService> ingest;
  std::unique_ptr<fts::SearchService> service;
  std::vector<std::string> stream;  ///< rendered stream documents
  uint64_t index_bytes = 0;
  double setup_s = 0;
  double preload_docs_per_s = 0;
};

Live Setup(const Args& args, Clock::time_point t0) {
  Live live;
  fts::CorpusGenOptions gen;
  gen.num_nodes = kBaseDocs;
  gen.seed = args.seed;
  const fts::Corpus base = fts::GenerateCorpus(gen);
  fts::IngestService::Options io;
  io.max_buffered_docs = kMaxBuffered;
  io.merge_factor = kMergeFactor;
  live.ingest = std::make_unique<fts::IngestService>(io);
  std::vector<std::string> docs;
  for (fts::NodeId n = 0; n < base.num_nodes(); ++n) docs.push_back(RenderDocument(base, n));
  const Clock::time_point p0 = Clock::now();
  for (const std::string& doc : docs) {
    if (!live.ingest->Add(doc).ok()) throw BenchError("preload add");
  }
  if (!live.ingest->Compact().ok()) throw BenchError("preload compact");
  live.preload_docs_per_s = static_cast<double>(docs.size()) / SecondsSince(p0);
  fts::SearchService::Options so;
  so.num_workers = kWorkers;
  live.service = std::make_unique<fts::SearchService>(live.ingest.get(), so);
  // First correct answer: the preloaded documents holding topic0, counted
  // from the corpus itself.
  const fts::TokenId topic0 = base.LookupToken("topic0");
  uint64_t want = 0;
  for (fts::NodeId n = 0; n < base.num_nodes(); ++n) {
    const auto& toks = base.doc(n).tokens;
    if (std::find(toks.begin(), toks.end(), topic0) != toks.end()) ++want;
  }
  auto first = live.service->Search("'topic0'");
  if (!first.ok() || first->result.nodes.size() != want) {
    throw BenchError("ingest: first answer differs from the corpus count");
  }
  live.setup_s = SecondsSince(t0);
  for (const auto& seg : live.ingest->snapshot()->segments()) {
    live.index_bytes += seg.index->MemoryUsage();
  }
  gen.num_nodes = kStreamDocs;
  gen.seed = args.seed + 0x5eed;
  const fts::Corpus stream = fts::GenerateCorpus(gen);
  for (fts::NodeId n = 0; n < stream.num_nodes(); ++n) {
    live.stream.push_back(RenderDocument(stream, n) + " " + kAllToken);
  }
  return live;
}

/// The closed-loop writer: whole rounds of kRound adds (the last a marker
/// document), each round queueing the delete of an earlier marker. A
/// delete is issued only while no merge can renumber ids under it.
class Writer {
 public:
  Writer(Live* live, bool timed) : live_(live), timed_(timed) {}

  void Run(const std::atomic<bool>& stop) {
    const Clock::time_point t0 = Clock::now();
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(kRound / kWriterDocsPerS));
    for (uint64_t r = 0; !stop.load(); ++r) {
      const Clock::time_point due = t0 + period * r;
      std::this_thread::sleep_until(due);
      late_ms_ = std::max(late_ms_, Ms(Clock::now() - due));
      RunRound();
    }
    seconds_ = SecondsSince(t0);
  }

  /// After the load: seal, let the merger settle, issue every queued
  /// delete. Deterministic given the number of rounds run.
  void Drain() {
    if (!live_->ingest->Refresh().ok()) throw BenchError("refresh");
    while (!pending_.empty()) {
      if (!TryDeletes()) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!live_->ingest->Refresh().ok()) throw BenchError("refresh");
  }

  uint64_t adds() const { return adds_; }
  uint64_t deletes() const { return deleted_count_; }
  uint64_t failed() const { return failed_; }
  uint64_t markers() const { return marker_added_.size(); }
  double seconds() const { return seconds_; }
  /// How far the writer ran behind its schedule at worst.
  double late_ms() const { return late_ms_; }
  const std::vector<bool>& deleted() const { return deleted_; }
  std::vector<double>& add_us() { return add_us_; }
  std::vector<double>& seal_ms() { return seal_ms_; }

  /// Add-return time of marker i (for the visibility prober).
  Clock::time_point marker_time(uint64_t i) const {
    std::lock_guard<std::mutex> lock(mu_);
    return marker_added_[i];
  }
  uint64_t markers_published() const { return markers_published_.load(); }
  bool marker_deleted(uint64_t i) const {
    std::lock_guard<std::mutex> lock(mu_);
    return deleted_[i];
  }

 private:
  void RunRound() {
    for (uint32_t k = 0; k < kRound; ++k) {
      std::string doc = live_->stream[next_doc_++ % live_->stream.size()];
      const bool marker = k + 1 == kRound;
      if (marker) {
        doc += ' ';
        doc += MarkerToken(marker_added_.size());
      }
      const uint64_t gen_before = timed_ ? live_->ingest->snapshot()->generation() : 0;
      const Clock::time_point a = Clock::now();
      const bool ok = live_->ingest->Add(doc).ok();
      const Clock::time_point b = Clock::now();
      if (timed_) {
        add_us_.push_back(Us(b - a));
        if (live_->ingest->snapshot()->generation() != gen_before) {
          seal_ms_.push_back(Ms(b - a));
        }
      }
      ++adds_;
      if (!ok) ++failed_;
      if (marker) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          marker_added_.push_back(b);
          deleted_.push_back(false);
        }
        markers_published_.store(marker_added_.size());
      }
    }
    const uint64_t round = marker_added_.size() - 1;
    if (round >= kDeleteLag) pending_.push_back(round - kDeleteLag);
    TryDeletes();
  }

  /// Issues queued deletes while the published snapshot holds no more
  /// segments than the merge factor: the merger then cannot be running or
  /// about to run (only this thread seals), so an id read from the
  /// snapshot is still the document's id when Delete applies it.
  bool TryDeletes() {
    while (!pending_.empty()) {
      const auto snap = live_->ingest->snapshot();
      if (snap->num_segments() > kMergeFactor) return false;
      fts::Searcher searcher(snap);
      fts::ExecContext ctx;
      auto r = searcher.Search(MarkerQuery(pending_.front()), ctx);
      if (!r.ok()) throw BenchError("marker lookup failed");
      if (r->result.nodes.size() != 1) return false;  // not sealed yet
      if (!live_->ingest->Delete(r->result.nodes[0]).ok()) throw BenchError("delete");
      {
        std::lock_guard<std::mutex> lock(mu_);
        deleted_[pending_.front()] = true;
      }
      ++deleted_count_;
      pending_.pop_front();
    }
    return true;
  }

  Live* live_;
  bool timed_;
  size_t next_doc_ = 0;
  uint64_t adds_ = 0, failed_ = 0, deleted_count_ = 0;
  double seconds_ = 0;
  double late_ms_ = 0;
  std::deque<uint64_t> pending_;
  mutable std::mutex mu_;
  std::vector<Clock::time_point> marker_added_;
  std::vector<bool> deleted_;
  std::atomic<uint64_t> markers_published_{0};
  std::vector<double> add_us_, seal_ms_;
};

/// Polls each new generation for the markers not yet seen and records the
/// lag from Add returning to the marker's first appearance in a result.
void ProbeVisibility(const Live& live, const Writer& w, const std::atomic<bool>& stop,
                     std::vector<double>* lag_ms) {
  uint64_t next = 0;
  uint64_t seen_gen = ~0ull;
  while (!stop.load()) {
    const auto snap = live.ingest->snapshot();
    if (snap->generation() == seen_gen || next >= w.markers_published()) {
      std::this_thread::sleep_for(std::chrono::microseconds(500));
      continue;
    }
    seen_gen = snap->generation();
    fts::Searcher searcher(snap);
    while (next < w.markers_published()) {
      fts::ExecContext ctx;
      auto r = searcher.Search(MarkerQuery(next), ctx);
      if (!r.ok()) break;
      if (r->result.nodes.empty()) {
        // Not visible yet, or deleted before this prober saw it.
        if (!w.marker_deleted(next)) break;
      } else {
        lag_ms->push_back(Ms(Clock::now() - w.marker_time(next)));
      }
      ++next;
    }
  }
}

struct QueryLog {
  std::mutex mu;
  std::vector<double> latency_ms;
  std::vector<std::pair<Clock::time_point, double>> at_latency;
  fts::EvalCounters counters;
  uint64_t attempted = 0, failed = 0;
  void Add(Clock::time_point at, double ms, const fts::StatusOr<fts::RoutedResult>& r) {
    std::lock_guard<std::mutex> lock(mu);
    ++attempted;
    if (!r.ok()) {
      ++failed;
      return;
    }
    latency_ms.push_back(ms);
    at_latency.emplace_back(at, ms);
    counters += r->result.counters;
  }
};

/// Open loop into the service: one thread submits at due times, one waits
/// the futures in order; latency runs from the due time. Appends the
/// phase's 1 s windows to `windows`.
std::vector<double> OpenLoop(fts::SearchService& service,
                             const std::vector<std::string>& queries, double seconds,
                             QueryLog* log, std::vector<Window>* windows) {
  const size_t n = static_cast<size_t>(kOpenRate * seconds);
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / kOpenRate));
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<Clock::time_point, std::future<fts::StatusOr<fts::RoutedResult>>>> q;
  bool done = false;
  const Clock::time_point start = Clock::now();
  AppendWindows(start, seconds, 1.0, windows);
  std::thread collector([&] {
    while (true) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !q.empty() || done; });
      if (q.empty()) return;
      auto [due, fut] = std::move(q.front());
      q.pop_front();
      lock.unlock();
      auto r = fut.get();
      log->Add(due, Ms(Clock::now() - due), r);
    }
  });
  std::vector<double> lateness;
  for (size_t i = 0; i < n; ++i) {
    const Clock::time_point due = start + interval * i;
    std::this_thread::sleep_until(due);
    auto fut = service.Submit(queries[i % queries.size()]);
    lateness.push_back(Ms(Clock::now() - due));
    {
      std::lock_guard<std::mutex> lock(mu);
      q.emplace_back(due, std::move(fut));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  collector.join();
  return lateness;
}

double ClosedLoop(fts::SearchService& service, const std::vector<std::string>& queries,
                  double seconds, unsigned threads, QueryLog* log) {
  std::vector<Clock::time_point> done;
  std::mutex done_mu;
  const Clock::time_point start = Clock::now();
  const auto until = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      size_t i = t * 3;
      while (Clock::now() < until) {
        const Clock::time_point a = Clock::now();
        auto r = service.Search(queries[i++ % queries.size()]);
        const Clock::time_point b = Clock::now();
        log->Add(a, Ms(b - a), r);
        std::lock_guard<std::mutex> lock(done_mu);
        done.push_back(b);
      }
    });
  }
  for (std::thread& th : pool) th.join();
  std::vector<Window> windows;
  AppendWindows(start, seconds, 1.0, &windows);
  return MedianRate(done, windows);
}

/// Check (c) on the drained service, then (d) against the service totals.
void CheckIngest(const Live& live, const Writer& w, RunResult* out) {
  fts::Searcher searcher(live.ingest->snapshot());
  const uint64_t all = CountNodes(searcher, "'ingestall'");
  std::vector<uint64_t> hits(w.markers());
  for (uint64_t i = 0; i < hits.size(); ++i) {
    hits[i] = CountNodes(searcher, MarkerQuery(i));
  }
  const std::string why = CheckIngestCounts(w.adds(), w.deletes(), all, hits, w.deleted());
  if (!why.empty()) out->Fail("(c) ingest_under_query: " + why);
}

void TraceIngest(const Args& args, Live& live, RunResult* out) {
  Tracer tracer;
  LayerMetrics lm;
  const std::vector<std::string> queries = IngestQueries();
  Writer w(&live, /*timed=*/true);
  std::atomic<bool> stop{false};
  std::thread writer([&] { w.Run(stop); });
  // Queries on live snapshots while the writer runs: segment counts,
  // per-class Searcher time and counters.
  std::map<std::string, std::vector<double>> search_ms;
  std::vector<double> segments, parse_us, classify_us;
  fts::EvalCounters all;
  double results = 0;
  const Clock::time_point until =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds / 2.0));
  uint64_t qid = 0;
  while (Clock::now() < until) {
    const std::string& q = queries[qid % queries.size()];
    ++qid;
    int span = tracer.Begin("lang.parse", -1, qid);
    auto parsed = fts::ParseQuery(q, fts::SurfaceLanguage::kComp);
    parse_us.push_back(tracer.End(span));
    span = tracer.Begin("lang.classify", -1, qid);
    const fts::LanguageClass cls = fts::ClassifyQuery(*parsed);
    classify_us.push_back(tracer.End(span));
    const auto snap = live.ingest->snapshot();
    segments.push_back(static_cast<double>(snap->num_segments()));
    fts::Searcher searcher(snap);
    fts::ExecContext ctx;
    span = tracer.Begin("eval.searcher", -1, qid);
    auto r = searcher.SearchParsed(*parsed, ctx);
    const double us = tracer.End(span);
    if (!r.ok()) throw BenchError("traced ingest query failed");
    const char* key = cls == fts::LanguageClass::kPpred   ? "ppred"
                      : cls == fts::LanguageClass::kNpred ? "npred"
                                                          : "bool";
    search_ms[key].push_back(us / 1e3);
    all += r->result.counters;
    results += static_cast<double>(r->result.nodes.size());
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  stop.store(true);
  writer.join();
  const int cspan = tracer.Begin("exec.compact", -1, 0);
  if (!live.ingest->Compact().ok()) throw BenchError("compact");
  lm.Set("exec.compact_ms", tracer.End(cspan) / 1e3);
  lm.Set("exec.add_us.p50", Quantile(w.add_us(), 0.5));
  lm.Set("exec.add_us.p99", Quantile(w.add_us(), 0.99));
  lm.Set("exec.seal_ms", Quantile(w.seal_ms(), 0.5));
  lm.Set("exec.segments", Mean(segments));
  lm.Set("lang.parse_us", Quantile(parse_us, 0.5));
  lm.Set("lang.classify_us", Quantile(classify_us, 0.5));
  for (const char* k : {"bool", "ppred", "npred"}) {
    lm.Set(std::string("eval.search_ms.") + k, Quantile(search_ms[k], 0.5));
  }
  const double nq = static_cast<double>(std::max<uint64_t>(qid, 1));
  lm.Set("eval.entries_decoded", all.entries_decoded / nq);
  lm.Set("eval.positions_decoded", all.positions_decoded / nq);
  lm.Set("eval.predicate_evals", all.predicate_evals / nq);
  lm.Set("eval.orderings_run", all.orderings_run / nq);
  lm.Set("eval.useful_ratio", all.entries_decoded > 0 ? results / all.entries_decoded : 0);
  lm.Set("eval.pair_seeks", all.pair_seeks / nq);
  lm.Set("eval.pair_entries_decoded", all.pair_entries_decoded / nq);
  lm.Set("eval.skip_checks", all.skip_checks / nq);
  lm.Set("index.blocks_decoded", all.blocks_decoded / nq);
  lm.Set("index.first_touch_validations", all.first_touch_validations / nq);
  lm.Set("common.simd_groups_decoded", all.simd_groups_decoded / nq);
  const double l1 = static_cast<double>(all.cache_hits + all.cache_misses);
  lm.Set("index.l1_hit_ratio", l1 > 0 ? all.cache_hits / l1 : 0);
  double resident = 0;
  for (const auto& seg : live.ingest->snapshot()->segments()) {
    resident += static_cast<double>(seg.index->MemoryUsage());
  }
  lm.Set("index.resident_bytes", resident);
  if (const fts::SharedBlockCache* l2 = live.service->shared_cache()) {
    const fts::SharedBlockCache::Stats st = l2->stats();
    lm.Set("index.l2_resident_bytes", static_cast<double>(st.resident_bytes));
    const double l2_all = static_cast<double>(st.hits + st.misses);
    lm.Set("index.l2_hit_ratio", l2_all > 0 ? st.hits / l2_all : 0);
  }

  // index and text: build, save and load of the preload corpus; the
  // analyzer over the stream documents.
  {
    fts::CorpusGenOptions gen;
    gen.num_nodes = kBaseDocs;
    gen.seed = args.seed;
    const fts::Corpus base = fts::GenerateCorpus(gen);
    int span = tracer.Begin("index.build", -1, 0);
    const fts::InvertedIndex idx = fts::IndexBuilder::Build(base);
    lm.Set("index.build_s", tracer.End(span) / 1e6);
    const std::string path = args.work_dir + "/traced.fts";
    span = tracer.Begin("index.save", -1, 0);
    if (!fts::SaveIndexToFile(idx, path).ok()) throw BenchError("save");
    lm.Set("index.save_s", tracer.End(span) / 1e6);
    fts::InvertedIndex loaded;
    span = tracer.Begin("index.load", -1, 0);
    if (!fts::LoadIndexFromFile(path, &loaded).ok()) throw BenchError("load");
    lm.Set("index.load_ms", tracer.End(span) / 1e3);
    fts::Analyzer analyzer;
    const size_t docs = 500;
    span = tracer.Begin("text.analyze", -1, 0);
    for (size_t i = 0; i < docs; ++i) (void)analyzer.AnalyzeDocument(live.stream[i]);
    lm.Set("text.analyze_us_per_doc", tracer.End(span) / docs);
  }

  // exec: the open-loop schedule into the service on the settled index,
  // Submit to ready minus the query's own Searcher time.
  {
    std::vector<double> own(queries.size());
    fts::Searcher searcher(live.ingest->snapshot());
    for (size_t i = 0; i < queries.size(); ++i) {
      std::vector<double> t;
      for (int rep = 0; rep < 3; ++rep) {
        fts::ExecContext ctx;
        const auto a = Clock::now();
        (void)searcher.Search(queries[i], ctx);
        t.push_back(Ms(Clock::now() - a));
      }
      own[i] = Quantile(t, 0.5);
    }
    std::vector<std::string> slots;
    std::vector<double> own_slot;
    for (size_t i = 0; i < static_cast<size_t>(kOpenRate * 2); ++i) {
      slots.push_back(queries[i % queries.size()]);
      own_slot.push_back(own[i % queries.size()]);
    }
    const std::vector<double> waits =
        ReplayQueueWait(*live.service, slots, own_slot, 0, kOpenRate);
    lm.Set("exec.queue_wait_ms.p50", Quantile(waits, 0.5));
    lm.Set("exec.queue_wait_ms.p99", Quantile(waits, 0.99));
    lm.Set("exec.peak_queue_depth",
           static_cast<double>(live.service->metrics().peak_queue_depth));
  }
  tracer.WriteJsonLines(args.trace_dir + "/trace_ingest_under_query.jsonl");
  out->attempted = qid;
  out->metrics = lm.Finish();
  out->report["trace_span_ns"] = {SpanCostNs(), "ns"};
}

}  // namespace

RunResult RunIngestUnderQuery(const Args& args) {
  const Clock::time_point t0 = Clock::now();
  RunResult out;
  Live live = Setup(args, t0);
  if (args.trace) {
    TraceIngest(args, live, &out);
    return out;
  }
  const std::vector<std::string> queries = IngestQueries();
  Writer w(&live, /*timed=*/false);
  std::atomic<bool> stop{false};
  std::vector<double> lag_ms;
  const fts::EvalCounters before = live.service->metrics().totals;
  std::thread writer([&] { w.Run(stop); });
  std::thread prober([&] { ProbeVisibility(live, w, stop, &lag_ms); });
  QueryLog open, closed;
  const double half = args.seconds / 2.0;
  std::vector<Window> open_windows;
  const std::vector<double> lateness =
      OpenLoop(*live.service, queries, half, &open, &open_windows);
  const double qps = ClosedLoop(*live.service, queries, half, 2, &closed);
  stop.store(true);
  writer.join();
  prober.join();
  const double rss_mb = static_cast<double>(PeakRssKbOf("self")) / 1024.0;
  const fts::EvalCounters after = live.service->metrics().totals;
  fts::EvalCounters sent = open.counters;
  sent += closed.counters;
  fts::EvalCounters growth;
  for (const CounterField& f : CounterFields()) {
    growth.*f.member = after.*f.member - before.*f.member;
  }
  for (const std::string& diff : DiffCounters(sent, growth)) {
    out.Fail("(d) ingest_under_query counter " + diff + " (results/service totals)");
  }
  w.Drain();
  CheckIngest(live, w, &out);
  if (!live.ingest->merger_status().ok()) out.Fail("background merge failed");

  out.attempted = open.attempted + closed.attempted + w.adds() + w.deletes();
  out.failed = open.failed + closed.failed + w.failed();
  out.metrics["setup_s"] = {live.setup_s, "s"};
  out.metrics["index_bytes"] = {static_cast<double>(live.index_bytes), "bytes"};
  out.metrics["qps_max"] = {qps, "1/s"};
  out.metrics["p50_ms"] = {MedianOfMedians(open.at_latency, open_windows), "ms"};
  out.report["p50_ms.pooled"] = {Quantile(open.latency_ms, 0.5), "ms"};
  out.metrics["peak_rss_mb"] = {rss_mb, "MiB"};
  out.report["ingest_docs_per_s"] = {live.preload_docs_per_s, "1/s"};
  out.report["writer_docs_per_s"] = {static_cast<double>(w.adds()) / w.seconds(), "1/s"};
  out.report["writer_late_max_ms"] = {w.late_ms(), "ms"};
  out.report["visible_ms"] = {Quantile(lag_ms, 0.5), "ms"};
  out.report["visible_samples"] = {static_cast<double>(lag_ms.size()), "count"};
  out.report["samples_timed"] = {static_cast<double>(open.latency_ms.size()), "count"};
  if (open.latency_ms.size() >= 1000) {
    out.report["p99_ms"] = {Quantile(open.latency_ms, 0.99), "ms"};
  }
  out.report["open_loop_late_p99_ms"] = {Quantile(lateness, 0.99), "ms"};
  out.report["open_loop_late_max_ms"] = {Quantile(lateness, 1.0), "ms"};
  out.report["offered_rate"] = {kOpenRate, "1/s"};
  out.report["adds"] = {static_cast<double>(w.adds()), "count"};
  out.report["deletes"] = {static_cast<double>(w.deletes()), "count"};
  return out;
}

}  // namespace pb
