// The three network workloads: routed_mix (fts_router over two
// fts_server shards), ranked_topk (one scored fts_server, top-10) and
// comp_algebra (one fts_server, COMP-only shapes). See README.md for why
// each exists and which layer it stresses.

#include <poll.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "common/rng.h"
#include "eval/searcher.h"
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

struct ServedConfig {
  std::string name;
  uint32_t nodes = 6000;
  uint32_t pair_terms = 8;
  uint32_t pair_distance = 3;
  uint32_t shards = 0;  ///< 0 = one server over the unsplit index
  std::string scoring = "none";
  uint32_t workers = 1;  ///< per server
  uint32_t top_k = 0;
  /// Open-loop offered rate (queries/s); 0 = closed loop only.
  double open_rate = 0;
  uint32_t open_conns = 4;
  uint32_t closed_conns = 4;
  std::vector<QuerySpec> specs;
  /// Zipf skew of the draw within each class; 0 cycles through the specs
  /// in order.
  double zipf = 1.0;
  /// Class of each stream slot, cycled: its length fixes the class shares.
  std::vector<std::string> class_cycle;
};

std::string Topic(uint32_t i) { return "'topic" + std::to_string(i) + "'"; }

/// Two-variable predicate query, served in the pipelined engines' form and
/// checked in the scoped form.
QuerySpec TwoVar(const std::string& a, const std::string& b,
                 const std::string& preds, const std::string& label) {
  return QuerySpec{"SOME p1 SOME p2 (p1 HAS " + a + " AND p2 HAS " + b +
                       " AND " + preds + ")",
                   "SOME p1 (p1 HAS " + a + " AND SOME p2 (p2 HAS " + b +
                       " AND " + preds + "))",
                   label};
}

QuerySpec Plain(const std::string& q, const std::string& label) {
  return QuerySpec{q, q, label};
}

/// The eight planted topic tokens are statistically identical, so a
/// seeded permutation of them changes the inputs without changing the
/// cost of any template.
std::vector<uint32_t> TopicPermutation(uint64_t seed) {
  std::vector<uint32_t> t = {0, 1, 2, 3, 4, 5, 6, 7};
  fts::Rng rng(seed ^ 0x70b1c5ull);
  for (size_t i = t.size() - 1; i > 0; --i) std::swap(t[i], t[rng.Uniform(i + 1)]);
  return t;
}

ServedConfig RoutedMixConfig(uint64_t seed) {
  const std::vector<uint32_t> t = TopicPermutation(seed);
  ServedConfig c;
  c.name = "routed_mix";
  c.shards = 2;
  c.workers = 1;
  c.open_rate = 400;
  // 30 % BOOL, 50 % PPRED, 20 % NPRED: the median falls inside the PPRED
  // samples rather than on the edge between two classes' latencies.
  c.class_cycle = {"bool", "ppred", "ppred", "bool", "npred",
                   "ppred", "bool", "ppred", "ppred", "npred"};
  c.specs = {
      Plain(Topic(t[0]) + " AND " + Topic(t[1]), "bool"),
      Plain(Topic(t[2]) + " AND NOT " + Topic(t[3]), "bool"),
      Plain(Topic(t[4]) + " AND 'w40'", "bool"),
      Plain("(" + Topic(t[5]) + " OR " + Topic(t[6]) + ") AND NOT 'w30'", "bool"),
      Plain(Topic(t[7]) + " AND " + Topic(t[0]) + " AND NOT " + Topic(t[2]), "bool"),
      TwoVar(Topic(t[0]), Topic(t[1]), "distance(p1, p2, 8)", "ppred"),
      TwoVar("'w0'", "'w1'", "odistance(p1, p2, 0)", "ppred"),
      TwoVar(Topic(t[2]), Topic(t[3]), "samepara(p1, p2)", "ppred"),
      TwoVar("'w2'", Topic(t[4]), "distance(p1, p2, 2)", "ppred"),
      TwoVar("'w3'", "'w5'", "odistance(p1, p2, 0)", "ppred"),
      TwoVar(Topic(t[5]), Topic(t[6]), "ordered(p1, p2) AND samesentence(p1, p2)",
             "ppred"),
      TwoVar("'w1'", "'w4'", "distance(p1, p2, 3)", "ppred"),
      TwoVar(Topic(t[1]), Topic(t[2]), "not_samesentence(p1, p2)", "npred"),
      TwoVar(Topic(t[3]), Topic(t[4]), "not_distance(p1, p2, 20)", "npred"),
      QuerySpec{"SOME p1 SOME p2 SOME p3 (p1 HAS " + Topic(t[5]) + " AND p2 HAS " +
                    Topic(t[6]) + " AND p3 HAS " + Topic(t[7]) +
                    " AND not_distance(p1, p2, 20) AND not_ordered(p2, p3))",
                "SOME p1 (p1 HAS " + Topic(t[5]) + " AND SOME p2 (p2 HAS " +
                    Topic(t[6]) + " AND not_distance(p1, p2, 20) AND SOME p3 (p3 HAS " +
                    Topic(t[7]) + " AND not_ordered(p2, p3))))",
                "npred"},
  };
  return c;
}

ServedConfig RankedTopKConfig(uint64_t seed) {
  const std::vector<uint32_t> t = TopicPermutation(seed);
  ServedConfig c;
  c.name = "ranked_topk";
  c.scoring = "prob";
  c.workers = 2;
  c.top_k = 10;
  c.open_rate = 800;
  // 60 % selective, 30 % frequent, 10 % phrase: the median falls inside
  // the selective samples, whose cost is mostly fixed per-query overhead.
  c.class_cycle = {"selective", "frequent", "selective", "selective", "frequent",
                   "selective", "phrase", "selective", "frequent", "selective"};
  // Selective: one rare term, so top-k seeks past most of the other list.
  // Frequent: head terms and topics only; block-max skips almost nothing
  // there, and top-k costs more than full evaluation.
  c.specs = {
      Plain("'w100' AND " + Topic(t[0]), "selective"),
      Plain("'w3' AND 'w150'", "selective"),
      Plain("'w90' AND " + Topic(t[1]) + " AND " + Topic(t[2]), "selective"),
      Plain("'w2' AND 'w130'", "selective"),
      Plain("'w0' AND 'w1'", "frequent"),
      Plain("'w0' OR 'w5' OR " + Topic(t[3]), "frequent"),
      Plain(Topic(t[4]) + " AND " + Topic(t[5]), "frequent"),
      Plain("'w10' OR 'w11'", "frequent"),
      TwoVar("'w0'", "'w1'", "odistance(p1, p2, 0)", "phrase"),
      TwoVar("'w2'", Topic(t[6]), "distance(p1, p2, 2)", "phrase"),
  };
  return c;
}

ServedConfig CompAlgebraConfig() {
  ServedConfig c;
  c.name = "comp_algebra";
  c.nodes = 1000;
  c.workers = 1;
  c.closed_conns = 1;
  // Few, costly samples: an even cycle over an odd number of shapes keeps
  // each shape's share fixed and puts the median inside one shape's
  // samples, so it does not move with the seed's draw.
  c.zipf = 0;
  c.class_cycle = {"comp"};
  // Head terms (a few occurrences per document) keep one query in the
  // hundreds of milliseconds on 1000 nodes; the planted topic tokens, 25
  // per document, would cost seconds.
  const auto shape = [](const char* a, const char* b, const char* pred) {
    return Plain(std::string("SOME p (p HAS '") + a + "' AND NOT SOME q (q HAS '" + b +
                     "' AND " + pred + "))",
                 "comp");
  };
  c.specs = {
      shape("w5", "w6", "samepara(p, q)"),
      shape("w7", "w8", "samesentence(p, q)"),
      shape("w9", "w10", "distance(p, q, 5)"),
      shape("w11", "w12", "ordered(p, q)"),
      shape("w13", "w14", "samepara(p, q)"),
  };
  return c;
}

/// The seeded request stream: slot i takes class class_cycle[i % len] and
/// a Zipf-drawn spec of that class (rank order = declaration order).
std::vector<uint32_t> BuildOrder(const ServedConfig& c, uint64_t seed, size_t n) {
  std::map<std::string, std::vector<uint32_t>> by_class;
  for (uint32_t i = 0; i < c.specs.size(); ++i) by_class[c.specs[i].label].push_back(i);
  std::map<std::string, std::vector<uint32_t>> draws;
  uint64_t salt = 0;
  for (auto& [label, ids] : by_class) {
    draws[label] = ZipfOrder(seed * 1000003 + ++salt, ids.size(), n, c.zipf);
  }
  std::vector<uint32_t> out(n);
  if (c.zipf <= 0) {
    for (size_t i = 0; i < n; ++i) out[i] = static_cast<uint32_t>(i % c.specs.size());
    return out;
  }
  for (size_t i = 0; i < n; ++i) {
    const std::string& label = c.class_cycle[i % c.class_cycle.size()];
    out[i] = by_class[label][draws[label][i]];
  }
  return out;
}

/// Width of the windows the gated medians are taken over.
constexpr double kWindowS = 0.5;
/// A window in which the host stole this share of the machine's CPU time
/// or more measured the host rather than the program.
constexpr double kMaxStolen = 0.1;
/// Fewest windows (or costly requests) a median is taken over; below it
/// every one counts, stolen or not.
constexpr size_t kMinKept = 4;

/// One timed request outcome, kept for the output checks.
struct Sample {
  uint32_t spec = 0;
  Clock::time_point at;  ///< due (open loop) or send (closed loop) time
  Clock::time_point done;
  double latency_ms = 0;
  fts::LanguageClass cls = fts::LanguageClass::kComp;
  bool ok = false;
  uint64_t digest = 0;  ///< nodes (and score bits under top-k)
};

uint64_t ResponseDigest(const fts::net::SearchResponse& r, bool with_scores) {
  std::vector<uint64_t> v = r.nodes;
  if (with_scores) {
    for (double s : r.scores) v.push_back(std::bit_cast<uint64_t>(s));
  }
  return NodeDigest(v);
}

struct Deployment {
  std::vector<std::unique_ptr<Child>> shards;
  std::unique_ptr<Child> router;
  std::vector<uint16_t> shard_ports;
  uint16_t entry_port = 0;
  std::vector<std::string> index_files;

  uint64_t PeakRssKb() const {
    uint64_t kb = router ? router->PeakRssKb() : 0;
    for (const auto& s : shards) kb += s->PeakRssKb();
    return kb;
  }
  void Stop() {
    if (router) router->Stop();
    for (auto& s : shards) s->Stop();
  }
};

Deployment Deploy(const ServedConfig& c, const Args& args) {
  Deployment d;
  const std::string out = args.work_dir + "/" + c.name + ".fts";
  std::vector<std::string> build = {
      args.tool_dir + "/fts_build_index", "--gen",
      "--nodes", std::to_string(c.nodes),
      "--seed", std::to_string(args.seed),
      "--pair-terms", std::to_string(c.pair_terms),
      "--pair-distance", std::to_string(c.pair_distance),
      "--out", out};
  if (c.shards > 1) {
    build.push_back("--shards");
    build.push_back(std::to_string(c.shards));
    for (uint32_t i = 0; i < c.shards; ++i) {
      d.index_files.push_back(out + ".shard" + std::to_string(i));
    }
  } else {
    d.index_files.push_back(out);
  }
  {
    Child builder(build, args.work_dir + "/build_index.log");
    if (builder.Wait() != 0) throw BenchError("fts_build_index failed");
  }
  for (size_t i = 0; i < d.index_files.size(); ++i) {
    d.shards.push_back(std::make_unique<Child>(
        std::vector<std::string>{args.tool_dir + "/fts_server", "--index",
                                 d.index_files[i], "--port", "0", "--workers",
                                 std::to_string(c.workers), "--scoring", c.scoring,
                                 "--name", "shard" + std::to_string(i)},
        args.work_dir + "/server" + std::to_string(i) + ".log"));
  }
  for (auto& s : d.shards) d.shard_ports.push_back(s->AwaitPort(std::chrono::seconds(60)));
  if (c.shards > 1) {
    std::vector<std::string> argv = {args.tool_dir + "/fts_router", "--port", "0"};
    for (uint16_t p : d.shard_ports) {
      argv.push_back("--shard");
      argv.push_back("127.0.0.1:" + std::to_string(p));
    }
    d.router = std::make_unique<Child>(argv, args.work_dir + "/router.log");
    d.entry_port = d.router->AwaitPort(std::chrono::seconds(60));
  } else {
    d.entry_port = d.shard_ports[0];
  }
  return d;
}

fts::EvalCounters ShardTotals(const Deployment& d) {
  fts::EvalCounters sum;
  for (uint16_t port : d.shard_ports) {
    Conn conn("127.0.0.1", port);
    sum += CountersFromMetrics(ParseMetricsText(conn.Metrics()));
  }
  return sum;
}

uint64_t ShardMetricSum(const Deployment& d, const std::string& key) {
  uint64_t sum = 0;
  for (uint16_t port : d.shard_ports) {
    Conn conn("127.0.0.1", port);
    const auto m = ParseMetricsText(conn.Metrics());
    const auto it = m.find(key);
    if (it != m.end()) sum += it->second;
  }
  return sum;
}

/// Collects samples and counter sums from the load threads.
struct Recorder {
  std::mutex mu;
  std::vector<Sample> samples;
  fts::EvalCounters counters;
  uint64_t failed = 0;
  /// The first successful response of each spec, checked in full; every
  /// later response must carry the same digest.
  std::map<uint32_t, fts::net::SearchResponse> first;

  void Add(uint32_t spec, Clock::time_point at, Clock::time_point done,
           const fts::net::SearchResponse& r, bool with_scores) {
    Sample s;
    s.spec = spec;
    s.at = at;
    s.done = done;
    s.latency_ms = Ms(done - at);
    s.cls = r.language_class;
    s.ok = r.status.ok();
    s.digest = s.ok ? ResponseDigest(r, with_scores) : 0;
    std::lock_guard<std::mutex> lock(mu);
    if (!s.ok) ++failed;
    counters += r.counters;
    samples.push_back(s);
    if (s.ok && !first.count(spec)) first.emplace(spec, r);
  }
};

using Conns = std::vector<std::unique_ptr<Conn>>;

/// Open loop: the calling thread sends on the first `open_conns` of
/// `all_conns` round-robin at fixed due times, stream slots `first` on, and
/// reads responses as they arrive; each request is timed from its due time.
/// Appends the phase's `window_s` windows to `windows` and the generator's
/// lateness (send - due, ms) to `lateness`; returns the number of requests
/// sent.
size_t OpenLoop(const ServedConfig& c, const Conns& all_conns,
                const std::vector<uint32_t>& order, size_t first, double seconds,
                double window_s, Recorder* rec, std::vector<Window>* windows,
                std::vector<double>* lateness) {
  const std::vector<Conn*> conns = [&] {
    std::vector<Conn*> v;
    for (uint32_t i = 0; i < c.open_conns; ++i) v.push_back(all_conns[i].get());
    return v;
  }();
  struct InFlight {
    uint32_t spec;
    Clock::time_point due;
  };
  std::vector<std::deque<InFlight>> inflight(conns.size());
  const size_t total = static_cast<size_t>(c.open_rate * seconds);
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / c.open_rate));
  const Clock::time_point start = Clock::now();
  AppendWindows(start, seconds, window_s, windows);
  size_t sent = 0, received = 0;
  std::vector<pollfd> fds(conns.size());
  while (received < total) {
    const Clock::time_point now = Clock::now();
    if (sent < total && now >= start + interval * sent) {
      const Clock::time_point due = start + interval * sent;
      const uint32_t spec = order[(first + sent) % order.size()];
      const size_t ci = sent % conns.size();
      fts::net::SearchRequest req;
      req.request_id = first + sent + 1;
      req.top_k = c.top_k;
      req.query = c.specs[spec].served;
      conns[ci]->Send(req);
      lateness->push_back(Ms(Clock::now() - due));
      inflight[ci].push_back({spec, due});
      ++sent;
      continue;
    }
    int wait_ms = 50;
    if (sent < total) {
      const auto until = start + interval * sent - Clock::now();
      wait_ms = std::max<int>(0, static_cast<int>(
                                     std::chrono::duration_cast<std::chrono::milliseconds>(until).count()));
    }
    for (size_t i = 0; i < conns.size(); ++i) fds[i] = pollfd{conns[i]->fd(), POLLIN, 0};
    const int n = ::poll(fds.data(), fds.size(), wait_ms);
    if (n < 0 && errno != EINTR) throw BenchError("poll failed");
    for (size_t i = 0; n > 0 && i < conns.size(); ++i) {
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      fts::net::SearchResponse r = conns[i]->Recv();
      if (inflight[i].empty()) throw BenchError("unexpected response");
      const InFlight f = inflight[i].front();
      inflight[i].pop_front();
      rec->Add(f.spec, f.due, Clock::now(), r, c.top_k > 0);
      ++received;
    }
  }
  return total;
}

/// Closed loop: the calling thread alone drives the first `closed_conns`
/// of `all_conns`, each with one request in flight, sending a connection's
/// next request, stream slot `*next` on, as soon as its last is answered.
/// Appends the phase's `window_s` windows to `windows`; responses still in
/// flight when it ends are drained and checked, and complete after its
/// last window.
void ClosedLoop(const ServedConfig& c, const Conns& all_conns,
                const std::vector<uint32_t>& order, size_t* next, double seconds,
                double window_s, Recorder* rec, std::vector<Window>* windows) {
  struct InFlight {
    uint32_t spec;
    Clock::time_point sent;
  };
  const size_t n_conns = c.closed_conns;
  std::vector<std::deque<InFlight>> inflight(n_conns);
  const Clock::time_point start = Clock::now();
  const Clock::time_point until =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  AppendWindows(start, seconds, window_s, windows);
  const auto send = [&](size_t ci) {
    const uint32_t spec = order[*next % order.size()];
    fts::net::SearchRequest req;
    req.request_id = ++*next;
    req.top_k = c.top_k;
    req.query = c.specs[spec].served;
    inflight[ci].push_back({spec, Clock::now()});
    all_conns[ci]->Send(req);
  };
  for (size_t ci = 0; ci < n_conns; ++ci) send(ci);
  std::vector<pollfd> fds(n_conns);
  size_t outstanding = n_conns;
  while (outstanding > 0) {
    for (size_t i = 0; i < n_conns; ++i) fds[i] = pollfd{all_conns[i]->fd(), POLLIN, 0};
    const int n = ::poll(fds.data(), fds.size(), 1000);
    if (n < 0 && errno != EINTR) throw BenchError("poll failed");
    for (size_t i = 0; n > 0 && i < n_conns; ++i) {
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      fts::net::SearchResponse r = all_conns[i]->Recv();
      const Clock::time_point now = Clock::now();
      if (inflight[i].empty()) throw BenchError("unexpected response");
      const InFlight f = inflight[i].front();
      inflight[i].pop_front();
      rec->Add(f.spec, f.sent, now, r, c.top_k > 0);
      --outstanding;
      if (now < until) {
        send(i);
        ++outstanding;
      }
    }
  }
}

/// Checks the recorded answers. Unscored: the first response of each spec
/// must equal the naive oracle's node set (check a). Top-k: the full
/// scored result's node set must equal the oracle (check a) and the first
/// top-k response must be its first k by (score desc, id asc) with
/// bit-equal scores (check b). Every other response of a spec must carry
/// the digest of that spec's checked response.
void Verify(const ServedConfig& c, const Args& args, Deployment& d,
            const std::vector<const Recorder*>& recs, RunResult* out) {
  // Full scored results are fetched while the servers still run.
  std::vector<fts::net::SearchResponse> full;
  if (c.top_k > 0) {
    Conn conn("127.0.0.1", d.entry_port);
    for (const QuerySpec& s : c.specs) full.push_back(conn.Call(s.served, 0));
  }
  d.Stop();
  fts::CorpusGenOptions gen;
  gen.num_nodes = c.nodes;
  gen.seed = args.seed;
  const fts::Corpus corpus = fts::GenerateCorpus(gen);
  const auto oracle = NaiveAll(corpus, c.specs, std::thread::hardware_concurrency());
  std::vector<std::optional<uint64_t>> digest(c.specs.size());
  for (const Recorder* rec : recs) {
    for (const auto& [spec, r] : rec->first) {
      if (digest[spec]) continue;
      const std::string tag = c.name + " spec " + std::to_string(spec) + ": ";
      if (c.top_k == 0) {
        const std::string why = CheckNodes(oracle[spec], r.nodes);
        if (!why.empty()) out->Fail("(a) " + tag + why);
      } else {
        const fts::net::SearchResponse& f = full[spec];
        const std::string why = f.status.ok() ? CheckNodes(oracle[spec], f.nodes)
                                              : f.status.ToString();
        if (!why.empty()) out->Fail("(a) " + tag + "full result: " + why);
        const std::string topk = CheckTopK(f.nodes, f.scores, r.nodes, r.scores, c.top_k);
        if (!topk.empty()) out->Fail("(b) " + tag + topk);
      }
      digest[spec] = ResponseDigest(r, c.top_k > 0);
    }
  }
  for (const Recorder* rec : recs) {
    std::vector<uint64_t> bad(c.specs.size(), 0);
    for (const Sample& s : rec->samples) {
      if (s.ok && s.digest != digest[s.spec]) ++bad[s.spec];
    }
    for (size_t i = 0; i < bad.size(); ++i) {
      if (bad[i] > 0) {
        out->Fail(c.name + " spec " + std::to_string(i) + ": " +
                  std::to_string(bad[i]) + " responses differ from the checked one");
      }
    }
  }
}

const char* ClassKey(fts::LanguageClass cls) {
  switch (cls) {
    case fts::LanguageClass::kBoolNoNeg:
    case fts::LanguageClass::kBool:
      return "bool";
    case fts::LanguageClass::kPpred:
      return "ppred";
    case fts::LanguageClass::kNpred:
      return "npred";
    case fts::LanguageClass::kComp:
      return "comp";
  }
  return "comp";
}

// ------------------------------------------------------------- traced --

/// Per-layer replay of the workload's distinct queries through each
/// layer's public entry point, on the same deployment and inputs.
void TraceServed(const ServedConfig& c, const Args& args, Deployment& d,
                 const std::vector<uint32_t>& order, RunResult* out) {
  Tracer tracer;
  LayerMetrics lm;
  std::vector<double> weight(c.specs.size(), 0);
  for (uint32_t s : order) weight[s] += 1.0 / static_cast<double>(order.size());

  // index: in-process build + save of the same corpus (or its shards), and
  // load of the files the servers serve.
  fts::CorpusGenOptions gen;
  gen.num_nodes = c.nodes;
  gen.seed = args.seed;
  const fts::Corpus corpus = fts::GenerateCorpus(gen);
  fts::IndexBuildOptions bo;
  bo.pairs.frequent_terms = c.pair_terms;
  bo.pairs.max_distance = c.pair_distance;
  {
    std::vector<fts::Corpus> parts;
    if (c.shards > 1) {
      const uint64_t n = corpus.num_nodes();
      uint64_t begin = 0;
      for (uint32_t i = 0; i < c.shards; ++i) {
        const uint64_t size = n / c.shards + (i < n % c.shards ? 1 : 0);
        parts.push_back(*corpus.Slice(static_cast<fts::NodeId>(begin),
                                      static_cast<fts::NodeId>(begin + size)));
        begin += size;
      }
    }
    double build_s = 0, save_s = 0;
    for (size_t i = 0; i < std::max<size_t>(1, parts.size()); ++i) {
      const fts::Corpus& part = parts.empty() ? corpus : parts[i];
      const int span = tracer.Begin("index.build", -1, 0);
      const fts::InvertedIndex idx = fts::IndexBuilder::Build(part, bo);
      build_s += tracer.End(span) / 1e6;
      const int save = tracer.Begin("index.save", -1, 0);
      const std::string path = args.work_dir + "/traced.fts";
      if (!fts::SaveIndexToFile(idx, path).ok()) throw BenchError("save failed");
      save_s += tracer.End(save) / 1e6;
    }
    lm.Set("index.build_s", build_s);
    lm.Set("index.save_s", save_s);
  }
  std::vector<std::shared_ptr<fts::InvertedIndex>> indexes;
  double load_ms = 0, resident = 0;
  for (const std::string& f : d.index_files) {
    auto idx = std::make_shared<fts::InvertedIndex>();
    const int span = tracer.Begin("index.load", -1, 0);
    if (!fts::LoadIndexFromFile(f, idx.get()).ok()) throw BenchError("load failed");
    load_ms += tracer.End(span) / 1e3;
    resident += static_cast<double>(idx->MemoryUsage());
    indexes.push_back(idx);
  }
  lm.Set("index.load_ms", load_ms);
  lm.Set("index.resident_bytes", resident);

  // text: the analyzer over rendered documents.
  {
    fts::Analyzer analyzer;
    const uint32_t docs = std::min<uint32_t>(500, c.nodes);
    std::vector<std::string> texts;
    for (uint32_t i = 0; i < docs; ++i) texts.push_back(RenderDocument(corpus, i));
    const int span = tracer.Begin("text.analyze", -1, 0);
    for (const std::string& t : texts) (void)analyzer.AnalyzeDocument(t);
    lm.Set("text.analyze_us_per_doc", tracer.End(span) / docs);
  }

  // In-process services and searchers over the same files, with the
  // servers' options, so adjacent levels run the same query.
  fts::SearchService::Options so;
  so.num_workers = c.workers;
  so.scoring = c.scoring == "prob" ? fts::ScoringKind::kProbabilistic
                                   : fts::ScoringKind::kNone;
  std::vector<std::unique_ptr<fts::SearchService>> services;
  std::vector<std::unique_ptr<fts::Searcher>> searchers, unscored;
  for (const auto& idx : indexes) {
    services.push_back(std::make_unique<fts::SearchService>(idx.get(), so));
    fts::SearcherOptions sopt;
    sopt.scoring = so.scoring;
    searchers.push_back(std::make_unique<fts::Searcher>(
        fts::IndexSnapshot::ForIndex(idx.get()), sopt));
    unscored.push_back(std::make_unique<fts::Searcher>(
        fts::IndexSnapshot::ForIndex(idx.get()), fts::SearcherOptions{}));
  }
  Conn entry("127.0.0.1", d.entry_port);
  std::vector<std::unique_ptr<Conn>> direct;
  for (uint16_t p : d.shard_ports) direct.push_back(std::make_unique<Conn>("127.0.0.1", p));

  constexpr int kReps = 5;
  std::vector<double> router_self, server_self, parse_us, classify_us, codec_us;
  std::map<std::string, std::vector<double>> search_ms;
  std::vector<double> scoring_overhead, algebra_ms;
  double w_entries = 0, w_positions = 0, w_preds = 0, w_orderings = 0, w_pair_seeks = 0,
         w_pair_entries = 0, w_skipped = 0, w_skip_checks = 0, w_blocks = 0,
         w_first_touch = 0, w_simd = 0, w_tuples = 0, w_bytes = 0;
  double results_total = 0, entries_total = 0, tuples_total = 0, comp_results = 0;
  fts::EvalCounters all;
  uint64_t qid = 0;
  for (size_t s = 0; s < c.specs.size(); ++s) {
    const std::string& q = c.specs[s].served;
    for (int rep = 0; rep < kReps; ++rep) {
      ++qid;
      // lang
      int span = tracer.Begin("lang.parse", -1, qid);
      auto parsed = fts::ParseQuery(q, fts::SurfaceLanguage::kComp);
      parse_us.push_back(tracer.End(span));
      if (!parsed.ok()) throw BenchError("parse: " + parsed.status().ToString());
      span = tracer.Begin("lang.classify", -1, qid);
      const fts::LanguageClass cls = fts::ClassifyQuery(*parsed);
      classify_us.push_back(tracer.End(span));
      // net: entry round trip, then each shard directly.
      const int root = tracer.Begin("net.entry", -1, qid);
      fts::net::SearchResponse routed = entry.Call(q, c.top_k);
      const double entry_us = tracer.End(root);
      double slowest_shard_us = 0;
      double sum_server_self = 0;
      for (size_t j = 0; j < direct.size(); ++j) {
        const int sh = tracer.Begin("net.shard", root, qid);
        fts::net::SearchResponse r = direct[j]->Call(q, c.top_k);
        const double shard_us = tracer.End(sh);
        slowest_shard_us = std::max(slowest_shard_us, shard_us);
        const int sv = tracer.Begin("exec.service", sh, qid);
        auto res = services[j]->Search(q, c.top_k);
        const double service_us = tracer.End(sv);
        if (!res.ok() || !r.status.ok()) throw BenchError("traced query failed: " + q);
        sum_server_self += shard_us - service_us;
        fts::ExecContext ctx;
        ctx.set_top_k(c.top_k);
        const int se = tracer.Begin("eval.searcher", sv, qid);
        auto sr = searchers[j]->SearchParsed(*parsed, ctx);
        const double searcher_us = tracer.End(se);
        if (!sr.ok()) throw BenchError("searcher failed: " + q);
        search_ms[ClassKey(cls)].push_back(searcher_us / 1e3);
        if (cls == fts::LanguageClass::kComp) algebra_ms.push_back(searcher_us / 1e3);
        if (rep == 0) {
          const fts::EvalCounters& k = sr->result.counters;
          const double w = weight[s];
          w_entries += w * k.entries_decoded;
          w_positions += w * k.positions_decoded;
          w_preds += w * k.predicate_evals;
          w_orderings += w * k.orderings_run;
          w_pair_seeks += w * k.pair_seeks;
          w_pair_entries += w * k.pair_entries_decoded;
          w_skipped += w * k.blocks_skipped_by_score;
          w_skip_checks += w * k.skip_checks;
          w_blocks += w * k.blocks_decoded;
          w_first_touch += w * k.first_touch_validations;
          w_simd += w * k.simd_groups_decoded;
          w_tuples += w * k.tuples_materialized;
          results_total += w * static_cast<double>(sr->result.nodes.size());
          entries_total += w * k.entries_decoded;
          if (cls == fts::LanguageClass::kComp) {
            tuples_total += w * k.tuples_materialized;
            comp_results += w * static_cast<double>(sr->result.nodes.size());
          }
          all += k;
        }
        if (so.scoring != fts::ScoringKind::kNone) {
          fts::ExecContext full_scored, full_plain;
          const auto t0 = Clock::now();
          auto a = searchers[j]->SearchParsed(*parsed, full_scored);
          const auto t1 = Clock::now();
          auto b = unscored[j]->SearchParsed(*parsed, full_plain);
          const auto t2 = Clock::now();
          if (!a.ok() || !b.ok()) throw BenchError("scoring replay failed");
          scoring_overhead.push_back(Ms(t1 - t0) - Ms(t2 - t1));
        }
      }
      if (c.shards > 1) router_self.push_back((entry_us - slowest_shard_us) / 1e3);
      server_self.push_back(sum_server_self / 1e3 / static_cast<double>(direct.size()));
      if (rep == 0) {
        const std::string frame = fts::net::EncodeSearchResponse(routed);
        w_bytes += weight[s] * static_cast<double>(frame.size());
        const auto t0 = Clock::now();
        for (int k = 0; k < 20; ++k) {
          const std::string enc = fts::net::EncodeSearchResponse(routed);
          fts::net::SearchResponse dec;
          if (!fts::net::DecodeSearchResponse(
                   std::string_view(enc).substr(fts::net::kFrameHeaderBytes), &dec)
                   .ok()) {
            throw BenchError("codec replay failed");
          }
        }
        codec_us.push_back(Us(Clock::now() - t0) / 20);
      }
    }
  }
  lm.Set("net.router_self_ms", Quantile(router_self, 0.5));
  lm.Set("net.server_self_ms", Quantile(server_self, 0.5));
  lm.Set("net.response_bytes", w_bytes);
  lm.Set("net.wire_codec_us", Mean(codec_us));
  lm.Set("lang.parse_us", Quantile(parse_us, 0.5));
  lm.Set("lang.classify_us", Quantile(classify_us, 0.5));
  for (const char* k : {"bool", "ppred", "npred"}) {
    lm.Set(std::string("eval.search_ms.") + k, Quantile(search_ms[k], 0.5));
  }
  lm.Set("eval.entries_decoded", w_entries);
  lm.Set("eval.positions_decoded", w_positions);
  lm.Set("eval.predicate_evals", w_preds);
  lm.Set("eval.orderings_run", w_orderings);
  lm.Set("eval.useful_ratio", entries_total > 0 ? results_total / entries_total : 0);
  lm.Set("eval.pair_seeks", w_pair_seeks);
  lm.Set("eval.pair_entries_decoded", w_pair_entries);
  lm.Set("eval.blocks_skipped_by_score", w_skipped);
  lm.Set("eval.skip_checks", w_skip_checks);
  lm.Set("eval.blockmax_skip_ratio",
         w_skipped + w_blocks > 0 ? w_skipped / (w_skipped + w_blocks) : 0);
  lm.Set("scoring.overhead_ms", Quantile(scoring_overhead, 0.5));
  lm.Set("algebra.tuples_materialized", w_tuples);
  lm.Set("algebra.tuples_per_result", comp_results > 0 ? tuples_total / comp_results : 0);
  lm.Set("algebra.search_ms", Quantile(algebra_ms, 0.5));
  lm.Set("index.blocks_decoded", w_blocks);
  lm.Set("index.first_touch_validations", w_first_touch);
  lm.Set("common.simd_groups_decoded", w_simd);
  const double l1 = static_cast<double>(all.cache_hits + all.cache_misses);
  lm.Set("index.l1_hit_ratio", l1 > 0 ? all.cache_hits / l1 : 0);
  // The L2 is per serving process: read it from the shards themselves.
  const double l2_hits = static_cast<double>(ShardMetricSum(d, "fts_l2_cache_hits"));
  const double l2_all = l2_hits + static_cast<double>(ShardMetricSum(d, "fts_l2_cache_misses"));
  lm.Set("index.l2_hit_ratio", l2_all > 0 ? l2_hits / l2_all : 0);
  lm.Set("index.l2_resident_bytes",
         static_cast<double>(ShardMetricSum(d, "fts_l2_cache_resident_bytes")));

  // exec: the open-loop schedule replayed into the in-process service of
  // shard 0 (same rate, same order), Submit to ready minus Searcher time.
  {
    std::vector<double> searcher_ms(c.specs.size(), 0);
    for (size_t s = 0; s < c.specs.size(); ++s) {
      auto parsed = fts::ParseQuery(c.specs[s].served, fts::SurfaceLanguage::kComp);
      std::vector<double> t;
      for (int rep = 0; rep < 3; ++rep) {
        fts::ExecContext ctx;
        ctx.set_top_k(c.top_k);
        const auto t0 = Clock::now();
        (void)searchers[0]->SearchParsed(*parsed, ctx);
        t.push_back(Ms(Clock::now() - t0));
      }
      searcher_ms[s] = Quantile(t, 0.5);
    }
    // A closed-loop-only workload replays at well under its capacity.
    const double rate = c.open_rate > 0 ? c.open_rate : 2;
    const double replay_s = c.open_rate > 0 ? 2 : 5;
    std::vector<std::string> slots;
    std::vector<double> own;
    for (size_t i = 0; i < static_cast<size_t>(rate * replay_s); ++i) {
      slots.push_back(c.specs[order[i % order.size()]].served);
      own.push_back(searcher_ms[order[i % order.size()]]);
    }
    const std::vector<double> waits = ReplayQueueWait(*services[0], slots, own, c.top_k, rate);
    lm.Set("exec.queue_wait_ms.p50", Quantile(waits, 0.5));
    lm.Set("exec.queue_wait_ms.p99", Quantile(waits, 0.99));
    lm.Set("exec.peak_queue_depth",
           static_cast<double>(services[0]->metrics().peak_queue_depth));
  }
  tracer.WriteJsonLines(args.trace_dir + "/trace_" + c.name + ".jsonl");
  out->attempted = qid;
  out->metrics = lm.Finish();
  out->report["trace_span_ns"] = {SpanCostNs(), "ns"};
}

RunResult RunServed(const ServedConfig& c, const Args& args) {
  const Clock::time_point t0 = Clock::now();
  RunResult out;
  Deployment d = Deploy(c, args);
  // Setup ends at the first correct answer; its correctness is checked
  // with every other response once the oracle has run.
  Conn first("127.0.0.1", d.entry_port);
  const fts::net::SearchResponse first_resp = first.Call(c.specs[0].served, c.top_k);
  const double setup_s = SecondsSince(t0);

  std::fprintf(stderr, "perfbench: %s set up in %.3f s\n", c.name.c_str(), setup_s);
  const size_t stream_len = 20000;
  const std::vector<uint32_t> order = BuildOrder(c, args.seed, stream_len);
  if (args.trace) {
    TraceServed(c, args, d, order, &out);
    d.Stop();
    return out;
  }

  // Warm-up: every distinct query once, so caches fill and lazy set-up
  // finishes before timing (its answers are checked too).
  Recorder warm;
  warm.Add(0, t0, t0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(setup_s)),
           first_resp, c.top_k > 0);
  for (uint32_t s = 0; s < c.specs.size(); ++s) {
    const Clock::time_point sent = Clock::now();
    const fts::net::SearchResponse r = first.Call(c.specs[s].served, c.top_k);
    warm.Add(s, sent, Clock::now(), r, c.top_k > 0);
  }

  Recorder open, closed;
  std::fprintf(stderr, "perfbench: warm-up done at %.3f s\n", SecondsSince(t0));
  Conns conns;
  for (uint32_t i = 0; i < std::max(c.open_conns, c.closed_conns); ++i) {
    conns.push_back(std::make_unique<Conn>("127.0.0.1", d.entry_port));
  }
  const StealMonitor steal;
  const fts::EvalCounters before = ShardTotals(d);
  std::vector<double> lateness;
  std::vector<Window> open_windows, closed_windows;
  const double secs = static_cast<double>(args.seconds);
  size_t next = 0;
  if (c.open_rate > 0) {
    // Open and closed phases alternate in blocks of about kBlockS each, so
    // both latency and capacity are sampled across the whole run: a slow
    // spell of a shared machine then weighs on both alike instead of on
    // whichever phase it fell in.
    constexpr double kBlockS = 2.5;
    const size_t blocks = std::max<size_t>(1, static_cast<size_t>(secs / (2 * kBlockS)));
    const double block_s = secs / static_cast<double>(2 * blocks);
    size_t open_sent = 0;
    for (size_t b = 0; b < blocks; ++b) {
      open_sent += OpenLoop(c, conns, order, open_sent, block_s, kWindowS, &open,
                            &open_windows, &lateness);
      ClosedLoop(c, conns, order, &next, block_s, kWindowS, &closed, &closed_windows);
    }
  } else {
    ClosedLoop(c, conns, order, &next, secs, kWindowS, &closed, &closed_windows);
  }
  std::fprintf(stderr, "perfbench: load done at %.3f s\n", SecondsSince(t0));
  const fts::EvalCounters after = ShardTotals(d);
  const double rss_mb = static_cast<double>(d.PeakRssKb()) / 1024.0;

  // Check (d): response counters summed over the window equal the
  // shards' /metrics growth over the same window.
  fts::EvalCounters sent = open.counters;
  sent += closed.counters;
  fts::EvalCounters growth;
  for (const CounterField& f : CounterFields()) {
    growth.*f.member = after.*f.member - before.*f.member;
  }
  for (const std::string& diff : DiffCounters(sent, growth)) {
    out.Fail("(d) " + c.name + " counter " + diff + " (responses/metrics)");
  }

  Verify(c, args, d, {&warm, &open, &closed}, &out);
  std::fprintf(stderr, "perfbench: checks done at %.3f s\n", SecondsSince(t0));

  out.attempted = open.samples.size() + closed.samples.size();
  out.failed = open.failed + closed.failed;
  uint64_t index_bytes = 0;
  for (const std::string& f : d.index_files) index_bytes += FileBytes(f);

  // Windows, or for costly queries single requests, in which the host
  // stole kMaxStolen of the CPU time or more measured the host and are
  // left out of the medians, unless too few would be left.
  std::vector<double> lat;
  std::vector<std::pair<Clock::time_point, double>> at_lat;
  std::map<std::string, std::vector<double>> by_class;
  double qps = 0, p50 = 0;
  size_t stolen = 0;
  if (c.open_rate > 0) {
    for (const Sample& s : open.samples) {
      lat.push_back(s.latency_ms);
      at_lat.emplace_back(s.at, s.latency_ms);
      by_class[ClassKey(s.cls)].push_back(s.latency_ms);
    }
    std::vector<Clock::time_point> done;
    for (const Sample& s : closed.samples) done.push_back(s.done);
    const std::vector<Window> open_kept =
        UnstolenWindows(open_windows, steal, kMaxStolen, kMinKept);
    const std::vector<Window> closed_kept =
        UnstolenWindows(closed_windows, steal, kMaxStolen, kMinKept);
    stolen = open_windows.size() - open_kept.size() + closed_windows.size() - closed_kept.size();
    // Median over windows of the open loop's per-window medians (by due
    // time), and of the closed loop's completions per second.
    p50 = MedianOfMedians(at_lat, open_kept);
    qps = MedianRate(done, closed_kept);
    out.report["windows_timed"] = {static_cast<double>(open_windows.size() + closed_windows.size()), "count"};
  } else {
    // Costly single-request shapes: median latency, and the rate as the
    // count over the time the requests took.
    std::vector<double> kept_ms;
    for (const Sample& s : closed.samples) {
      lat.push_back(s.latency_ms);
      by_class[ClassKey(s.cls)].push_back(s.latency_ms);
      if (steal.StolenShare(s.at, s.done) < kMaxStolen) kept_ms.push_back(s.latency_ms);
    }
    if (kept_ms.size() < kMinKept) kept_ms = lat;
    stolen = lat.size() - kept_ms.size();
    double busy_ms = 0;
    for (double ms : kept_ms) busy_ms += ms;
    p50 = Quantile(kept_ms, 0.5);
    qps = busy_ms > 0 ? 1000.0 * static_cast<double>(kept_ms.size()) / busy_ms : 0;
  }
  out.report["stolen_left_out"] = {static_cast<double>(stolen), "count"};
  out.metrics["setup_s"] = {setup_s, "s"};
  out.metrics["index_bytes"] = {static_cast<double>(index_bytes), "bytes"};
  out.metrics["qps_max"] = {qps, "1/s"};
  out.metrics["p50_ms"] = {p50, "ms"};
  out.report["p50_ms.pooled"] = {Quantile(lat, 0.5), "ms"};
  out.metrics["peak_rss_mb"] = {rss_mb, "MiB"};
  out.report["samples_timed"] = {static_cast<double>(lat.size()), "count"};
  if (lat.size() >= 1000) out.report["p99_ms"] = {Quantile(lat, 0.99), "ms"};
  out.report["p25_ms"] = {Quantile(lat, 0.25), "ms"};
  out.report["p75_ms"] = {Quantile(lat, 0.75), "ms"};
  for (auto& [k, v] : by_class) out.report["p50_ms." + k] = {Quantile(v, 0.5), "ms"};
  if (!lateness.empty()) {
    out.report["open_loop_late_p99_ms"] = {Quantile(lateness, 0.99), "ms"};
    out.report["open_loop_late_max_ms"] = {Quantile(lateness, 1.0), "ms"};
    out.report["offered_rate"] = {c.open_rate, "1/s"};
  }
  return out;
}

}  // namespace

RunResult RunRoutedMix(const Args& args) { return RunServed(RoutedMixConfig(args.seed), args); }
RunResult RunRankedTopK(const Args& args) { return RunServed(RankedTopKConfig(args.seed), args); }
RunResult RunCompAlgebra(const Args& args) { return RunServed(CompAlgebraConfig(), args); }

}  // namespace pb
