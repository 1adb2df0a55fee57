// Shared declarations of the end-to-end benchmark driver (README.md).
//
// The driver runs one named workload against the serving stack built from
// ../src and ../tools, checks every answer against computations made apart
// from the program, and prints one JSON result line. Infrastructure
// failures (a tool that will not start, a lost connection) throw
// BenchError and end the run without a result; failed output checks are
// reported as "correct": false.

#ifndef FTS_PERFBENCH_PERFBENCH_H_
#define FTS_PERFBENCH_PERFBENCH_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "lang/classify.h"
#include "net/socket.h"
#include "net/wire.h"
#include "text/corpus.h"

namespace pb {

using Clock = std::chrono::steady_clock;

struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Seconds (fractional) from `t0` to now.
double SecondsSince(Clock::time_point t0);
double Ms(Clock::duration d);
double Us(Clock::duration d);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory holding fts_build_index, fts_server and fts_router.
  std::string tool_dir;
  /// Scratch directory for index files and process logs.
  std::string work_dir;
  /// Where a traced run writes its spans (trace_<workload>.jsonl).
  std::string trace_dir;
};

/// One printed metric: value plus unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main: the operation tally, the outcome
/// of every output check, and the metrics of the selected mode.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> check_failures;
  std::map<std::string, Metric> metrics;
  /// Figures printed to stderr only (not gated; README "Reported figures").
  std::map<std::string, Metric> report;

  void Fail(const std::string& why) {
    correct = false;
    check_failures.push_back(why);
  }
};

// ---------------------------------------------------------------- stats --

/// Linear-interpolated quantile of `v` (q in [0,1]); 0 for an empty input.
double Quantile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);

/// A measurement window of wall-clock time, [begin, end).
struct Window {
  Clock::time_point begin;
  Clock::time_point end;
};

/// Appends the whole `window_s` windows of [begin, begin + seconds).
void AppendWindows(Clock::time_point begin, double seconds, double window_s,
                   std::vector<Window>* out);

/// Median over `windows` (sorted, disjoint) of the events per second in
/// each: one stalled window — another tenant of the machine, a page-fault
/// storm — moves a total-count rate but not this.
double MedianRate(const std::vector<Clock::time_point>& events,
                  const std::vector<Window>& windows);

/// Median over `windows` (sorted, disjoint) of each window's median
/// latency, given (time the request was due or sent, latency) pairs;
/// windows without samples are skipped.
double MedianOfMedians(const std::vector<std::pair<Clock::time_point, double>>& at_latency,
                       const std::vector<Window>& windows);

// ----------------------------------------------------------- host steal --

/// Samples the steal column of /proc/stat — time the hypervisor ran other
/// guests while this machine's CPUs had work — on a background thread, so
/// that a window in which the host took the CPUs away can be told apart
/// from one that measured the program.
class StealMonitor {
 public:
  StealMonitor();
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// Stolen time over [a, b) as a share of all CPUs' time in that span,
  /// from the samples around it; 0 where /proc/stat reports no steal.
  double StolenShare(Clock::time_point a, Clock::time_point b) const;

 private:
  struct Reading {
    Clock::time_point at;
    uint64_t steal_ticks;
  };
  void Loop();

  double ticks_per_s_all_cpus_ = 0;
  mutable std::mutex mu_;
  std::vector<Reading> readings_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

/// The windows in which the host stole less than `max_share` of the CPU
/// time, or all of them when fewer than `min_kept` would be left.
std::vector<Window> UnstolenWindows(const std::vector<Window>& all,
                                    const StealMonitor& steal, double max_share,
                                    size_t min_kept);

// ------------------------------------------------------------ processes --

/// A child process started by the benchmark. The destructor stops it
/// (SIGTERM, then SIGKILL after a grace period) and reaps it, so every exit
/// path of the driver, a thrown check failure included, stops its tools.
/// Children also get SIGKILL when the driver itself dies.
class Child {
 public:
  /// Starts `argv` with stdout and stderr appended to `log_path`.
  Child(std::vector<std::string> argv, std::string log_path);
  ~Child();
  Child(const Child&) = delete;
  Child& operator=(const Child&) = delete;

  /// Waits for the child to exit and returns its exit status (-1 when it
  /// died of a signal).
  int Wait();
  /// Polls the log for the "on port N" line a server prints once bound.
  uint16_t AwaitPort(std::chrono::milliseconds timeout);
  /// Peak resident set (VmHWM) in KiB; 0 once the process is gone.
  uint64_t PeakRssKb() const;
  /// SIGTERM, bounded wait, SIGKILL, reap. Idempotent.
  void Stop();

 private:
  std::vector<std::string> argv_;
  std::string log_path_;
  pid_t pid_ = -1;
  bool reaped_ = false;
};

/// VmHWM of `pid` ("self" for the driver) in KiB.
uint64_t PeakRssKbOf(const std::string& pid);

uint64_t FileBytes(const std::string& path);

// ------------------------------------------------------------- counters --

/// The EvalCounters fields under the names /metrics exports them with
/// (fts_eval_<name>). Kept here, apart from the server's own table, so
/// check (d) compares two independent spellings of the counter list.
struct CounterField {
  const char* name;
  uint64_t fts::EvalCounters::*member;
};
const std::vector<CounterField>& CounterFields();

/// Parses a /metrics body into name -> value (labelled lines included
/// verbatim).
std::map<std::string, uint64_t> ParseMetricsText(const std::string& text);

/// EvalCounters rebuilt from a parsed /metrics body.
fts::EvalCounters CountersFromMetrics(const std::map<std::string, uint64_t>& m);

/// Field-by-field comparison; appends "<field> want/got" for each mismatch.
std::vector<std::string> DiffCounters(const fts::EvalCounters& want,
                                      const fts::EvalCounters& got);

// ------------------------------------------------------------ transport --

/// A blocking wire-protocol connection without client-side threads, so a
/// load thread owns exactly one connection and nothing else.
class Conn {
 public:
  Conn(const std::string& host, uint16_t port);
  /// Sends one search request.
  void Send(const fts::net::SearchRequest& req);
  /// Reads and decodes one search response (throws on transport errors).
  fts::net::SearchResponse Recv();
  fts::net::SearchResponse Call(const std::string& query, uint32_t top_k = 0);
  /// The /metrics body over the binary Metrics message.
  std::string Metrics();
  int fd() const { return sock_.fd(); }

 private:
  fts::net::Socket sock_;
  uint64_t next_id_ = 1;
};

// -------------------------------------------------------------- queries --

/// One query of a workload: what is served, an equivalent form for the
/// naive oracle with each quantifier scoped next to its HAS (same
/// semantics, tractable brute force), and the class label it belongs to.
struct QuerySpec {
  std::string served;
  std::string oracle;
  std::string label;  ///< template name, for the README and traces
};

/// Zipf(s) draw of `n` indexes over `k` specs, seeded.
std::vector<uint32_t> ZipfOrder(uint64_t seed, size_t k, size_t n, double s);

/// Renders a generated document as text the tokenizer maps back to the
/// same tokens, sentences and paragraphs.
std::string RenderDocument(const fts::Corpus& corpus, fts::NodeId node);

// -------------------------------------------------------------- oracles --

/// Node ids satisfying `oracle_query` by calculus/naive_eval over `corpus`
/// (parse, translate, brute force; no index, engine or network involved).
std::vector<uint64_t> NaiveNodes(const fts::Corpus& corpus,
                                 const std::string& oracle_query);

/// Evaluates every spec's oracle form on up to `threads` threads.
std::vector<std::vector<uint64_t>> NaiveAll(const fts::Corpus& corpus,
                                            const std::vector<QuerySpec>& specs,
                                            unsigned threads);

/// Order-sensitive digest of a node list, so every response can be checked
/// without keeping it.
uint64_t NodeDigest(const std::vector<uint64_t>& nodes);

/// Check (a): `got` must equal the oracle's node list. Returns "" when it
/// does, else the first difference.
std::string CheckNodes(const std::vector<uint64_t>& oracle,
                       const std::vector<uint64_t>& got);

/// Check (b): `topk` must equal the first k of `full` ordered by
/// (score desc, id asc), with bit-equal scores. Returns "" when it does.
std::string CheckTopK(const std::vector<uint64_t>& full_nodes,
                      const std::vector<double>& full_scores,
                      const std::vector<uint64_t>& topk_nodes,
                      const std::vector<double>& topk_scores, size_t k);

/// Check (c): after ingest, `allmark_count` nodes carry the token every
/// added document carries, and `marker_hits[i]` is how often marker i was
/// found; `deleted[i]` says whether it was deleted. Returns "" when sound.
std::string CheckIngestCounts(uint64_t adds, uint64_t deletes,
                              uint64_t allmark_count,
                              const std::vector<uint64_t>& marker_hits,
                              const std::vector<bool>& deleted);

// ------------------------------------------------------------ workloads --

RunResult RunRoutedMix(const Args& args);
RunResult RunRankedTopK(const Args& args);
RunResult RunCompAlgebra(const Args& args);
RunResult RunIngestUnderQuery(const Args& args);

/// Every per-layer metric name with its unit, in print order; a traced
/// run prints all of them, zero where its workload has no such layer.
const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics();
/// The gated end-to-end metrics with their units.
const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics();

/// Runs each check against doctored answers; returns 0 when every check
/// rejects every doctored answer.
int SelfTest();

}  // namespace pb

#endif  // FTS_PERFBENCH_PERFBENCH_H_
