// Span recording for the traced mode (README.md "Traced mode").
//
// Spans are taken by the benchmark around its own calls into each layer's
// public entry point — the program itself is not instrumented. They stay in
// memory and are written out as JSON lines when the run ends. Calls at
// adjacent levels are made on the same query, so a layer's self time is its
// span minus the span of the level below.

#ifndef FTS_PERFBENCH_TRACE_H_
#define FTS_PERFBENCH_TRACE_H_

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "exec/search_service.h"
#include "perfbench.h"

namespace pb {

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Opens a span; returns its index (the `parent` of nested spans).
  int Begin(const char* name, int parent, uint64_t query_id) {
    spans_.push_back(Span{name, Now(), 0, parent, query_id});
    return static_cast<int>(spans_.size() - 1);
  }
  /// Closes span `i`; returns its duration in microseconds.
  double End(int i) {
    spans_[i].end_us = Now();
    return spans_[i].end_us - spans_[i].start_us;
  }

  void WriteJsonLines(const std::string& path) const {
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) throw BenchError("cannot write " + path);
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                   "\"parent\":%d,\"query\":%llu}\n",
                   s.name, s.start_us, s.end_us, s.parent,
                   static_cast<unsigned long long>(s.query_id));
    }
    std::fclose(f);
  }

 private:
  struct Span {
    const char* name;
    double start_us;
    double end_us;
    int parent;
    uint64_t query_id;
  };
  double Now() const { return Us(Clock::now() - origin_); }

  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Cost of one Begin/End pair in nanoseconds, measured on a scratch tracer:
/// the overhead a span adds to the call it brackets.
inline double SpanCostNs() {
  constexpr int kSpans = 100000;
  Tracer scratch;
  const Clock::time_point t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) scratch.End(scratch.Begin("overhead", -1, i));
  return Us(Clock::now() - t0) * 1e3 / kSpans;
}

/// Per-layer metric values of one traced run. Finish() returns every name
/// of PerLayerMetrics() with its unit; layers the workload does not run
/// report 0.
class LayerMetrics {
 public:
  void Set(const std::string& name, double value) {
    for (const auto& [known, unit] : PerLayerMetrics()) {
      if (known == name) {
        values_[name] = value;
        return;
      }
    }
    throw BenchError("unknown per-layer metric " + name);
  }
  std::map<std::string, Metric> Finish() const {
    std::map<std::string, Metric> out;
    for (const auto& [name, unit] : PerLayerMetrics()) {
      const auto it = values_.find(name);
      out[name] = Metric{it == values_.end() ? 0.0 : it->second, unit};
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

/// Replays an open-loop schedule (`queries[i]` due at i / rate seconds)
/// into an in-process service; returns each request's Submit-to-ready time
/// minus `own_ms[i]`, the query's Searcher time measured alone — the time
/// it waited in the queue.
std::vector<double> ReplayQueueWait(fts::SearchService& service,
                                    const std::vector<std::string>& queries,
                                    const std::vector<double>& own_ms, size_t top_k,
                                    double rate);

}  // namespace pb

#endif  // FTS_PERFBENCH_TRACE_H_
