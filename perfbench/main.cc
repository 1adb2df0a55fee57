// perfbench_driver: runs one workload of the end-to-end benchmark and
// prints its result as the last line of stdout (README.md).
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --tool-dir DIR --work-dir DIR
//   perfbench_driver --selftest
//
// --trace 0 prints the gated end-to-end metrics; --trace 1 replays the same
// inputs through each layer's entry points and prints the per-layer
// metrics instead. Exit status 0 means the run completed (its "correct"
// field says whether every output check passed); anything else means no
// result.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench.h"

namespace pb {

const std::vector<std::pair<std::string, std::string>>& EndToEndMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"setup_s", "s"},          {"index_bytes", "bytes"}, {"qps_max", "1/s"},
      {"p50_ms", "ms"},          {"peak_rss_mb", "MiB"},
  };
  return m;
}

const std::vector<std::pair<std::string, std::string>>& PerLayerMetrics() {
  static const std::vector<std::pair<std::string, std::string>> m = {
      {"net.router_self_ms", "ms"},
      {"net.server_self_ms", "ms"},
      {"net.response_bytes", "bytes"},
      {"net.wire_codec_us", "us"},
      {"exec.queue_wait_ms.p50", "ms"},
      {"exec.queue_wait_ms.p99", "ms"},
      {"exec.peak_queue_depth", "count"},
      {"exec.add_us.p50", "us"},
      {"exec.add_us.p99", "us"},
      {"exec.seal_ms", "ms"},
      {"exec.compact_ms", "ms"},
      {"exec.segments", "count"},
      {"lang.parse_us", "us"},
      {"lang.classify_us", "us"},
      {"eval.search_ms.bool", "ms"},
      {"eval.search_ms.ppred", "ms"},
      {"eval.search_ms.npred", "ms"},
      {"eval.entries_decoded", "count"},
      {"eval.positions_decoded", "count"},
      {"eval.predicate_evals", "count"},
      {"eval.orderings_run", "count"},
      {"eval.useful_ratio", "ratio"},
      {"eval.pair_seeks", "count"},
      {"eval.pair_entries_decoded", "count"},
      {"eval.blocks_skipped_by_score", "count"},
      {"eval.skip_checks", "count"},
      {"eval.blockmax_skip_ratio", "ratio"},
      {"scoring.overhead_ms", "ms"},
      {"algebra.tuples_materialized", "count"},
      {"algebra.tuples_per_result", "ratio"},
      {"algebra.search_ms", "ms"},
      {"index.build_s", "s"},
      {"index.save_s", "s"},
      {"index.load_ms", "ms"},
      {"index.resident_bytes", "bytes"},
      {"index.l2_resident_bytes", "bytes"},
      {"index.l1_hit_ratio", "ratio"},
      {"index.l2_hit_ratio", "ratio"},
      {"index.blocks_decoded", "count"},
      {"index.first_touch_validations", "count"},
      {"text.analyze_us_per_doc", "us"},
      {"common.simd_groups_decoded", "count"},
  };
  return m;
}

namespace {

[[noreturn]] void Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1 --tool-dir DIR --work-dir DIR [--trace-dir DIR]\n"
               "       perfbench_driver --selftest\n"
               "workloads: routed_mix ranked_topk ingest_under_query comp_algebra\n");
  std::exit(2);
}

void PrintResult(const RunResult& r) {
  for (const std::string& why : r.check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", why.c_str());
  }
  for (const auto& [name, m] : r.report) {
    std::fprintf(stderr, "report %-28s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

}  // namespace
}  // namespace pb

int main(int argc, char** argv) {
  pb::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--selftest") return pb::SelfTest();
    if (i + 1 >= argc) pb::Usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args.seconds = std::atoi(v.c_str());
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else if (a == "--tool-dir") {
      args.tool_dir = v;
    } else if (a == "--work-dir") {
      args.work_dir = v;
    } else if (a == "--trace-dir") {
      args.trace_dir = v;
    } else {
      pb::Usage();
    }
  }
  if (args.seconds < 1 || args.tool_dir.empty() || args.work_dir.empty()) pb::Usage();
  if (args.trace_dir.empty()) args.trace_dir = args.work_dir;
  try {
    pb::RunResult r;
    if (args.workload == "routed_mix") {
      r = pb::RunRoutedMix(args);
    } else if (args.workload == "ranked_topk") {
      r = pb::RunRankedTopK(args);
    } else if (args.workload == "ingest_under_query") {
      r = pb::RunIngestUnderQuery(args);
    } else if (args.workload == "comp_algebra") {
      r = pb::RunCompAlgebra(args);
    } else {
      pb::Usage();
    }
    if (!args.trace) {
      for (const auto& [name, unit] : pb::EndToEndMetrics()) {
        if (!r.metrics.count(name)) throw pb::BenchError("workload lacks metric " + name);
      }
    }
    pb::PrintResult(r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
