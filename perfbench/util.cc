// Statistics, child processes, counters, transport and oracles shared by
// the workloads.

#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <mutex>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <thread>

#include "calculus/naive_eval.h"
#include "common/rng.h"
#include "lang/parser.h"
#include "lang/translate.h"
#include "perfbench.h"

namespace pb {

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

void AppendWindows(Clock::time_point begin, double seconds, double window_s,
                   std::vector<Window>* out) {
  const auto w = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(window_s));
  const size_t n = static_cast<size_t>(seconds / window_s + 1e-9);
  for (size_t i = 0; i < n; ++i) out->push_back({begin + w * i, begin + w * (i + 1)});
}

namespace {

/// Index of the window holding `t`, or windows.size() when none does.
size_t WindowOf(const std::vector<Window>& windows, Clock::time_point t) {
  const auto it = std::upper_bound(windows.begin(), windows.end(), t,
                                   [](Clock::time_point x, const Window& w) { return x < w.begin; });
  if (it == windows.begin()) return windows.size();
  const size_t i = static_cast<size_t>(it - windows.begin()) - 1;
  return t < windows[i].end ? i : windows.size();
}

}  // namespace

double MedianRate(const std::vector<Clock::time_point>& events,
                  const std::vector<Window>& windows) {
  std::vector<double> counts(windows.size(), 0);
  for (Clock::time_point t : events) {
    const size_t i = WindowOf(windows, t);
    if (i < windows.size()) counts[i] += 1;
  }
  std::vector<double> rates;
  for (size_t i = 0; i < windows.size(); ++i) {
    rates.push_back(counts[i] /
                    std::chrono::duration<double>(windows[i].end - windows[i].begin).count());
  }
  return Quantile(std::move(rates), 0.5);
}

double MedianOfMedians(const std::vector<std::pair<Clock::time_point, double>>& at_latency,
                       const std::vector<Window>& windows) {
  std::vector<std::vector<double>> per(windows.size());
  for (const auto& [at, latency] : at_latency) {
    const size_t i = WindowOf(windows, at);
    if (i < windows.size()) per[i].push_back(latency);
  }
  std::vector<double> medians;
  for (auto& v : per) {
    if (!v.empty()) medians.push_back(Quantile(std::move(v), 0.5));
  }
  return Quantile(std::move(medians), 0.5);
}

// ----------------------------------------------------------- host steal --

namespace {

/// The aggregate steal field (8th value of the "cpu" line) of /proc/stat.
std::optional<uint64_t> ReadStealTicks() {
  std::ifstream in("/proc/stat");
  std::string label;
  uint64_t v[8] = {};
  if (!(in >> label) || label != "cpu") return std::nullopt;
  for (uint64_t& x : v) {
    if (!(in >> x)) return std::nullopt;
  }
  return v[7];
}

}  // namespace

StealMonitor::StealMonitor() {
  const long hz = ::sysconf(_SC_CLK_TCK);
  const long cpus = ::sysconf(_SC_NPROCESSORS_ONLN);
  if (hz <= 0 || cpus <= 0 || !ReadStealTicks()) return;
  ticks_per_s_all_cpus_ = static_cast<double>(hz) * static_cast<double>(cpus);
  readings_.push_back({Clock::now(), *ReadStealTicks()});
  thread_ = std::thread([this] { Loop(); });
}

StealMonitor::~StealMonitor() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

void StealMonitor::Loop() {
  while (!stop_) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::optional<uint64_t> ticks = ReadStealTicks();
    if (!ticks) continue;
    std::lock_guard<std::mutex> lock(mu_);
    readings_.push_back({Clock::now(), *ticks});
  }
}

double StealMonitor::StolenShare(Clock::time_point a, Clock::time_point b) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (readings_.size() < 2) return 0;
  // The last reading at or before a and the first at or after b (or the
  // nearest there is), so the span measured covers [a, b).
  auto hi = std::lower_bound(readings_.begin(), readings_.end(), b,
                             [](const Reading& r, Clock::time_point t) { return r.at < t; });
  if (hi == readings_.end()) --hi;
  auto lo = std::upper_bound(readings_.begin(), readings_.end(), a,
                             [](Clock::time_point t, const Reading& r) { return t < r.at; });
  if (lo != readings_.begin()) --lo;
  if (lo >= hi) return 0;
  const double span_s = std::chrono::duration<double>(hi->at - lo->at).count();
  return static_cast<double>(hi->steal_ticks - lo->steal_ticks) /
         (span_s * ticks_per_s_all_cpus_);
}

std::vector<Window> UnstolenWindows(const std::vector<Window>& all,
                                    const StealMonitor& steal, double max_share,
                                    size_t min_kept) {
  std::vector<Window> kept;
  for (const Window& w : all) {
    if (steal.StolenShare(w.begin, w.end) < max_share) kept.push_back(w);
  }
  return kept.size() >= min_kept ? kept : all;
}

// ------------------------------------------------------------ processes --

Child::Child(std::vector<std::string> argv, std::string log_path)
    : argv_(std::move(argv)), log_path_(std::move(log_path)) {
  const int log_fd = ::open(log_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log_fd < 0) throw BenchError("cannot open log " + log_path_);
  std::vector<char*> cargv;
  for (std::string& a : argv_) cargv.push_back(a.data());
  cargv.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(log_fd);
    throw BenchError("fork failed");
  }
  if (pid_ == 0) {
    // Die with the driver, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::close(log_fd);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  ::close(log_fd);
}

Child::~Child() { Stop(); }

int Child::Wait() {
  if (reaped_) return -1;
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
  reaped_ = true;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

void Child::Stop() {
  if (reaped_ || pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  for (int i = 0; i < 500; ++i) {
    int status = 0;
    const pid_t r = ::waitpid(pid_, &status, WNOHANG);
    if (r == pid_ || (r < 0 && errno != EINTR)) {
      reaped_ = true;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid_, SIGKILL);
  Wait();
}

uint16_t Child::AwaitPort(std::chrono::milliseconds timeout) {
  const auto until = Clock::now() + timeout;
  while (Clock::now() < until) {
    std::ifstream in(log_path_);
    std::string line;
    while (std::getline(in, line)) {
      const size_t at = line.find(" on port ");
      if (at != std::string::npos) {
        return static_cast<uint16_t>(std::strtoul(line.c_str() + at + 9, nullptr, 10));
      }
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      reaped_ = true;
      throw BenchError(argv_[0] + " exited before binding; see " + log_path_);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  throw BenchError(argv_[0] + " did not report a port; see " + log_path_);
}

uint64_t PeakRssKbOf(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  return 0;
}

uint64_t Child::PeakRssKb() const {
  return reaped_ ? 0 : PeakRssKbOf(std::to_string(pid_));
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) throw BenchError("cannot stat " + path);
  return static_cast<uint64_t>(st.st_size);
}

// ------------------------------------------------------------- counters --

const std::vector<CounterField>& CounterFields() {
  using C = fts::EvalCounters;
  static const std::vector<CounterField> fields = {
      {"entries_scanned", &C::entries_scanned},
      {"positions_scanned", &C::positions_scanned},
      {"tuples_materialized", &C::tuples_materialized},
      {"predicate_evals", &C::predicate_evals},
      {"cursor_ops", &C::cursor_ops},
      {"orderings_run", &C::orderings_run},
      {"skip_checks", &C::skip_checks},
      {"blocks_decoded", &C::blocks_decoded},
      {"entries_decoded", &C::entries_decoded},
      {"positions_decoded", &C::positions_decoded},
      {"blocks_bulk_decoded", &C::blocks_bulk_decoded},
      {"cache_hits", &C::cache_hits},
      {"cache_misses", &C::cache_misses},
      {"shared_cache_hits", &C::shared_cache_hits},
      {"shared_cache_misses", &C::shared_cache_misses},
      {"first_touch_validations", &C::first_touch_validations},
      {"blocks_skipped_by_score", &C::blocks_skipped_by_score},
      {"simd_groups_decoded", &C::simd_groups_decoded},
      {"bitset_blocks_intersected", &C::bitset_blocks_intersected},
      {"pair_seeks", &C::pair_seeks},
      {"pair_entries_decoded", &C::pair_entries_decoded},
  };
  return fields;
}

std::map<std::string, uint64_t> ParseMetricsText(const std::string& text) {
  std::map<std::string, uint64_t> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtoull(line.c_str() + sp + 1, nullptr, 10);
  }
  return out;
}

fts::EvalCounters CountersFromMetrics(const std::map<std::string, uint64_t>& m) {
  fts::EvalCounters c;
  for (const CounterField& f : CounterFields()) {
    const auto it = m.find(std::string("fts_eval_") + f.name);
    if (it == m.end()) throw BenchError(std::string("/metrics lacks fts_eval_") + f.name);
    c.*f.member = it->second;
  }
  return c;
}

std::vector<std::string> DiffCounters(const fts::EvalCounters& want,
                                      const fts::EvalCounters& got) {
  std::vector<std::string> out;
  for (const CounterField& f : CounterFields()) {
    if (want.*f.member != got.*f.member) {
      out.push_back(std::string(f.name) + " " + std::to_string(want.*f.member) +
                    "/" + std::to_string(got.*f.member));
    }
  }
  return out;
}

// ------------------------------------------------------------ transport --

Conn::Conn(const std::string& host, uint16_t port) {
  auto sock = fts::net::ConnectTcp(host, port, std::chrono::milliseconds(5000));
  if (!sock.ok()) throw BenchError("connect: " + sock.status().ToString());
  sock_ = std::move(*sock);
}

void Conn::Send(const fts::net::SearchRequest& req) {
  const fts::Status s = fts::net::WriteAll(sock_, fts::net::EncodeSearchRequest(req));
  if (!s.ok()) throw BenchError("send: " + s.ToString());
}

fts::net::SearchResponse Conn::Recv() {
  std::string payload;
  fts::Status s = fts::net::ReadFrame(sock_, &payload, fts::net::kMaxFrameBytes);
  if (!s.ok()) throw BenchError("recv: " + s.ToString());
  fts::net::SearchResponse resp;
  s = fts::net::DecodeSearchResponse(payload, &resp);
  if (!s.ok()) throw BenchError("decode: " + s.ToString());
  return resp;
}

fts::net::SearchResponse Conn::Call(const std::string& query, uint32_t top_k) {
  fts::net::SearchRequest req;
  req.request_id = next_id_++;
  req.top_k = top_k;
  req.query = query;
  Send(req);
  fts::net::SearchResponse resp = Recv();
  if (resp.request_id != req.request_id) throw BenchError("response id mismatch");
  return resp;
}

std::string Conn::Metrics() {
  fts::net::MetricsRequest req;
  req.request_id = next_id_++;
  fts::Status s = fts::net::WriteAll(sock_, fts::net::EncodeMetricsRequest(req));
  std::string payload;
  if (s.ok()) s = fts::net::ReadFrame(sock_, &payload, fts::net::kMaxFrameBytes);
  fts::net::MetricsResponse resp;
  if (s.ok()) s = fts::net::DecodeMetricsResponse(payload, &resp);
  if (!s.ok()) throw BenchError("metrics: " + s.ToString());
  return resp.text;
}

// -------------------------------------------------------------- queries --

std::vector<uint32_t> ZipfOrder(uint64_t seed, size_t k, size_t n, double s) {
  fts::Rng rng(seed);
  fts::ZipfSampler zipf(k, s);
  std::vector<uint32_t> out(n);
  for (uint32_t& x : out) x = static_cast<uint32_t>(zipf.Sample(&rng));
  return out;
}

std::string RenderDocument(const fts::Corpus& corpus, fts::NodeId node) {
  const fts::TokenizedDocument& doc = corpus.doc(node);
  std::string out;
  for (size_t i = 0; i < doc.tokens.size(); ++i) {
    if (i > 0) {
      const fts::PositionInfo& prev = doc.positions[i - 1];
      const fts::PositionInfo& cur = doc.positions[i];
      if (cur.paragraph != prev.paragraph) {
        out += ".\n\n";
      } else if (cur.sentence != prev.sentence) {
        out += ". ";
      } else {
        out += ' ';
      }
    }
    out += corpus.token_text(doc.tokens[i]);
  }
  out += '.';
  return out;
}

// -------------------------------------------------------------- oracles --

std::vector<uint64_t> NaiveNodes(const fts::Corpus& corpus,
                                 const std::string& oracle_query) {
  auto parsed = fts::ParseQuery(oracle_query, fts::SurfaceLanguage::kComp);
  if (!parsed.ok()) throw BenchError("oracle parse: " + parsed.status().ToString());
  auto calc = fts::TranslateToCalculus(*parsed);
  if (!calc.ok()) throw BenchError("oracle translate: " + calc.status().ToString());
  fts::NaiveCalculusEvaluator eval(&corpus);
  auto nodes = eval.Evaluate(*calc);
  if (!nodes.ok()) throw BenchError("oracle eval: " + nodes.status().ToString());
  return std::vector<uint64_t>(nodes->begin(), nodes->end());
}

std::vector<std::vector<uint64_t>> NaiveAll(const fts::Corpus& corpus,
                                            const std::vector<QuerySpec>& specs,
                                            unsigned threads) {
  std::vector<std::vector<uint64_t>> out(specs.size());
  std::atomic<size_t> next{0};
  std::string error;
  std::mutex error_mu;
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) {
    pool.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < specs.size();) {
        try {
          out[i] = NaiveNodes(corpus, specs[i].oracle);
        } catch (const std::exception& e) {
          std::lock_guard<std::mutex> lock(error_mu);
          error = e.what();
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (!error.empty()) throw BenchError(error);
  return out;
}

uint64_t NodeDigest(const std::vector<uint64_t>& nodes) {
  uint64_t h = 1469598103934665603ull ^ nodes.size();
  for (uint64_t n : nodes) {
    h ^= n + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
    h *= 1099511628211ull;
  }
  return h;
}

std::string CheckNodes(const std::vector<uint64_t>& oracle,
                       const std::vector<uint64_t>& got) {
  const size_t n = std::min(oracle.size(), got.size());
  for (size_t i = 0; i < n; ++i) {
    if (oracle[i] != got[i]) {
      return "node " + std::to_string(got[i]) + " at rank " + std::to_string(i) +
             ", oracle has " + std::to_string(oracle[i]);
    }
  }
  if (oracle.size() != got.size()) {
    return std::to_string(got.size()) + " nodes, oracle has " +
           std::to_string(oracle.size());
  }
  return "";
}

std::string CheckTopK(const std::vector<uint64_t>& full_nodes,
                      const std::vector<double>& full_scores,
                      const std::vector<uint64_t>& topk_nodes,
                      const std::vector<double>& topk_scores, size_t k) {
  if (full_scores.size() != full_nodes.size()) return "full result lacks scores";
  std::vector<size_t> idx(full_nodes.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    if (full_scores[a] != full_scores[b]) return full_scores[a] > full_scores[b];
    return full_nodes[a] < full_nodes[b];
  });
  const size_t want = std::min(k, idx.size());
  if (topk_nodes.size() != want || topk_scores.size() != want) {
    return "top-k size " + std::to_string(topk_nodes.size()) + " want " +
           std::to_string(want);
  }
  for (size_t r = 0; r < want; ++r) {
    const uint64_t a = std::bit_cast<uint64_t>(full_scores[idx[r]]);
    const uint64_t b = std::bit_cast<uint64_t>(topk_scores[r]);
    if (full_nodes[idx[r]] != topk_nodes[r] || a != b) {
      return "rank " + std::to_string(r) + ": node " + std::to_string(topk_nodes[r]) +
             " want " + std::to_string(full_nodes[idx[r]]);
    }
  }
  return "";
}

std::string CheckIngestCounts(uint64_t adds, uint64_t deletes,
                              uint64_t allmark_count,
                              const std::vector<uint64_t>& marker_hits,
                              const std::vector<bool>& deleted) {
  if (allmark_count != adds - deletes) {
    return "live documents " + std::to_string(allmark_count) + " want " +
           std::to_string(adds) + " - " + std::to_string(deletes);
  }
  for (size_t i = 0; i < marker_hits.size(); ++i) {
    const uint64_t want = deleted[i] ? 0 : 1;
    if (marker_hits[i] != want) {
      return "marker " + std::to_string(i) + " found " +
             std::to_string(marker_hits[i]) + " times, want " + std::to_string(want);
    }
  }
  return "";
}

}  // namespace pb
