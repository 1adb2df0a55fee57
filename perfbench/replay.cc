// Open-loop replay into an in-process SearchService (traced mode only).

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "trace.h"

namespace pb {

std::vector<double> ReplayQueueWait(fts::SearchService& service,
                                    const std::vector<std::string>& queries,
                                    const std::vector<double>& own_ms, size_t top_k,
                                    double rate) {
  using Future = std::future<fts::StatusOr<fts::RoutedResult>>;
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / rate));
  std::vector<Clock::time_point> submitted(queries.size());
  std::vector<double> waits;
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::pair<size_t, Future>> pending;
  bool done = false;
  // Futures are waited in submission order by one collector thread while
  // the caller keeps the schedule.
  std::thread collector([&] {
    while (true) {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !pending.empty() || done; });
      if (pending.empty()) return;
      auto [i, fut] = std::move(pending.front());
      pending.pop_front();
      lock.unlock();
      (void)fut.get();
      waits.push_back(std::max(0.0, Ms(Clock::now() - submitted[i]) - own_ms[i]));
    }
  });
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < queries.size(); ++i) {
    std::this_thread::sleep_until(start + interval * i);
    fts::SearchService::RequestOptions ro;
    ro.top_k = top_k;
    submitted[i] = Clock::now();
    Future fut = service.Submit(queries[i], ro);
    {
      std::lock_guard<std::mutex> lock(mu);
      pending.emplace_back(i, std::move(fut));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    done = true;
  }
  cv.notify_all();
  collector.join();
  return waits;
}

}  // namespace pb
