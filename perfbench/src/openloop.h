#ifndef PERFBENCH_OPENLOOP_H_
#define PERFBENCH_OPENLOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "concurrent/blocking_queue.h"

namespace perfbench {

/// Arrival offsets (ns after the phase start) of a Poisson process with
/// `rate_per_s` arrivals per second over `seconds`: exponential gaps
/// drawn from a splitmix64 stream seeded with `seed`. The same seed
/// always yields the same schedule.
std::vector<uint64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                      double seconds);

/// How the collector judged one request.
enum class Outcome {
  kOk,
  kFailed,    // refused, shed, or timed out by the system
  kMismatch,  // answered, but not byte-identical to the reference
};

/// One open-loop phase at one offered rate.
struct PhaseResult {
  double target_rate = 0.0;    // requests per second offered
  double achieved_rate = 0.0;  // requests issued / time the issuing took
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t mismatched = 0;
  /// Per request, from its due time to the collector seeing the answer;
  /// +inf for a failed or mismatched request (it misses every limit).
  std::vector<double> latency_us;
  /// Per request, how far after its due time the generator issued it.
  std::vector<double> late_us;
  /// Requests issued but not yet collected, sampled at every issue.
  std::vector<double> outstanding;

  /// True when the outstanding count in the last third of the phase
  /// exceeds twice that of the first third plus `slack` requests: the
  /// system kept up only by queueing.
  bool BacklogGrowing(double slack) const;
};

/// Runs one open-loop phase. The calling thread is the generator: it
/// issues request i at `schedule[i]` (sleeping, then spinning the last
/// stretch) whether or not earlier requests have finished. One
/// collector thread timestamps each answer as it becomes ready.
/// `issue(i)` returns a pending std::future; `collect(i, handle)` reads
/// the ready answer and judges it.
template <typename Pending, typename Issue, typename Collect>
PhaseResult RunOpenLoop(const std::vector<uint64_t>& schedule,
                        double target_rate, Issue issue, Collect collect) {
  using Clock = std::chrono::steady_clock;
  const size_t n = schedule.size();
  PhaseResult result;
  result.target_rate = target_rate;
  result.attempted = n;
  result.latency_us.assign(n, 0.0);
  result.late_us.assign(n, 0.0);
  result.outstanding.assign(n, 0.0);

  treeserver::BlockingQueue<std::pair<size_t, Pending>> pending;
  std::atomic<uint64_t> collected{0};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  auto due = [&](size_t i) {
    return start + std::chrono::nanoseconds(schedule[i]);
  };

  // The collector timestamps each request when its answer is ready, in
  // whatever order answers arrive, so one slow request does not delay
  // the timestamps of the requests behind it. It blocks on the oldest
  // request for at most 50 us, then polls the rest.
  std::thread collector([&] {
    std::vector<std::pair<size_t, Pending>> inflight;
    auto finish = [&](size_t i, Pending& handle) {
      const double us =
          std::chrono::duration<double, std::micro>(Clock::now() - due(i))
              .count();
      const Outcome outcome = collect(i, handle);
      if (outcome == Outcome::kOk) {
        result.latency_us[i] = us;
      } else {
        result.latency_us[i] = std::numeric_limits<double>::infinity();
        ++(outcome == Outcome::kFailed ? result.failed : result.mismatched);
      }
      collected.fetch_add(1, std::memory_order_release);
    };
    while (true) {
      if (inflight.empty()) {
        auto item = pending.Pop();
        if (!item) break;  // closed and drained
        inflight.push_back(std::move(*item));
      }
      while (auto item = pending.TryPop()) inflight.push_back(std::move(*item));
      inflight.front().second.wait_for(std::chrono::microseconds(50));
      size_t kept = 0;
      for (auto& entry : inflight) {
        if (entry.second.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          finish(entry.first, entry.second);
        } else {
          inflight[kept++] = std::move(entry);
        }
      }
      inflight.erase(inflight.begin() + kept, inflight.end());
    }
  });

  Clock::time_point last_issue = start;
  for (size_t i = 0; i < n; ++i) {
    const Clock::time_point when = due(i);
    Clock::time_point now = Clock::now();
    if (when - now > std::chrono::microseconds(300)) {
      std::this_thread::sleep_until(when - std::chrono::microseconds(150));
    }
    while ((now = Clock::now()) < when) {
    }
    result.late_us[i] =
        std::chrono::duration<double, std::micro>(now - when).count();
    result.outstanding[i] = static_cast<double>(
        i - collected.load(std::memory_order_acquire));
    pending.Push({i, issue(i)});
    last_issue = now;
  }
  pending.Close();
  collector.join();

  const double span =
      std::chrono::duration<double>(last_issue - start).count();
  result.achieved_rate = span > 0 ? static_cast<double>(n) / span : 0.0;
  return result;
}

}  // namespace perfbench

#endif  // PERFBENCH_OPENLOOP_H_
