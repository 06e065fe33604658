#include "ledger.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <string_view>
#include <thread>

#include "common/simd.h"

namespace perfbench {

using treeserver::Histogram;

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = std::clamp(q, 0.0, 1.0) * (values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  // Equal neighbours (two +inf failures included) need no interpolation.
  if (frac == 0.0 || values[lo] == values[hi]) return values[lo];
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double WindowedQuantile(const std::vector<double>& values, double q,
                        int windows) {
  const size_t n = values.size();
  const size_t k = std::clamp<size_t>(windows, 1, std::max<size_t>(n, 1));
  std::vector<double> per_window;
  for (size_t i = 0; i < k; ++i) {
    per_window.push_back(Quantile(
        std::vector<double>(values.begin() + i * n / k,
                            values.begin() + (i + 1) * n / k),
        q));
  }
  return Median(std::move(per_window));
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void Ledger::Set(const std::string& name, double value,
                 const std::string& unit) {
  entries_[name] = Entry{value, unit};
}

std::string Ledger::ToJson() const {
  std::string out = "{";
  char buf[64];
  for (const auto& [name, entry] : entries_) {
    if (out.size() > 1) out += ", ";
    // Non-finite values cannot be written as JSON numbers; a metric
    // that overflowed (every request missed) prints as a huge finite
    // value instead.
    const double v = std::isfinite(entry.value) ? entry.value : 1e300;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           entry.unit + "\"}";
  }
  return out + "}";
}

RegistrySnapshot RegistrySnapshot::Take(
    const treeserver::MetricsRegistry& registry) {
  RegistrySnapshot out;
  for (const treeserver::MetricSnapshot& m : registry.Snapshot()) {
    if (m.kind == treeserver::MetricSnapshot::Kind::kCounter) {
      out.counters[m.name] = m.count;
    } else if (m.kind == treeserver::MetricSnapshot::Kind::kHistogram) {
      out.histograms[m.name] = m.histogram;
    }
  }
  return out;
}

void RegistryDelta::Add(const RegistrySnapshot& before,
                        const RegistrySnapshot& after) {
  for (const auto& [name, value] : after.counters) {
    auto it = before.counters.find(name);
    counters_[name] += value - (it == before.counters.end() ? 0 : it->second);
  }
  for (const auto& [name, snap] : after.histograms) {
    auto it = before.histograms.find(name);
    histograms_[name].Merge(it == before.histograms.end()
                                ? snap
                                : HistMinus(snap, it->second));
  }
}

Histogram::Snapshot HistMinus(const Histogram::Snapshot& after,
                              const Histogram::Snapshot& before) {
  Histogram::Snapshot out;
  out.count = after.count - before.count;
  out.sum = after.sum - before.sum;
  out.max = after.max;
  for (int i = 0; i < Histogram::kNumBuckets; ++i) {
    out.buckets[i] = after.buckets[i] - before.buckets[i];
  }
  return out;
}

uint64_t RegistryDelta::Counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

Histogram::Snapshot RegistryDelta::Hist(const std::string& name) const {
  auto it = histograms_.find(name);
  return it == histograms_.end() ? Histogram::Snapshot{} : it->second;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string HostBuildJson() {
  using treeserver::SimdLevelName;
  std::string out = "{\"nproc\": ";
  out += std::to_string(std::thread::hardware_concurrency());
  out += ", \"simd_detected\": \"";
  out += SimdLevelName(treeserver::DetectedSimdLevel());
  out += "\", \"simd_active\": \"";
  out += SimdLevelName(treeserver::ActiveSimdLevel());
  out += "\", \"compiler\": \"" PERFBENCH_COMPILER "\"";
  out += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"}";
  return out;
}

std::string UntimeableBuildReason() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "sanitizer build";
#endif
#endif
  const std::string_view type = PERFBENCH_BUILD_TYPE;
  if (type != "RelWithDebInfo" && type != "Release") {
    return "build type '" + std::string(type) + "' (want RelWithDebInfo)";
  }
#ifndef NDEBUG
  return "assertions enabled (NDEBUG unset)";
#endif
  return "";
}

}  // namespace perfbench
