#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/metrics_registry.h"

namespace perfbench {

/// Exact quantile of a sample, interpolating linearly between the two
/// closest ranks (NumPy's default; Python's
/// statistics.quantiles(method="inclusive")). `q` is in [0, 1]; an
/// empty sample gives 0. Works on exact per-request samples, never on
/// the registry's log2-bucketed Histogram.
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);
/// Median, over `windows` equal consecutive slices of the sample, of
/// each slice's `q` quantile. A host stall that delays a burst of
/// requests lands in one slice, so it cannot decide a run's tail figure
/// on its own.
double WindowedQuantile(const std::vector<double>& values, double q,
                        int windows);
double Mean(const std::vector<double>& values);

/// Named metrics with units, printed as
/// {"name": {"value": v, "unit": "u"}, ...} in name order.
class Ledger {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  std::string ToJson() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Entry> entries_;
};

/// Bucket-wise `after - before` of two snapshots of one histogram; `max`
/// stays the later maximum (a histogram keeps no per-window maximum).
treeserver::Histogram::Snapshot HistMinus(
    const treeserver::Histogram::Snapshot& after,
    const treeserver::Histogram::Snapshot& before);

/// Counter values and histogram snapshots of a MetricsRegistry at one
/// instant. Layers publish into the process-global registry, so every
/// per-layer number is a difference of two of these taken around the
/// measured operation.
struct RegistrySnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, treeserver::Histogram::Snapshot> histograms;

  static RegistrySnapshot Take(const treeserver::MetricsRegistry& registry);
};

/// Sum of registry changes over one or more measured windows.
class RegistryDelta {
 public:
  void Add(const RegistrySnapshot& before, const RegistrySnapshot& after);
  uint64_t Counter(const std::string& name) const;
  treeserver::Histogram::Snapshot Hist(const std::string& name) const;

 private:
  std::map<std::string, uint64_t> counters_;
  std::map<std::string, treeserver::Histogram::Snapshot> histograms_;
};

/// Peak resident set size of this process, in MB.
double PeakRssMb();

/// Host and build stamp: nproc, detected and active SIMD level,
/// compiler and build type, as one JSON object.
std::string HostBuildJson();

/// Empty when this binary may be timed; otherwise why not (a Debug or
/// sanitizer build).
std::string UntimeableBuildReason();

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
