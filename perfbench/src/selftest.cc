// Self-tests of the harness: the percentile helper, seeded arrival
// schedules, seeded tables, the registry delta and the metric printer.
// Exits non-zero on the first failed check.
//
//   .bench_build/perfbench/perfbench_selftest

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "common/metrics_registry.h"
#include "common/serial.h"
#include "ledger.h"
#include "openloop.h"
#include "workloads.h"

namespace {

using namespace perfbench;  // NOLINT

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool Near(double a, double b) { return std::abs(a - b) < 1e-9; }

void TestQuantile() {
  // Reference values from Python: statistics.quantiles(v, n=4,
  // method="inclusive") and numpy.percentile (linear interpolation).
  const std::vector<double> v = {7, 1, 3, 5, 9};
  Check(Near(Quantile(v, 0.0), 1), "quantile 0 is the minimum");
  Check(Near(Quantile(v, 1.0), 9), "quantile 1 is the maximum");
  Check(Near(Median(v), 5), "median of an odd sample");
  Check(Near(Median({1, 2, 3, 4}), 2.5), "median of an even sample");
  Check(Near(Quantile(v, 0.25), 3), "first quartile");
  Check(Near(Quantile({1, 2, 3, 4}, 0.25), 1.75), "interpolated quartile");
  Check(Near(Quantile({10, 20}, 0.99), 19.9), "p99 interpolates");
  Check(Quantile({}, 0.5) == 0, "empty sample gives 0");
  const double inf = std::numeric_limits<double>::infinity();
  Check(std::isinf(Quantile({1, 2, inf, inf}, 0.99)),
        "failed requests (+inf) dominate the tail");
  Check(Near(Quantile({1, 2, 3, inf}, 0.5), 2.5),
        "one failure in four leaves the median finite");
}

void TestSchedule() {
  const auto a = PoissonSchedule(42, 10000, 1.0);
  const auto b = PoissonSchedule(42, 10000, 1.0);
  const auto c = PoissonSchedule(43, 10000, 1.0);
  Check(a == b, "a seed reproduces the arrival schedule");
  Check(a != c, "another seed gives another schedule");
  Check(a.size() > 9500 && a.size() < 10500,
        "10000/s for 1 s gives about 10000 arrivals (" +
            std::to_string(a.size()) + ")");
  bool sorted = true;
  for (size_t i = 1; i < a.size(); ++i) sorted &= a[i] >= a[i - 1];
  Check(sorted && !a.empty() && a.back() < 1000000000ULL,
        "arrivals ascend inside the phase");
}

std::string TableBytes(const DataTable& t) {
  treeserver::BinaryWriter w;
  for (int c = 0; c < t.num_columns(); ++c) {
    const auto& col = *t.column(c);
    for (size_t r = 0; r < t.num_rows(); ++r) {
      if (col.type() == treeserver::DataType::kNumeric) {
        w.Write(col.numeric_at(r));
      } else {
        w.Write(col.category_at(r));
      }
    }
  }
  return w.buffer();
}

void TestTables() {
  for (const Workload& w : Workloads()) {
    Workload small = w;
    small.profile.rows = 2000;
    const std::string a = TableBytes(MakeTable(small, 7));
    Check(a == TableBytes(MakeTable(small, 7)),
          w.name + ": a seed reproduces the table");
    Check(a != TableBytes(MakeTable(small, 8)),
          w.name + ": another seed gives another table");
    if (w.round_target) {
      const DataTable t = MakeTable(small, 7);
      bool integral = true;
      for (double y : t.target()->numeric_values()) {
        integral &= y == std::round(y);
      }
      Check(integral, w.name + ": regression target is integer-valued");
    }
    Check(MakeJob(w, 7).seed == 7, w.name + ": the job seed is the run seed");
  }
}

void TestRegistryDelta() {
  treeserver::MetricsRegistry registry;
  registry.GetCounter("c")->Add(5);
  registry.GetHistogram("h")->Add(100);
  const RegistrySnapshot before = RegistrySnapshot::Take(registry);
  registry.GetCounter("c")->Add(3);
  registry.GetHistogram("h")->Add(7);
  registry.GetHistogram("h")->Add(7);
  RegistryDelta delta;
  delta.Add(before, RegistrySnapshot::Take(registry));
  Check(delta.Counter("c") == 3, "counter delta covers the window only");
  Check(delta.Hist("h").count == 2 && delta.Hist("h").sum == 14,
        "histogram delta covers the window only");
}

void TestLedgerJson() {
  Ledger ledger;
  ledger.Set("b.x", 1.5, "ms");
  ledger.Set("a", 0.1, "1/s");
  Check(ledger.ToJson() ==
            "{\"a\": {\"value\": 0.10000000000000001, \"unit\": \"1/s\"}, "
            "\"b.x\": {\"value\": 1.5, \"unit\": \"ms\"}}",
        "ledger prints every metric with its unit and all its digits");
}

}  // namespace

int main() {
  TestQuantile();
  TestSchedule();
  TestTables();
  TestRegistryDelta();
  TestLedgerJson();
  std::printf("%d failure(s)\n", failures);
  return failures == 0 ? 0 : 1;
}
