#include "openloop.h"

#include <cmath>

#include "common/rng.h"
#include "ledger.h"

namespace perfbench {

std::vector<uint64_t> PoissonSchedule(uint64_t seed, double rate_per_s,
                                      double seconds) {
  std::vector<uint64_t> out;
  if (rate_per_s <= 0 || seconds <= 0) return out;
  treeserver::Rng rng(seed);
  const double end_ns = seconds * 1e9;
  double t = 0.0;
  while (true) {
    // Inverse-CDF exponential gap; 1 - U is in (0, 1], so log is finite.
    t += -std::log(1.0 - rng.UniformDouble()) / rate_per_s * 1e9;
    if (t >= end_ns) break;
    out.push_back(static_cast<uint64_t>(t));
  }
  return out;
}

bool PhaseResult::BacklogGrowing(double slack) const {
  const size_t third = outstanding.size() / 3;
  if (third == 0) return false;
  const std::vector<double> first(outstanding.begin(),
                                  outstanding.begin() + third);
  const std::vector<double> last(outstanding.end() - third, outstanding.end());
  return Mean(last) > 2.0 * Mean(first) + slack;
}

}  // namespace perfbench
