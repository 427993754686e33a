#include "apps/harness.h"

#include <algorithm>
#include <cmath>

namespace now::apps {

AppResult run_sequential(const sim::TimeModel& time, double host_ns_per_unit,
                         const std::function<double(std::uint64_t& units)>& workload) {
  AppResult result;
  std::uint64_t units = 0;
  result.checksum = workload(units);
  result.virtual_time_us =
      static_cast<double>(time.compute_ns(units, host_ns_per_unit)) / 1000.0;
  return result;
}

bool checksum_close(double a, double b, double rel_tol) {
  const double scale = std::max({std::fabs(a), std::fabs(b), 1.0});
  return std::fabs(a - b) <= rel_tol * scale;
}

}  // namespace now::apps
