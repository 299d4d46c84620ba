// Order statistics and the host fingerprint stamped on every result.
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>

#include "heatmap/raster_kernels.h"
#include "perfbench.h"

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double TailPercentile(std::vector<double> values, size_t beyond,
                      double* percentile) {
  if (values.empty()) {
    *percentile = 0;
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  if (n <= beyond) {
    // No percentile has `beyond` samples above it: report the median.
    *percentile = 50;
    return Median(values);
  }
  // Index n-1-beyond has exactly `beyond` samples above it.
  *percentile = 100.0 * static_cast<double>(n - beyond) / n;
  return values[n - 1 - beyond];
}

Fingerprint HostFingerprint() {
  Fingerprint f;
  f.nproc = static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  f.raster_backend = rnnhm::RasterBackendName(rnnhm::ActiveRasterBackend());
  f.compiler = PERFBENCH_COMPILER;
  f.build_type = PERFBENCH_BUILD_TYPE;
  const char* simd = std::getenv("RNNHM_DISABLE_SIMD");
  f.simd_disabled =
      simd != nullptr && simd[0] != '\0' && std::strcmp(simd, "0") != 0;
  return f;
}

std::string FingerprintJson(const Fingerprint& f) {
  return "{\"nproc\": " + std::to_string(f.nproc) +
         ", \"raster_backend\": \"" + f.raster_backend +
         "\", \"compiler\": \"" + f.compiler + "\", \"build_type\": \"" +
         f.build_type + "\", \"simd_disabled\": " +
         (f.simd_disabled ? "true" : "false") + "}";
}

}  // namespace perfbench
