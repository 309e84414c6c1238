// The evaluation harness: runs workloads under the paper's three browser
// configurations and reports normalized overheads (§5.3).
//
//   base  — unmodified build: single fast allocator, no call gates.
//   alloc — pkalloc in place (split pools, slower shared-pool allocator) but
//           no gate instrumentation.
//   mpk   — full PKRU-Safe: profile-partitioned heap + call gates around the
//           engine and each binding crossing.
//
// For the mpk configuration the harness first performs a profiling run of
// the same workload (the paper's "profile the application to capture its
// expected behavior") and feeds the resulting profile into the enforcing
// runtime's site policy.
#ifndef SRC_WORKLOADS_HARNESS_H_
#define SRC_WORKLOADS_HARNESS_H_

#include <string>
#include <vector>

#include "src/workloads/suites.h"
#include "src/runtime/runtime.h"

namespace pkrusafe {

enum class BenchConfig : uint8_t { kBase, kAlloc, kMpk };
const char* BenchConfigName(BenchConfig config);

struct WorkloadResult {
  std::string name;
  double base_ns = 0;   // per bench() call
  double alloc_ns = 0;
  double mpk_ns = 0;
  uint64_t transitions = 0;  // during the timed mpk runs
  double untrusted_fraction = 0;  // %M_U of heap traffic in the mpk run
  size_t sites_seen = 0;
  size_t sites_shared = 0;

  double alloc_overhead() const { return base_ns == 0 ? 0 : alloc_ns / base_ns - 1.0; }
  double mpk_overhead() const { return base_ns == 0 ? 0 : mpk_ns / base_ns - 1.0; }
};

struct SuiteResult {
  std::string name;
  std::vector<WorkloadResult> workloads;

  // Arithmetic means of per-workload normalized overheads (paper Tables 1-2).
  double mean_alloc_overhead() const;
  double mean_mpk_overhead() const;
  // Geometric mean of normalized runtimes (JetStream2-style scoring).
  double geomean_mpk_normalized() const;
  double geomean_alloc_normalized() const;
  uint64_t total_transitions() const;
  double mean_untrusted_fraction() const;
};

struct HarnessOptions {
  // Timed bench() calls per configuration (after one untimed warmup).
  int repetitions = 3;
  // Backend for every configuration.
  BackendKind backend = BackendKind::kSim;
  // Ablation (§5.3): serve M_U from the fast heap in the alloc/mpk
  // configurations. The paper found this removed all detectable allocator
  // overhead.
  bool fast_shared_heap = false;
};

class WorkloadHarness {
 public:
  explicit WorkloadHarness(HarnessOptions options = {}) : options_(options) {}

  Result<WorkloadResult> RunWorkload(const WorkloadSpec& spec);
  Result<SuiteResult> RunSuite(const SuiteSpec& suite);

 private:
  Result<double> TimeConfiguration(const WorkloadSpec& spec, BenchConfig config,
                                   const Profile& profile, WorkloadResult* result);
  Result<Profile> CollectProfile(const WorkloadSpec& spec);

  HarnessOptions options_;
};

}  // namespace pkrusafe

#endif  // SRC_WORKLOADS_HARNESS_H_
