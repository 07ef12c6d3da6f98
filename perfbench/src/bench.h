// Shared pieces of the repo benchmark: run options, the result a workload
// reports, and timing helpers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pb {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// steady_clock ns at which the launcher started this process (0: use the
  /// time main() was entered); set-up time is measured from it.
  int64_t t0_ns = 0;
  /// Directory for run artifacts (the traced run's span dump).
  std::string out_dir;
};

/// Outcome of the output checks: every expectation counts, failures keep
/// their message.
struct Checks {
  int64_t run = 0;
  std::vector<std::string> failed;

  void Expect(bool ok, const std::string& what) {
    ++run;
    if (!ok) failed.push_back(what);
  }
  bool Ok() const { return failed.empty(); }
};

/// What one run prints: operations attempted and failed, the checks, and
/// the metrics by name (units live in main.cc's metric tables; a per-layer
/// metric a workload does not exercise is printed as 0).
struct Report {
  int64_t attempted = 0;
  int64_t failed = 0;
  Checks checks;
  std::map<std::string, double> metrics;
  std::vector<std::string> notes;

  void Add(const std::string& name, double value) { metrics[name] = value; }
};

inline int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seconds since the process was started (Options::t0_ns).
double SecondsSinceStart(const Options& opt);

/// Peak resident set size of this process, MiB.
double PeakRssMib();

inline double MedianOf(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Attention FLOPs of `q_tokens` query tokens at positions [q_first,
/// q_first + q_tokens), each attending causally to every earlier key and
/// itself: 4 * head_dim FLOPs (QK^T and PV) per (query head, key) pair.
inline double CausalAttnFlops(int64_t q_first, int64_t q_tokens, int num_qo_heads,
                              int head_dim) {
  const double keys = static_cast<double>(q_tokens) * static_cast<double>(q_first) +
                      static_cast<double>(q_tokens) * static_cast<double>(q_tokens + 1) / 2.0;
  return 4.0 * head_dim * num_qo_heads * keys;
}

Report RunTenantCluster(const Options& opt);
Report RunKvPressure(const Options& opt);
Report RunAttnKernels(const Options& opt);

/// Feeds every output check a correct result and then corrupted copies of
/// it; returns the number of checks that failed to flag a corruption (or
/// flagged a correct result).
int RunSelfTest();

}  // namespace pb
