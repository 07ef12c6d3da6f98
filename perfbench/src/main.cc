// Repo benchmark program. Usage (normally through run.py, which builds it):
//
//   perfbench[_traced] --workload <tenant_cluster|kv_pressure|attn_kernels>
//       --seed <n> --seconds <s> --trace <0|1> [--t0-ns <ns>] [--out-dir <dir>]
//   perfbench --selftest
//
// The last line of stdout is one JSON object: correct, attempted, failed and
// the metrics (end-to-end with --trace 0, per-layer with --trace 1, which
// needs the perfbench_traced binary). Exit code 0 when every check passed.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "bench.h"

namespace pb {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Keep in step with BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},           {"host_wall_s", "s"},        {"host_us_per_step", "us"},
    {"host_peak_rss_mib", "MiB"}, {"sim_tok_s", "tok/s"},      {"sim_ttft_p50_ms", "ms"},
    {"sim_ttft_p99_ms", "ms"},  {"sim_itl_p50_ms", "ms"},    {"sim_itl_p99_ms", "ms"},
    {"kernel_gflops", "GFLOP/s"},
};

constexpr MetricDef kPerLayer[] = {
    {"radix.match_us", "us"},
    {"radix.insert_us", "us"},
    {"radix.evict_us", "us"},
    {"radix.evict_calls", "count"},
    {"radix.evict_pages", "count"},
    {"radix.evict_share", "fraction"},
    {"radix.first_evict_request", "count"},
    {"cluster.prefix_hit_rate", "fraction"},
    {"cluster.load_imbalance", "ratio"},
    {"engine.step_self_us", "us"},
    {"engine.steps", "count"},
    {"pricing.attn_self_us", "us"},
    {"pricing.calls", "count"},
    {"pricing.share", "fraction"},
    {"bsr.build_us", "us"},
    {"bsr.blocks_per_call", "count"},
    {"scheduler.plan_us", "us"},
    {"scheduler.work_items_per_plan", "count"},
    {"gpusim.makespan_us", "us"},
    {"paged.evict_us", "us"},
    {"paged.restore_us", "us"},
    {"paged.evicted_pages", "count"},
    {"paged.restored_pages", "count"},
    {"codec.encode_us", "us"},
    {"codec.decode_us", "us"},
    {"obs.us_per_step", "us"},
    {"threadpool.fanout_us", "us"},
    {"sim.attn_ms_per_step", "ms"},
    {"sim.gemm_ms_per_step", "ms"},
    {"sim.host_ms_per_step", "ms"},
    {"sim.mixed_step_frac", "fraction"},
    {"sim.cached_prefix_frac", "fraction"},
    {"sim.preemptions", "count"},
    {"sim.swap_restores", "count"},
    {"sim.recompute_tokens", "count"},
    {"sim.swap_stall_ms", "ms"},
    {"sim.swap_hidden_ms", "ms"},
    {"sim.host_stored_ratio", "ratio"},
    {"kernel.run_us", "us"},
    {"kernel.plan_us", "us"},
    {"kernel.bsr_us", "us"},
    {"kernel.append_us", "us"},
    {"kernel.plan_cache_hits", "count"},
    {"kernel.sim_us_per_launch", "us"},
    {"trace.overhead_frac", "fraction"},
    {"trace.spans", "count"},
};

int64_t g_main_ns = 0;

const char* ArgValue(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return nullptr;
}

bool HasFlag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
  }
  return false;
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <tenant_cluster|kv_pressure|"
               "attn_kernels> --seed <n> --seconds <s> --trace <0|1> [--t0-ns <ns>] "
               "[--out-dir <dir>] | --selftest\n",
               msg);
  return 2;
}

/// Prints the run's table, then the result JSON as the last stdout line.
int Emit(const Report& rep, bool trace) {
  const bool correct = rep.checks.Ok();
  // A name outside this run's table is a typo that would otherwise vanish.
  for (const auto& [name, value] : rep.metrics) {
    bool known = false;
    for (const MetricDef& d : trace ? std::span<const MetricDef>(kPerLayer)
                                    : std::span<const MetricDef>(kEndToEnd)) {
      known = known || name == d.name;
    }
    if (!known) {
      std::fprintf(stderr, "perfbench: workload reported unknown metric %s\n", name.c_str());
      return 1;
    }
  }
  std::vector<std::pair<const MetricDef*, double>> out;
  if (trace) {
    for (const MetricDef& d : kPerLayer) {
      const auto it = rep.metrics.find(d.name);
      out.push_back({&d, it == rep.metrics.end() ? 0.0 : it->second});
    }
  } else {
    for (const MetricDef& d : kEndToEnd) {
      const auto it = rep.metrics.find(d.name);
      if (it == rep.metrics.end()) {
        std::fprintf(stderr, "perfbench: workload did not report %s\n", d.name);
        return 1;
      }
      out.push_back({&d, it->second});
    }
  }
  for (const std::string& n : rep.notes) std::printf("%s\n", n.c_str());
  std::printf("checks: %lld run, %zu failed\n", static_cast<long long>(rep.checks.run),
              rep.checks.failed.size());
  for (size_t i = 0; i < rep.checks.failed.size() && i < 20; ++i) {
    std::printf("  FAILED: %s\n", rep.checks.failed[i].c_str());
  }
  for (const auto& [d, v] : out) std::printf("%-32s %16.6f %s\n", d->name, v, d->unit);

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", out[i].first->name, out[i].second, out[i].first->unit);
    json += buf;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

double SecondsSinceStart(const Options& opt) {
  const int64_t t0 = opt.t0_ns > 0 ? opt.t0_ns : g_main_ns;
  return static_cast<double>(SteadyNs() - t0) * 1e-9;
}

double PeakRssMib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

}  // namespace pb

int main(int argc, char** argv) {
  pb::g_main_ns = pb::SteadyNs();
  if (pb::HasFlag(argc, argv, "--selftest")) return pb::RunSelfTest() == 0 ? 0 : 1;

  pb::Options opt;
  const char* workload = pb::ArgValue(argc, argv, "--workload");
  const char* seed = pb::ArgValue(argc, argv, "--seed");
  const char* seconds = pb::ArgValue(argc, argv, "--seconds");
  const char* trace = pb::ArgValue(argc, argv, "--trace");
  if (workload == nullptr || seed == nullptr || seconds == nullptr || trace == nullptr) {
    return pb::Usage("missing argument");
  }
  opt.workload = workload;
  opt.seed = std::strtoull(seed, nullptr, 10);
  opt.seconds = std::strtod(seconds, nullptr);
  opt.trace = std::strcmp(trace, "1") == 0;
  if (const char* t0 = pb::ArgValue(argc, argv, "--t0-ns")) opt.t0_ns = std::strtoll(t0, nullptr, 10);
  if (const char* dir = pb::ArgValue(argc, argv, "--out-dir")) opt.out_dir = dir;
#ifndef PB_TRACED
  if (opt.trace) return pb::Usage("--trace 1 needs the perfbench_traced binary");
#endif

  pb::Report rep;
  if (opt.workload == "tenant_cluster") {
    rep = pb::RunTenantCluster(opt);
  } else if (opt.workload == "kv_pressure") {
    rep = pb::RunKvPressure(opt);
  } else if (opt.workload == "attn_kernels") {
    rep = pb::RunAttnKernels(opt);
  } else {
    return pb::Usage("unknown workload");
  }
  return pb::Emit(rep, opt.trace);
}
