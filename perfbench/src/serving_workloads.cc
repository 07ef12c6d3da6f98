// The two serving workloads: `tenant_cluster` (router, radix mirrors and
// pricing of large decode batches on a 4-replica fleet) and `kv_pressure`
// (one replica under a tight KV budget: preemption, the codec host tier and
// obs emission). A round replays the whole workload; an untraced run repeats
// rounds for the requested seconds and reports medians, a traced run plays
// one untraced and one traced round of the same inputs (on kv_pressure the
// untraced round has an obs-off twin).
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "cluster/cluster.h"
#include "serving/engine.h"
#include "serving/workload.h"
#include "spans.h"
#include "util/rng.h"

namespace pb {
namespace {

using flashinfer::Rng;
using namespace flashinfer::serving;
namespace cl = flashinfer::cluster;

// --- tenant_cluster --------------------------------------------------------
// 4 Llama-3.1-8B/H100 replicas behind PrefixAffinity. 1024 tenants with
// Zipf(1.0) popularity and 256-1024-token system prompts, whose union is
// several times one replica's prefix cache (half its KV pool, as in
// bench_cluster_routing), so the mirrors fill and then evict for most of the
// run. Poisson arrivals at a fixed rate below the fleet's capacity.
constexpr int kClusterReplicas = 4;
constexpr int kClusterRequests = 10000;
constexpr double kClusterRate = 200.0;  // req/s over the fleet, ~65% of capacity.
constexpr int kClusterStepThreads = 2;

// --- kv_pressure -------------------------------------------------------------
// One replica with a 24k-token KV budget, 1024-4096-token prompts, 64
// output tokens, 20% high-priority traffic; preemption restores by kAuto
// with overlapped swaps and an int8+lz4 host codec; trace and telemetry on.
// The TTFT p99 is set by a few bursts of long prompts, so its seed-to-seed
// spread falls slowly with run length: 30,000 requests with 64-token outputs
// read about 0.06, in the host time of 12,000 with 256-token outputs, which
// read 0.12 (perfbench/README.md).
constexpr int kPressureRequests = 30000;
constexpr double kPressureRate = 5.0;  // req/s, ~60% of capacity.
constexpr int64_t kPressureOutputLen = 64;
constexpr int64_t kPressureBudgetTokens = 24576;
constexpr double kObsSliceS = 1.0;  // Simulated seconds per turn of the obs pair.

// Seed of the reference draw whose required attention FLOPs are the fixed
// numerator of `kernel_gflops` on the serving workloads. The seeded draw's
// own FLOPs vary by about +-15% between seeds (tenant_cluster's Zipf head),
// which would read as host speed; a fixed amount of work per host second
// moves only with the host time of a round.
constexpr uint64_t kReferenceSeed = 0;

/// Attention FLOPs the workload needs with no prefix cache: each prompt
/// causally over itself, then each generated token over everything before it.
double RequiredAttnFlops(const std::vector<Request>& workload, const EngineConfig& cfg) {
  double flops = 0.0;
  for (const Request& r : workload) {
    flops += CausalAttnFlops(0, r.input_len, cfg.model.num_qo_heads, cfg.model.head_dim);
    flops += r.parallel_n * CausalAttnFlops(r.input_len, r.output_len - 1,
                                            cfg.model.num_qo_heads, cfg.model.head_dim);
  }
  return flops;
}

/// One replay of a serving workload.
struct ServingRound {
  double wall_s = 0.0;
  ServingMetrics m;  // Merged over replicas.
  std::vector<int64_t> replica_requests;
  double prefix_hit_rate = 0.0;
  double load_imbalance = 0.0;
  std::optional<PressureOutcome> pressure;
};

using RoundFn = std::function<ServingRound()>;

/// The same inputs with obs on and with obs off.
struct ObsPair {
  ServingRound on;
  ServingRound off;
};

struct ServingWorkload {
  std::vector<Request> requests;
  ServingExpect expect;
  /// Required attention FLOPs of the workload's reference draw. Called
  /// after the timed phase, so that set-up time stays the workload's own.
  std::function<double()> reference_flops;
  RoundFn round;
  /// When obs is on: the workload with obs on and with trace and telemetry
  /// off, played side by side (obs cost).
  std::function<ObsPair()> obs_pair;
};

void CheckRound(const ServingWorkload& w, const ServingRound& r, Checks* checks) {
  CheckServing(w.expect, OutcomeOf(r.m, r.replica_requests), checks);
  if (r.pressure) CheckPressure(*r.pressure, checks);
}

int64_t Completed(const ServingRound& r) { return static_cast<int64_t>(r.m.ttft_ms.size()); }

void AddEndToEnd(const ServingWorkload& w, const std::vector<ServingRound>& rounds,
                 double setup_s, Report* rep) {
  std::vector<double> walls, us_per_step;
  for (const auto& r : rounds) {
    walls.push_back(r.wall_s);
    us_per_step.push_back(r.wall_s * 1e6 / static_cast<double>(std::max<int64_t>(1, r.m.num_steps)));
  }
  const ServingMetrics& m = rounds.front().m;
  const double wall = MedianOf(walls);
  rep->Add("setup_s", setup_s);
  rep->Add("host_wall_s", wall);
  rep->Add("host_us_per_step", MedianOf(us_per_step));
  rep->Add("host_peak_rss_mib", PeakRssMib());
  rep->Add("sim_tok_s", m.ThroughputTokS());
  rep->Add("sim_ttft_p50_ms", m.TtftPercentileMs(0.5));
  rep->Add("sim_ttft_p99_ms", m.TtftPercentileMs(0.99));
  rep->Add("sim_itl_p50_ms", m.ItlPercentileMs(0.5));
  rep->Add("sim_itl_p99_ms", m.ItlPercentileMs(0.99));
  rep->Add("kernel_gflops", w.reference_flops() / wall / 1e9);
  rep->notes.push_back("rounds " + std::to_string(rounds.size()) + ", TTFT samples " +
                       std::to_string(m.ttft_ms.size()) + ", ITL samples " +
                       std::to_string(m.ItlCount()) + ", engine steps " +
                       std::to_string(m.num_steps));
}

void AddServingLayers(const ServingWorkload& w, const ServingRound& traced,
                      const ServingRound& untraced, std::optional<double> obs_off_wall_s,
                      const Summary& s, Report* rep) {
  const ServingMetrics& m = traced.m;
  const double steps = static_cast<double>(std::max<int64_t>(1, m.num_steps));
  auto L = [&s](Layer l) -> const LayerTotals& { return s[static_cast<size_t>(l)]; };
  double thread_us = 0.0;
  for (const LayerTotals& t : s) thread_us += t.self_us;
  auto per_step = [steps](double us) { return us / steps; };
  auto share = [thread_us](double us) { return thread_us > 0.0 ? us / thread_us : 0.0; };
  auto per_call = [](const LayerTotals& t) {
    return t.calls > 0 ? static_cast<double>(t.count) / static_cast<double>(t.calls) : 0.0;
  };

  const LayerTotals& evict = L(Layer::kRadixEvict);
  rep->Add("radix.match_us", per_step(L(Layer::kRadixMatch).self_us + L(Layer::kRadixPeek).self_us));
  rep->Add("radix.insert_us", per_step(L(Layer::kRadixInsert).self_us));
  rep->Add("radix.evict_us", per_step(evict.self_us));
  rep->Add("radix.evict_calls", static_cast<double>(evict.calls));
  rep->Add("radix.evict_pages", static_cast<double>(evict.count));
  rep->Add("radix.evict_share", share(evict.self_us));
  // MatchPrefix runs once per routed request, before that request's
  // insert and eviction: the count before the first eviction is the index
  // of the request that first overflowed a mirror.
  rep->Add("radix.first_evict_request",
           evict.calls > 0 ? static_cast<double>(CountStartedBefore(Layer::kRadixMatch,
                                                                     evict.first_start_ns))
                           : 0.0);
  rep->Add("cluster.prefix_hit_rate", traced.prefix_hit_rate);
  rep->Add("cluster.load_imbalance", traced.load_imbalance);

  rep->Add("engine.step_self_us", per_step(L(Layer::kStepTo).self_us + L(Layer::kDrain).self_us));
  rep->Add("engine.steps", static_cast<double>(m.num_steps));

  const LayerTotals& attn = L(Layer::kSimAttn);
  rep->Add("pricing.attn_self_us", per_step(attn.self_us));
  rep->Add("pricing.calls", static_cast<double>(attn.calls));
  rep->Add("pricing.share", share(attn.total_us));
  rep->Add("bsr.build_us", per_step(L(Layer::kBsr).self_us));
  rep->Add("bsr.blocks_per_call", per_call(L(Layer::kBsr)));
  rep->Add("scheduler.plan_us", per_step(L(Layer::kPlan).self_us));
  rep->Add("scheduler.work_items_per_plan", per_call(L(Layer::kPlan)));
  rep->Add("gpusim.makespan_us", per_step(L(Layer::kMakespan).self_us));

  rep->Add("paged.evict_us", per_step(L(Layer::kPagedEvict).self_us));
  rep->Add("paged.restore_us", per_step(L(Layer::kPagedRestore).self_us));
  rep->Add("paged.evicted_pages", static_cast<double>(L(Layer::kPagedEvict).count));
  rep->Add("paged.restored_pages", static_cast<double>(L(Layer::kPagedRestore).count));
  rep->Add("codec.encode_us", per_step(L(Layer::kEncode).self_us));
  rep->Add("codec.decode_us", per_step(L(Layer::kDecode).self_us));

  rep->Add("obs.us_per_step",
           obs_off_wall_s ? (untraced.wall_s - *obs_off_wall_s) * 1e6 /
                                static_cast<double>(std::max<int64_t>(1, untraced.m.num_steps))
                          : 0.0);
  rep->Add("threadpool.fanout_us", per_step(L(Layer::kParallelFor).self_us));

  rep->Add("sim.attn_ms_per_step", m.total_attention_ms / steps);
  rep->Add("sim.gemm_ms_per_step", m.total_gemm_ms / steps);
  rep->Add("sim.host_ms_per_step", m.total_host_ms / steps);
  rep->Add("sim.mixed_step_frac", m.MixedStepFrac());
  rep->Add("sim.cached_prefix_frac",
           static_cast<double>(m.cached_prefix_tokens) /
               static_cast<double>(std::max<int64_t>(1, w.expect.sum_input)));
  rep->Add("sim.preemptions", static_cast<double>(m.num_preemptions));
  rep->Add("sim.swap_restores", static_cast<double>(m.num_swap_restores));
  rep->Add("sim.recompute_tokens", static_cast<double>(m.recompute_tokens));
  rep->Add("sim.swap_stall_ms", m.swap_stall_ms);
  rep->Add("sim.swap_hidden_ms", m.swap_hidden_ms);
  rep->Add("sim.host_stored_ratio", m.HostStoredRatio());

}

Report RunServing(const Options& opt, ServingWorkload& w) {
  Report rep;
  const int64_t n = w.expect.requests;
  if (!opt.trace) {
    const double setup_s = SecondsSinceStart(opt);
    std::vector<ServingRound> rounds;
    const int64_t t_start = SteadyNs();
    do {
      rounds.push_back(w.round());
      const ServingRound& r = rounds.back();
      CheckRound(w, r, &rep.checks);
      if (rounds.size() > 1) {
        CheckSameSim(DigestOf(rounds.front().m), DigestOf(r.m), "replayed round", &rep.checks);
      }
      rep.attempted += n;
      rep.failed += n - Completed(r);
    } while (static_cast<double>(SteadyNs() - t_start) * 1e-9 < opt.seconds);
    AddEndToEnd(w, rounds, setup_s, &rep);
    return rep;
  }

  // Traced run: one untraced round (with its obs-off twin when obs is on),
  // then one traced round of the same inputs.
  ServingRound untraced;
  std::optional<double> obs_off_wall;
  if (w.obs_pair) {
    ObsPair pair = w.obs_pair();
    CheckRound(w, pair.off, &rep.checks);
    CheckSameSim(DigestOf(pair.on.m), DigestOf(pair.off.m), "obs on vs off", &rep.checks);
    rep.attempted += n;
    rep.failed += n - Completed(pair.off);
    obs_off_wall = pair.off.wall_s;
    untraced = std::move(pair.on);
  } else {
    untraced = w.round();
  }
  ClearSpans();
  SetTracing(true);
  ServingRound traced;
  {
    Span root(Layer::kRound);
    traced = w.round();
  }
  SetTracing(false);
  const Summary summary = Summarize();
  for (const ServingRound* r : {&std::as_const(untraced), &std::as_const(traced)}) {
    CheckRound(w, *r, &rep.checks);
    rep.attempted += n;
    rep.failed += n - Completed(*r);
  }
  CheckSameSim(DigestOf(untraced.m), DigestOf(traced.m), "traced vs untraced", &rep.checks);
  AddServingLayers(w, traced, untraced, obs_off_wall, summary, &rep);
  rep.Add("trace.overhead_frac", traced.wall_s / untraced.wall_s - 1.0);
  rep.Add("trace.spans", static_cast<double>(NumSpans()));
  PrintLayerTable(summary, traced.wall_s);
  if (!opt.out_dir.empty()) {
    WriteSpans(opt.out_dir + "/spans_" + opt.workload + ".tsv");
  }
  ClearSpans();
  return rep;
}

}  // namespace

Report RunTenantCluster(const Options& opt) {
  flashinfer::serving::TenantPoolConfig pool;
  pool.num_tenants = 1024;
  pool.zipf_s = 1.0;
  auto draw = [&pool](uint64_t seed) {
    Rng rng(seed);
    return MultiTenantWorkload(rng, kClusterRequests, kClusterRate, pool);
  };
  ServingWorkload w;
  w.requests = draw(opt.seed);

  cl::ClusterConfig cfg;
  cfg.engine = Llama8bH100();
  cfg.num_replicas = kClusterReplicas;
  cfg.policy = cl::RouterPolicy::kPrefixAffinity;
  cfg.step_threads = kClusterStepThreads;
  // Half the KV pool is prefix cache; live decode KV owns the rest.
  cfg.prefix_cache_pages = ServingEngine(cfg.engine).KvTokenBudget() / (2 * cfg.engine.page_size);
  w.expect = ExpectFor(w.requests, cfg.engine);
  w.reference_flops = [&draw, &cfg]() {
    return RequiredAttnFlops(draw(kReferenceSeed), cfg.engine);
  };

  auto engine = std::make_shared<cl::ClusterEngine>(cfg);
  w.round = [engine, &w]() {
    ServingRound r;
    const int64_t t0 = SteadyNs();
    cl::ClusterMetrics m = engine->Run(w.requests);
    r.wall_s = static_cast<double>(SteadyNs() - t0) * 1e-9;
    r.m = std::move(m.aggregate);
    r.replica_requests = m.replica_requests;
    r.prefix_hit_rate = m.prefix_hit_rate;
    r.load_imbalance = m.load_imbalance;
    return r;
  };
  return RunServing(opt, w);
}

EngineConfig Llama8bH100() {
  EngineConfig cfg;
  cfg.model = Llama31_8B();
  cfg.device = flashinfer::gpusim::H100Sxm80GB();
  cfg.backend = FlashInferBackend();
  return cfg;
}

EngineConfig KvPressureConfig() {
  EngineConfig cfg = Llama8bH100();
  cfg.preemption.enabled = true;
  cfg.preemption.restore = RestorePolicy::kAuto;
  cfg.preemption.overlap_swap = true;
  cfg.preemption.host_codec.quant = flashinfer::KvQuantFormat::kInt8;
  cfg.preemption.host_codec.compress = true;
  cfg.trace.enabled = true;
  cfg.telemetry.enabled = true;
  // HBM = weights + the KV budget at the engine's 90% KV share.
  const double kv_bytes = static_cast<double>(kPressureBudgetTokens) *
                          cfg.model.KvBytesPerToken(cfg.backend.kv_dtype) / 0.9;
  cfg.hbm_capacity_gb = (cfg.model.WeightBytesPerGpu() + kv_bytes) / 1e9;
  return cfg;
}

Report RunKvPressure(const Options& opt) {
  auto draw = [](uint64_t seed) {
    Rng rng(seed);
    std::vector<Request> reqs = UniformWorkload(rng, kPressureRequests, kPressureRate, 1024,
                                                4096, kPressureOutputLen);
    AssignPriorities(rng, reqs, {0.8, 0.2});
    return reqs;
  };
  ServingWorkload w;
  w.requests = draw(opt.seed);

  const EngineConfig cfg = KvPressureConfig();
  w.expect = ExpectFor(w.requests, cfg);
  w.reference_flops = [&draw, &cfg]() { return RequiredAttnFlops(draw(kReferenceSeed), cfg); };

  auto on = std::make_shared<ServingEngine>(cfg);
  w.round = [on, &w]() {
    ServingRound r;
    const int64_t t0 = SteadyNs();
    on->Reset();
    for (const Request& req : w.requests) on->Admit(req);
    on->Drain();
    r.wall_s = static_cast<double>(SteadyNs() - t0) * 1e-9;
    r.m = on->Metrics();
    r.pressure = PressureOf(*on);
    return r;
  };
  if (opt.trace) {
    EngineConfig off_cfg = cfg;
    off_cfg.trace.enabled = false;
    off_cfg.telemetry.enabled = false;
    auto off = std::make_shared<ServingEngine>(off_cfg);
    // Obs costs about 1 us of a 45 us step, less than the host's drift over
    // one round, so the two engines take turns one simulated slice at a time
    // and each keeps its own host time.
    w.obs_pair = [on, off, &w]() {
      ServingEngine* engines[2] = {on.get(), off.get()};
      int64_t ns[2] = {0, 0};
      for (int i = 0; i < 2; ++i) {
        const int64_t t0 = SteadyNs();
        engines[i]->Reset();
        for (const Request& req : w.requests) engines[i]->Admit(req);
        ns[i] += SteadyNs() - t0;
      }
      for (double t = kObsSliceS; !(on->Finished() && off->Finished()); t += kObsSliceS) {
        for (int i = 0; i < 2; ++i) {
          const int64_t t0 = SteadyNs();
          engines[i]->StepTo(t);
          ns[i] += SteadyNs() - t0;
        }
      }
      ObsPair p;
      ServingRound* rounds[2] = {&p.on, &p.off};
      for (int i = 0; i < 2; ++i) {
        rounds[i]->wall_s = static_cast<double>(ns[i]) * 1e-9;
        rounds[i]->m = engines[i]->Metrics();
        rounds[i]->pressure = PressureOf(*engines[i]);
      }
      return p;
    };
  }
  return RunServing(opt, w);
}

}  // namespace pb
