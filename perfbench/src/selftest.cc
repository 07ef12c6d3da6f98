// Shows that each output check can fail: every check first sees a correct
// result from a small real run, then corrupted copies of it (a dropped
// request, a missing token, a perturbed output element, ...), and must pass
// the first and flag every corruption. The program itself is untouched.
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "cluster/cluster.h"
#include "kvcache/paged.h"
#include "kvcache/ragged.h"
#include "runtime/batch_handle.h"
#include "serving/engine.h"
#include "serving/workload.h"
#include "sparse/bsr.h"
#include "util/rng.h"

namespace pb {
namespace {

using namespace flashinfer;
using namespace flashinfer::serving;

struct Tally {
  int mistakes = 0;

  /// `run` applies one check to one (possibly corrupted) result.
  void Case(const std::string& name, bool corrupted, const std::function<void(Checks*)>& run) {
    Checks c;
    run(&c);
    const bool flagged = !c.Ok();
    const bool right = flagged == corrupted;
    if (!right) ++mistakes;
    std::printf("%-4s %-48s %s\n", right ? "ok" : "BAD", name.c_str(),
                flagged ? ("flagged: " + c.failed.front()).c_str() : "passed");
  }
};

void ServingCases(Tally* t) {
  Rng rng(7);
  TenantPoolConfig pool;
  pool.num_tenants = 64;
  const auto reqs = MultiTenantWorkload(rng, 240, 80.0, pool);
  cluster::ClusterConfig cfg;
  cfg.engine = Llama8bH100();
  cfg.num_replicas = 4;
  cfg.policy = cluster::RouterPolicy::kPrefixAffinity;
  const cluster::ClusterMetrics m = cluster::ClusterEngine(cfg).Run(reqs);
  const ServingExpect want = ExpectFor(reqs, cfg.engine);
  const ServingOutcome good = OutcomeOf(m.aggregate, m.replica_requests);

  auto serving_case = [&](const std::string& name, bool corrupted,
                          const std::function<void(ServingOutcome&)>& corrupt) {
    ServingOutcome o = good;
    corrupt(o);
    t->Case(name, corrupted, [&](Checks* c) { CheckServing(want, o, c); });
  };
  serving_case("serving: correct cluster run", false, [](ServingOutcome&) {});
  serving_case("serving: dropped request", true, [](ServingOutcome& o) { --o.ttft_samples; });
  serving_case("serving: rejected request", true, [](ServingOutcome& o) { ++o.rejected; });
  serving_case("serving: missing output token", true, [](ServingOutcome& o) { --o.output_tokens; });
  serving_case("serving: missing inter-token gap", true, [](ServingOutcome& o) { --o.itl_samples; });
  serving_case("serving: lost prompt token", true, [](ServingOutcome& o) { --o.prefill_tokens; });
  serving_case("serving: request lost in routing", true,
               [](ServingOutcome& o) { --o.replica_requests[0]; });
  serving_case("serving: busy below weight-streaming floor", true, [&want](ServingOutcome& o) {
    o.busy_ms = 0.99 * static_cast<double>(o.steps) * want.weight_floor_ms;
  });
  serving_case("serving: busy below GEMM FLOP floor", true, [&want](ServingOutcome& o) {
    o.steps = 0;
    o.busy_ms = 0.99 * static_cast<double>(o.prefill_tokens + want.sum_decode) *
                want.gemm_floor_ms_per_token;
  });

  const SimDigest a = DigestOf(m.aggregate);
  SimDigest b = a;
  t->Case("sim digest: identical replay", false, [&](Checks* c) { CheckSameSim(a, b, "replay", c); });
  b.ttft_ms[b.ttft_ms.size() / 2] += 1e-9;
  t->Case("sim digest: one TTFT sample moved", true, [&](Checks* c) { CheckSameSim(a, b, "replay", c); });
}

void PressureCases(Tally* t) {
  Rng rng(11);
  auto reqs = UniformWorkload(rng, 600, 2.5, 1024, 4096, 256);
  AssignPriorities(rng, reqs, {0.8, 0.2});
  ServingEngine engine(KvPressureConfig());
  engine.Run(reqs);
  const PressureOutcome good = PressureOf(engine);

  auto pressure_case = [&](const std::string& name, bool corrupted,
                           const std::function<void(PressureOutcome&)>& corrupt) {
    PressureOutcome o = good;
    corrupt(o);
    t->Case(name, corrupted, [&](Checks* c) { CheckPressure(o, c); });
  };
  pressure_case("pressure: correct preempting run", false, [](PressureOutcome&) {});
  pressure_case("pressure: device KV not drained", true, [](PressureOutcome& o) { o.device_kv_tokens += 16; });
  pressure_case("pressure: host KV not drained", true, [](PressureOutcome& o) { o.host_kv_tokens += 16; });
  pressure_case("pressure: swap time unaccounted", true, [](PressureOutcome& o) { o.swap_hidden_ms += 0.5; });
  pressure_case("pressure: codec stores more than logical", true,
                [](PressureOutcome& o) { o.stored_bytes = o.logical_bytes * 1.01 + 1.0; });
  pressure_case("pressure: preemption never restored", true, [](PressureOutcome& o) { ++o.preemptions; });
  pressure_case("pressure: no preemption at all", true, [](PressureOutcome& o) {
    o.preemptions = o.swap_restores = o.recompute_restores = 0;
  });
}

void AttentionCases(Tally* t) {
  constexpr int kHeads = 32, kKvHeads = 8, kDim = 128, kPage = 16;
  const std::vector<int64_t> kv_lens = {300, 77}, qo_lens = {1, 5};
  PagedKVCache cache(DType::kF16, kKvHeads, kDim, kPage, 256);
  std::vector<std::vector<int8_t>> ks, vs;  // Codes: value = code / 64.
  std::vector<sparse::RequestKv> req_kv;
  std::vector<int64_t> fused;
  Rng rng(3);
  for (size_t r = 0; r < kv_lens.size(); ++r) {
    std::vector<int8_t> kc(static_cast<size_t>(kv_lens[r]) * kKvHeads * kDim), vc(kc.size());
    std::vector<float> k(kc.size()), v(kc.size());
    for (size_t i = 0; i < kc.size(); ++i) {
      kc[i] = static_cast<int8_t>(rng.UniformInt(-64, 63));
      vc[i] = static_cast<int8_t>(rng.UniformInt(-64, 63));
      k[i] = static_cast<float>(kc[i]) / 64.0f;
      v[i] = static_cast<float>(vc[i]) / 64.0f;
    }
    const int seq = cache.CreateSequence();
    cache.AppendTokens(seq, k.data(), v.data(), kv_lens[r]);
    ks.push_back(std::move(kc));
    vs.push_back(std::move(vc));
    req_kv.push_back(cache.ExportKv(seq));
    fused.push_back(qo_lens[r] * (kHeads / kKvHeads));
  }
  const auto qo_indptr = BuildIndptr(qo_lens);
  auto q = RaggedTensor::Zeros(qo_indptr, int64_t{kHeads} * kDim);
  for (auto& x : q.data) x = static_cast<float>(rng.UniformInt(-64, 63)) / 64.0f;
  auto o = RaggedTensor::Zeros(qo_indptr, q.inner);
  std::vector<float> lse(static_cast<size_t>(q.NumRows()) * kHeads);  // Run writes, never sizes.
  Workspace ws(Workspace::EstimateBytes(528, 128, kDim));
  BatchAttentionHandle::TaskInfo info;
  info.num_qo_heads = kHeads;
  info.num_kv_heads = kKvHeads;
  info.head_dim = kDim;
  BatchAttentionHandle handle(gpusim::H100Sxm80GB(), info, &ws);
  handle.MutableVariantParams().sm_scale = 1.0f / std::sqrt(static_cast<float>(kDim));
  handle.MutableVariantParams().causal = true;
  const auto bsr = sparse::BuildBatchBsr(BuildIndptr(fused), req_kv, kPage, handle.config().tile_q);
  handle.Plan(&bsr, qo_indptr, kv_lens);
  handle.Run(q, cache, &o, &lse);

  // Last row of request 1 (position kv_len - 1), head 5.
  const int64_t row = qo_indptr[2] - 1;
  const int head = 5;
  const double sm_scale = 1.0 / std::sqrt(static_cast<double>(kDim));
  const NaiveRow ref = NaiveAttentionRow(q.Row(row).data() + head * kDim, ks[1].data(),
                                         vs[1].data(), 1.0 / 64.0, kv_lens[1],
                                         head / (kHeads / kKvHeads), kKvHeads, kDim, sm_scale);
  std::vector<float> out(o.Row(row).begin() + head * kDim, o.Row(row).begin() + (head + 1) * kDim);
  const float l = lse[static_cast<size_t>(row * kHeads + head)];
  t->Case("attention: kernel row vs naive reference", false,
          [&](Checks* c) { CheckAttnRow(out.data(), l, ref, "row", c); });
  std::vector<float> bad = out;
  bad[17] += 0.001f;
  t->Case("attention: perturbed output element", true,
          [&](Checks* c) { CheckAttnRow(bad.data(), l, ref, "row", c); });
  t->Case("attention: perturbed LSE", true,
          [&](Checks* c) { CheckAttnRow(out.data(), l + 0.001f, ref, "row", c); });
  // A mask error: the row attends to one key too few.
  const NaiveRow short_ref = NaiveAttentionRow(q.Row(row).data() + head * kDim, ks[1].data(),
                                               vs[1].data(), 1.0 / 64.0, kv_lens[1] - 1,
                                               head / (kHeads / kKvHeads), kKvHeads, kDim, sm_scale);
  t->Case("attention: causal mask off by one", true,
          [&](Checks* c) { CheckAttnRow(out.data(), l, short_ref, "row", c); });
}

}  // namespace

int RunSelfTest() {
  Tally t;
  ServingCases(&t);
  PressureCases(&t);
  AttentionCases(&t);
  std::printf("selftest: %d mistake(s)\n", t.mistakes);
  return t.mistakes;
}

}  // namespace pb
