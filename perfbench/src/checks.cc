#include "checks.h"

#include <cmath>
#include <numeric>

namespace pb {

using flashinfer::serving::EngineConfig;
using flashinfer::serving::Request;
using flashinfer::serving::ServingEngine;
using flashinfer::serving::ServingMetrics;

ServingExpect ExpectFor(const std::vector<Request>& workload, const EngineConfig& cfg) {
  ServingExpect e;
  e.requests = static_cast<int64_t>(workload.size());
  for (const Request& r : workload) {
    e.sum_input += r.input_len;
    e.sum_output += r.output_len * r.parallel_n;
    e.sum_decode += (r.output_len - 1) * r.parallel_n;
  }
  const double weight_bytes = cfg.model.WeightBytesPerGpu();
  e.weight_floor_ms = weight_bytes / (cfg.device.hbm_gbps * 1e9) * 1e3;
  e.gemm_floor_ms_per_token = 2.0 * cfg.model.DenseParams() / cfg.model.tensor_parallel /
                              (cfg.device.fp16_tflops * 1e12) * 1e3;
  return e;
}

ServingOutcome OutcomeOf(const ServingMetrics& m, std::vector<int64_t> replica_requests) {
  ServingOutcome o;
  o.ttft_samples = static_cast<int64_t>(m.ttft_ms.size());
  o.output_tokens = m.total_output_tokens;
  o.itl_samples = m.ItlCount();
  o.prefill_tokens = m.total_prefill_tokens;
  o.cached_prefix_tokens = m.cached_prefix_tokens;
  o.recompute_tokens = m.recompute_tokens;
  o.rejected = m.rejected_requests;
  o.steps = m.num_steps;
  o.busy_ms = m.BusyMs();
  o.replica_requests = std::move(replica_requests);
  return o;
}

void CheckServing(const ServingExpect& want, const ServingOutcome& got, Checks* checks) {
  checks->Expect(got.ttft_samples == want.requests && got.rejected == 0,
                 "every request completes (" + std::to_string(got.ttft_samples) + " of " +
                     std::to_string(want.requests) + ", " + std::to_string(got.rejected) +
                     " rejected)");
  checks->Expect(got.output_tokens == want.sum_output,
                 "output tokens " + std::to_string(got.output_tokens) + " == sum(output_len) " +
                     std::to_string(want.sum_output));
  checks->Expect(got.itl_samples == want.sum_decode,
                 "ITL samples " + std::to_string(got.itl_samples) + " == sum(output_len - 1) " +
                     std::to_string(want.sum_decode));
  checks->Expect(got.prefill_tokens + got.cached_prefix_tokens == want.sum_input,
                 "prefill " + std::to_string(got.prefill_tokens) + " + cached " +
                     std::to_string(got.cached_prefix_tokens) + " == sum(input_len) " +
                     std::to_string(want.sum_input));
  if (!got.replica_requests.empty()) {
    const int64_t routed = std::accumulate(got.replica_requests.begin(),
                                           got.replica_requests.end(), int64_t{0});
    checks->Expect(routed == want.requests, "per-replica requests sum " +
                                                std::to_string(routed) + " == " +
                                                std::to_string(want.requests));
  }
  // Floors, with one part in 1e9 of slack for summation order.
  const double weight_floor = static_cast<double>(got.steps) * want.weight_floor_ms;
  checks->Expect(got.busy_ms >= weight_floor * (1.0 - 1e-9),
                 "busy " + std::to_string(got.busy_ms) + " ms >= weight-streaming floor " +
                     std::to_string(weight_floor) + " ms");
  const double tokens = static_cast<double>(got.prefill_tokens + want.sum_decode +
                                            got.recompute_tokens);
  const double flop_floor = tokens * want.gemm_floor_ms_per_token;
  checks->Expect(got.busy_ms >= flop_floor * (1.0 - 1e-9),
                 "busy " + std::to_string(got.busy_ms) + " ms >= GEMM FLOP floor " +
                     std::to_string(flop_floor) + " ms");
}

PressureOutcome PressureOf(const ServingEngine& engine) {
  const ServingMetrics& m = engine.Metrics();
  PressureOutcome p;
  p.device_kv_tokens = engine.KvTokensInUse();
  p.host_kv_tokens = engine.HostKvTokensInUse();
  p.preemptions = m.num_preemptions;
  p.swap_restores = m.num_swap_restores;
  p.recompute_restores = m.num_recompute_restores;
  p.swap_hidden_ms = m.swap_hidden_ms;
  p.swap_stall_ms = m.swap_stall_ms;
  p.total_swap_ms = m.total_swap_ms;
  p.stored_bytes = m.evicted_stored_bytes;
  p.logical_bytes = m.evicted_logical_bytes;
  return p;
}

void CheckPressure(const PressureOutcome& got, Checks* checks) {
  checks->Expect(got.device_kv_tokens == 0 && got.host_kv_tokens == 0,
                 "KV drains to zero (device " + std::to_string(got.device_kv_tokens) +
                     ", host " + std::to_string(got.host_kv_tokens) + " tokens left)");
  checks->Expect(std::fabs(got.swap_hidden_ms + got.swap_stall_ms - got.total_swap_ms) <=
                     1e-9 * std::max(1.0, got.total_swap_ms),
                 "swap hidden " + std::to_string(got.swap_hidden_ms) + " + stalled " +
                     std::to_string(got.swap_stall_ms) + " == total " +
                     std::to_string(got.total_swap_ms) + " ms");
  checks->Expect(got.stored_bytes <= got.logical_bytes,
                 "host stored bytes " + std::to_string(got.stored_bytes) + " <= logical " +
                     std::to_string(got.logical_bytes));
  checks->Expect(got.preemptions == got.swap_restores + got.recompute_restores,
                 "preemptions " + std::to_string(got.preemptions) + " == restores " +
                     std::to_string(got.swap_restores + got.recompute_restores));
  // The workload exists to exercise this layer.
  checks->Expect(got.preemptions > 0, "the workload preempts at least once");
}

SimDigest DigestOf(const ServingMetrics& m) {
  SimDigest d;
  d.makespan_s = m.makespan_s;
  d.output_tokens = m.total_output_tokens;
  d.steps = m.num_steps;
  d.cached_prefix_tokens = m.cached_prefix_tokens;
  d.preemptions = m.num_preemptions;
  d.attention_ms = m.total_attention_ms;
  d.gemm_ms = m.total_gemm_ms;
  d.total_swap_ms = m.total_swap_ms;
  d.ttft_ms = m.ttft_ms;
  d.itl_ms = m.itl_ms;
  return d;
}

void CheckSameSim(const SimDigest& a, const SimDigest& b, const std::string& what,
                  Checks* checks) {
  checks->Expect(a == b, what + ": simulated metrics identical");
}

NaiveRow NaiveAttentionRow(const float* q_head, const int8_t* k_codes, const int8_t* v_codes,
                           double code_scale, int64_t num_keys, int kv_head, int num_kv_heads,
                           int head_dim, double sm_scale) {
  const size_t stride = static_cast<size_t>(num_kv_heads) * static_cast<size_t>(head_dim);
  std::vector<double> s(static_cast<size_t>(num_keys));
  double m = -INFINITY;
  for (int64_t j = 0; j < num_keys; ++j) {
    const int8_t* kj = k_codes + static_cast<size_t>(j) * stride +
                       static_cast<size_t>(kv_head) * static_cast<size_t>(head_dim);
    double dot = 0.0;
    for (int d = 0; d < head_dim; ++d) dot += static_cast<double>(q_head[d]) * kj[d];
    s[static_cast<size_t>(j)] = dot * code_scale * sm_scale;
    m = std::max(m, s[static_cast<size_t>(j)]);
  }
  NaiveRow row;
  row.out.assign(static_cast<size_t>(head_dim), 0.0);
  double den = 0.0;
  for (int64_t j = 0; j < num_keys; ++j) {
    const double w = std::exp(s[static_cast<size_t>(j)] - m);
    den += w;
    const int8_t* vj = v_codes + static_cast<size_t>(j) * stride +
                       static_cast<size_t>(kv_head) * static_cast<size_t>(head_dim);
    for (int d = 0; d < head_dim; ++d) row.out[static_cast<size_t>(d)] += w * vj[d];
  }
  for (double& x : row.out) x *= code_scale / den;
  row.lse = m + std::log(den);
  return row;
}

void CheckAttnRow(const float* out, float lse, const NaiveRow& ref, const std::string& what,
                  Checks* checks) {
  double worst = 0.0;
  for (size_t d = 0; d < ref.out.size(); ++d) {
    worst = std::max(worst, std::fabs(out[d] - ref.out[d]) / (1.0 + std::fabs(ref.out[d])));
  }
  worst = std::max(worst, std::fabs(lse - ref.lse) / (1.0 + std::fabs(ref.lse)));
  checks->Expect(worst <= kAttnTolerance,
                 what + ": output/LSE within tolerance (worst " + std::to_string(worst) + ")");
}

}  // namespace pb
