// Output checks of the repo benchmark. Every expectation is computed from
// the generated inputs or from the model/device specs, never from a stored
// copy of an earlier output. Each check takes plain data so the self-test
// (selftest.cc) can hand it a corrupted result and confirm it reports it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.h"
#include "serving/engine.h"

namespace pb {

/// Llama-3.1-8B on one H100 with the FlashInfer backend: every serving
/// workload's replica.
flashinfer::serving::EngineConfig Llama8bH100();

/// The `kv_pressure` replica: Llama8bH100 with a 24,576-token KV budget,
/// kAuto preemption with overlapped swaps, an int8+lz4 host codec, and trace
/// and telemetry on.
flashinfer::serving::EngineConfig KvPressureConfig();

/// What a serving run must show, from its inputs and the model/device specs.
struct ServingExpect {
  int64_t requests = 0;
  int64_t sum_input = 0;
  int64_t sum_output = 0;
  /// One inter-token gap per output token after the first: sum(output - 1).
  int64_t sum_decode = 0;
  /// Weight bytes / peak HBM bandwidth: the least time any step can take.
  double weight_floor_ms = 0.0;
  /// 2 * dense parameters / peak FLOP/s: the least GEMM time per token.
  double gemm_floor_ms_per_token = 0.0;
};

ServingExpect ExpectFor(const std::vector<flashinfer::serving::Request>& workload,
                        const flashinfer::serving::EngineConfig& cfg);

/// What a serving run reported, merged over replicas.
struct ServingOutcome {
  int64_t ttft_samples = 0;
  int64_t output_tokens = 0;
  int64_t itl_samples = 0;
  int64_t prefill_tokens = 0;
  int64_t cached_prefix_tokens = 0;
  int64_t recompute_tokens = 0;
  int64_t rejected = 0;
  int64_t steps = 0;
  double busy_ms = 0.0;
  /// Requests each replica was routed (empty for a single engine).
  std::vector<int64_t> replica_requests;
};

ServingOutcome OutcomeOf(const flashinfer::serving::ServingMetrics& m,
                         std::vector<int64_t> replica_requests);

/// Conservation (every request completes, tokens and gaps add up, prompt
/// tokens are either computed or cached, routing loses nobody) and roofline
/// floors (busy time covers weight streaming per step and GEMM FLOPs).
void CheckServing(const ServingExpect& want, const ServingOutcome& got, Checks* checks);

/// End state of a preempting engine after it drained.
struct PressureOutcome {
  int64_t device_kv_tokens = 0;
  int64_t host_kv_tokens = 0;
  int64_t preemptions = 0;
  int64_t swap_restores = 0;
  int64_t recompute_restores = 0;
  double swap_hidden_ms = 0.0;
  double swap_stall_ms = 0.0;
  double total_swap_ms = 0.0;
  double stored_bytes = 0.0;
  double logical_bytes = 0.0;
};

PressureOutcome PressureOf(const flashinfer::serving::ServingEngine& engine);

/// KV drains on both tiers, swap time is either hidden or stalled, the codec
/// never stores more than it was given, and every preemption is restored
/// exactly once.
void CheckPressure(const PressureOutcome& got, Checks* checks);

/// Simulated results of one run: tracing, and replaying the same inputs,
/// must leave every field unchanged.
struct SimDigest {
  double makespan_s = 0.0;
  int64_t output_tokens = 0;
  int64_t steps = 0;
  int64_t cached_prefix_tokens = 0;
  int64_t preemptions = 0;
  double attention_ms = 0.0;
  double gemm_ms = 0.0;
  double total_swap_ms = 0.0;
  std::vector<double> ttft_ms;
  std::vector<double> itl_ms;

  bool operator==(const SimDigest&) const = default;
};

SimDigest DigestOf(const flashinfer::serving::ServingMetrics& m);

void CheckSameSim(const SimDigest& a, const SimDigest& b, const std::string& what,
                  Checks* checks);

/// Double-precision softmax attention of one query row and head against the
/// first `num_keys` keys of a sequence. K and V are given as int8 codes,
/// [token][kv_head][dim], each worth code * `code_scale`.
struct NaiveRow {
  std::vector<double> out;
  double lse = 0.0;
};

NaiveRow NaiveAttentionRow(const float* q_head, const int8_t* k_codes, const int8_t* v_codes,
                           double code_scale, int64_t num_keys, int kv_head, int num_kv_heads,
                           int head_dim, double sm_scale);

/// Kernel output and LSE of one (row, head) against the reference, within
/// kAttnTolerance * (1 + |reference|).
void CheckAttnRow(const float* out, float lse, const NaiveRow& ref, const std::string& what,
                  Checks* checks);

/// The KV cache stores f16. Inputs are drawn on the f16 grid, so the cache
/// holds them exactly and only the kernel's fp32 accumulation and online
/// softmax rescaling remain; the tolerance is one f16 ulp at 1/32 (2^-15),
/// over 100x the worst error seen at 2k-token contexts.
constexpr double kAttnTolerance = 1.0 / 32768.0;

}  // namespace pb
