// `attn_kernels`: real CPU attention at Llama-3.1-8B head geometry (32 query
// heads, 8 KV heads, head dim 128) over a paged f16 KV cache.
//
// A continuous batch: resident requests with long contexts decode one token
// per step throughout the round, while short requests join, prefill in
// chunks mixed into the same launches, decode a few tokens and leave. Each
// step appends the step's K/V, rebuilds the batch BSR, then plans once and
// runs one launch per layer (the second layer's Plan is a plan-cache hit).
// The two layers share one KV pool; only their queries differ.
//
// Inputs are drawn on the f16 grid (multiples of 1/64 in [-1, 1)), so the
// cache holds them exactly; a sampled row of every request is checked each
// step against the double-precision naive attention in checks.cc.
//
// Simulated metrics here count the modelled attention launches only (no
// GEMM): a step lasts its launches' simulated time, a joiner's first token
// lands when its last prefill chunk's step ends.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "kvcache/paged.h"
#include "kvcache/ragged.h"
#include "runtime/batch_handle.h"
#include "serving/metrics.h"
#include "sparse/bsr.h"
#include "spans.h"

namespace pb {
namespace {

using namespace flashinfer;

constexpr int kQoHeads = 32;
constexpr int kKvHeads = 8;
constexpr int kHeadDim = 128;
constexpr int kGroup = kQoHeads / kKvHeads;
constexpr int kPageSize = 16;
constexpr int kLayers = 2;
constexpr int kTokenElems = kKvHeads * kHeadDim;  // K (or V) values per token.

// Round make-up.
constexpr int kResidents = 8;
constexpr int64_t kResidentCtxLo = 512;
constexpr int64_t kResidentCtxHi = 2048;
constexpr int kJoinSlots = 8;
constexpr int64_t kJoinPromptLo = 16;
constexpr int64_t kJoinPromptHi = 96;
constexpr int64_t kJoinOutputLo = 1;
constexpr int64_t kJoinOutputHi = 4;
constexpr int64_t kChunkTokens = 32;
constexpr int kStepsPerRound = 60;
// Residents' longest context plus a round of decode, and every joiner slot's
// longest prompt and output, in pages, with room to spare.
constexpr int64_t kMaxPages = 2048;

uint64_t SplitMix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

/// Deterministic value on the f16 grid: k/64 for k in [-64, 63]. Values in
/// [-1, 1) keep the softmax broad, so every key moves the output.
inline int8_t GridCode(uint64_t seed, uint64_t a, uint64_t b) {
  return static_cast<int8_t>(
      static_cast<int>(SplitMix(seed ^ SplitMix(a * 0x100000001B3ull + b)) & 0x7F) - 64);
}
constexpr double kCodeScale = 1.0 / 64.0;
inline float GridValue(int8_t code) { return static_cast<float>(code * kCodeScale); }

uint64_t UniformInt(uint64_t seed, uint64_t key, int64_t lo, int64_t hi) {
  return static_cast<uint64_t>(lo) + SplitMix(seed ^ SplitMix(key)) % static_cast<uint64_t>(hi - lo + 1);
}

struct Seq {
  int id = 0;            // Request id (drives its K/V values).
  int cache_seq = -1;
  int64_t prompt = 0;    // Tokens to prefill (joiners) or initial context (residents).
  int64_t prefilled = 0;
  int64_t output = 0;    // Tokens to emit (residents: unbounded within a round).
  int64_t emitted = 0;
  double ttft_ms = 0.0;  // Simulated, accumulated while prefilling.
  bool resident = false;
  /// K and V codes of every token in the cache, [token][kv_head][dim].
  std::vector<int8_t> k, v;

  int64_t Length() const { return static_cast<int64_t>(k.size()) / kTokenElems; }
};

/// The generated inputs: residents' contexts and the joiners' queue.
struct KernelWorkload {
  uint64_t seed = 0;
  std::vector<Seq> residents;
  std::vector<Seq> joiners;  // In join order.
};

void AppendCodes(uint64_t seed, Seq* s, int64_t tokens) {
  const int64_t base = s->Length();
  for (int64_t t = base; t < base + tokens; ++t) {
    for (int e = 0; e < kTokenElems; ++e) {
      s->k.push_back(GridCode(seed, static_cast<uint64_t>(s->id) << 32 | static_cast<uint64_t>(t),
                              static_cast<uint64_t>(e)));
      s->v.push_back(GridCode(seed, static_cast<uint64_t>(s->id) << 32 | static_cast<uint64_t>(t),
                              static_cast<uint64_t>(e + kTokenElems)));
    }
  }
}

KernelWorkload MakeWorkload(uint64_t seed) {
  KernelWorkload w;
  w.seed = seed;
  for (int i = 0; i < kResidents; ++i) {
    Seq s;
    s.id = i;
    s.resident = true;
    // Stratified: resident i draws from the i-th of kResidents equal slices
    // of [lo, hi], so the batch's total context barely moves with the seed.
    const int64_t slice = (kResidentCtxHi - kResidentCtxLo) / kResidents;
    const int64_t lo = kResidentCtxLo + i * slice;
    s.prompt = static_cast<int64_t>(UniformInt(seed, 1000 + i, lo, lo + slice - 1));
    w.residents.push_back(std::move(s));
  }
  // Enough joiners that the slots never run dry within a round. Lengths
  // follow seed-rotated low-discrepancy sequences (golden ratio, sqrt 2): every
  // seed gives other joiners, but the same mix of lengths over a round.
  const int joiners = kStepsPerRound * kJoinSlots;
  const double prompt_offset = static_cast<double>(SplitMix(seed ^ 2000) >> 11) * 0x1p-53;
  const double output_offset = static_cast<double>(SplitMix(seed ^ 3000) >> 11) * 0x1p-53;
  auto pick = [](double offset, double step, int i, int64_t lo, int64_t hi) {
    const double u = std::fmod(offset + step * i, 1.0);
    return lo + static_cast<int64_t>(u * static_cast<double>(hi - lo + 1));
  };
  for (int i = 0; i < joiners; ++i) {
    Seq s;
    s.id = kResidents + i;
    s.prompt = pick(prompt_offset, 0.6180339887498949, i, kJoinPromptLo, kJoinPromptHi);
    s.output = pick(output_offset, 0.4142135623730950, i, kJoinOutputLo, kJoinOutputHi);
    w.joiners.push_back(std::move(s));
  }
  return w;
}

/// Resident KV fill (part of set-up): the cache and reference codes.
void FillResidents(KernelWorkload* w, PagedKVCache* cache) {
  for (Seq& s : w->residents) {
    s.cache_seq = cache->CreateSequence();
    AppendCodes(w->seed, &s, s.prompt);
    std::vector<float> k(s.k.size()), v(s.v.size());
    for (size_t i = 0; i < k.size(); ++i) {
      k[i] = GridValue(s.k[i]);
      v[i] = GridValue(s.v[i]);
    }
    cache->AppendTokens(s.cache_seq, k.data(), v.data(), s.prompt);
  }
}

struct RoundResult {
  double wall_s = 0.0;  // Host seconds of the timed parts of every step.
  double run_s = 0.0;  // Host seconds inside BatchAttentionHandle::Run.
  double flops = 0.0;  // Causal-trimmed attention FLOPs of all launches.
  std::vector<double> step_host_us;
  double sim_us = 0.0;
  int64_t launches = 0;
  int64_t failed_launches = 0;
  int64_t tokens = 0;
  int64_t plan_cache_hits = 0;
  std::vector<double> ttft_ms, itl_ms;
};

class KernelBench {
 public:
  explicit KernelBench(uint64_t seed)
      : w_(MakeWorkload(seed)),
        cache_(DType::kF16, kKvHeads, kHeadDim, kPageSize, kMaxPages),
        workspace_(Workspace::EstimateBytes(/*num_ctas=*/132, /*tile_rows=*/128, kHeadDim)) {
    BatchAttentionHandle::TaskInfo info;
    info.num_qo_heads = kQoHeads;
    info.num_kv_heads = kKvHeads;
    info.head_dim = kHeadDim;
    info.kv_dtype = DType::kF16;
    // Average query rows per request of a mixed step (decode 1, chunks 32).
    info.avg_qlen_hint = 4.0;
    handle_ = std::make_unique<BatchAttentionHandle>(gpusim::H100Sxm80GB(), info, &workspace_);
    handle_->MutableVariantParams().sm_scale = 1.0f / std::sqrt(static_cast<float>(kHeadDim));
    handle_->MutableVariantParams().causal = true;
    FillResidents(&w_, &cache_);
  }

  /// One round from the set-up state back to it: kStepsPerRound steps.
  RoundResult Round(Checks* checks);

 private:
  KernelWorkload w_;
  PagedKVCache cache_;
  Workspace workspace_;
  std::unique_ptr<BatchAttentionHandle> handle_;
};

RoundResult KernelBench::Round(Checks* checks) {
  RoundResult res;
  std::vector<Seq*> batch;
  std::vector<Seq> active;  // Joiner slots.
  active.reserve(kJoinSlots);
  size_t next_joiner = 0;
  const int64_t hits0 = handle_->plan_cache_hits();

  for (int step = 0; step < kStepsPerRound; ++step) {
    while (static_cast<int>(active.size()) < kJoinSlots && next_joiner < w_.joiners.size()) {
      Seq s = w_.joiners[next_joiner++];
      s.cache_seq = cache_.CreateSequence();
      active.push_back(std::move(s));
    }
    batch.clear();
    for (Seq& s : w_.residents) batch.push_back(&s);
    for (Seq& s : active) batch.push_back(&s);

    // This step's query rows per request, and the K/V they append.
    std::vector<int64_t> qo_lens, kv_lens;
    std::vector<std::vector<float>> new_k(batch.size()), new_v(batch.size());
    for (size_t r = 0; r < batch.size(); ++r) {
      Seq& s = *batch[r];
      const bool prefilling = !s.resident && s.prefilled < s.prompt;
      const int64_t rows = prefilling ? std::min(kChunkTokens, s.prompt - s.prefilled) : 1;
      const int64_t before = s.Length();
      AppendCodes(w_.seed, &s, rows);
      new_k[r].resize(static_cast<size_t>(rows * kTokenElems));
      new_v[r].resize(new_k[r].size());
      for (size_t i = 0; i < new_k[r].size(); ++i) {
        new_k[r][i] = GridValue(s.k[static_cast<size_t>(before * kTokenElems) + i]);
        new_v[r][i] = GridValue(s.v[static_cast<size_t>(before * kTokenElems) + i]);
      }
      qo_lens.push_back(rows);
      kv_lens.push_back(before + rows);
    }
    const std::vector<int64_t> qo_indptr = BuildIndptr(qo_lens);
    std::vector<RaggedTensor> q, o;
    for (int l = 0; l < kLayers; ++l) {
      q.push_back(RaggedTensor::Zeros(qo_indptr, int64_t{kQoHeads} * kHeadDim));
      for (size_t i = 0; i < q.back().data.size(); ++i) {
        q.back().data[i] = GridValue(GridCode(w_.seed, (uint64_t{9} << 56) | (uint64_t(step) << 8) | uint64_t(l), i));
      }
      o.push_back(RaggedTensor::Zeros(qo_indptr, q.back().inner));
    }
    // Run writes LSE rows but never sizes the vector.
    std::vector<std::vector<float>> lse(
        kLayers, std::vector<float>(static_cast<size_t>(qo_indptr.back()) * kQoHeads));

    // --- timed: append, BSR, plan + launches ---------------------------------
    const int64_t t0 = SteadyNs();
    for (size_t r = 0; r < batch.size(); ++r) {
      cache_.AppendTokens(batch[r]->cache_seq, new_k[r].data(), new_v[r].data(), qo_lens[r]);
    }
    std::vector<sparse::RequestKv> req_kv;
    std::vector<int64_t> fused;
    for (size_t r = 0; r < batch.size(); ++r) {
      req_kv.push_back(cache_.ExportKv(batch[r]->cache_seq));
      fused.push_back(qo_lens[r] * kGroup);
    }
    const sparse::BsrMatrix bsr =
        sparse::BuildBatchBsr(BuildIndptr(fused), req_kv, kPageSize, handle_->config().tile_q);
    double step_sim_us = 0.0;
    for (int l = 0; l < kLayers; ++l) {
      handle_->Plan(&bsr, qo_indptr, kv_lens);
      const int64_t r0 = SteadyNs();
      const gpusim::SimReport rep = handle_->Run(q[static_cast<size_t>(l)], cache_,
                                                 &o[static_cast<size_t>(l)],
                                                 &lse[static_cast<size_t>(l)]);
      res.run_s += static_cast<double>(SteadyNs() - r0) * 1e-9;
      step_sim_us += rep.time_us;
      ++res.launches;
    }
    res.step_host_us.push_back(static_cast<double>(SteadyNs() - t0) * 1e-3);
    res.sim_us += step_sim_us;

    // --- untimed: checks and batch bookkeeping ---------------------------------
    for (size_t r = 0; r < batch.size(); ++r) {
      res.flops += kLayers * CausalAttnFlops(kv_lens[r] - qo_lens[r], qo_lens[r], kQoHeads, kHeadDim);
    }
    const double sm_scale = 1.0 / std::sqrt(static_cast<double>(kHeadDim));
    for (int l = 0; l < kLayers; ++l) {
      const size_t fails_before = checks->failed.size();
      for (size_t r = 0; r < batch.size(); ++r) {
        const Seq& s = *batch[r];
        // Sampled row: rotates through the step's rows; one query head per
        // KV head, rotating with the step and layer.
        const int64_t local = (step + static_cast<int64_t>(r)) % qo_lens[r];
        const int64_t row = qo_indptr[r] + local;
        const int64_t keys = kv_lens[r] - qo_lens[r] + local + 1;
        for (int kh = 0; kh < kKvHeads; ++kh) {
          const int head = kh * kGroup + (step + l + kh) % kGroup;
          const float* qh = q[static_cast<size_t>(l)].Row(row).data() + head * kHeadDim;
          const NaiveRow ref = NaiveAttentionRow(qh, s.k.data(), s.v.data(), kCodeScale, keys, kh,
                                                 kKvHeads, kHeadDim, sm_scale);
          CheckAttnRow(o[static_cast<size_t>(l)].Row(row).data() + head * kHeadDim,
                       lse[static_cast<size_t>(l)][static_cast<size_t>(row * kQoHeads + head)],
                       ref,
                       "step " + std::to_string(step) + " layer " + std::to_string(l) +
                           " request " + std::to_string(s.id) + " head " + std::to_string(head),
                       checks);
        }
      }
      if (checks->failed.size() > fails_before) ++res.failed_launches;
    }

    const double step_ms = step_sim_us * 1e-3;
    for (size_t r = 0; r < batch.size(); ++r) {
      Seq& s = *batch[r];
      if (!s.resident && s.prefilled < s.prompt) {
        s.prefilled += qo_lens[r];
        s.ttft_ms += step_ms;
        if (s.prefilled == s.prompt) {
          res.ttft_ms.push_back(s.ttft_ms);
          ++s.emitted;
          ++res.tokens;
        }
        continue;
      }
      res.itl_ms.push_back(step_ms);
      ++s.emitted;
      ++res.tokens;
    }
    for (size_t i = 0; i < active.size();) {
      if (active[i].emitted >= active[i].output) {
        cache_.DropSequence(active[i].cache_seq);
        active.erase(active.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        ++i;
      }
    }
  }
  for (double us : res.step_host_us) res.wall_s += us * 1e-6;
  res.plan_cache_hits = handle_->plan_cache_hits() - hits0;

  // Back to the set-up state: residents lose this round's tokens, joiners go.
  for (Seq& s : active) cache_.DropSequence(s.cache_seq);
  for (Seq& s : w_.residents) {
    cache_.TruncateSequence(s.cache_seq, s.prompt);
    s.k.resize(static_cast<size_t>(s.prompt * kTokenElems));
    s.v.resize(s.k.size());
    s.emitted = 0;
  }
  return res;
}

void AddEndToEnd(const std::vector<RoundResult>& rounds, double setup_s, Report* rep) {
  std::vector<double> walls, gflops, step_us;
  for (const RoundResult& r : rounds) {
    walls.push_back(r.wall_s);
    gflops.push_back(r.flops / r.run_s / 1e9);
    step_us.insert(step_us.end(), r.step_host_us.begin(), r.step_host_us.end());
  }
  const RoundResult& r = rounds.front();
  rep->Add("setup_s", setup_s);
  rep->Add("host_wall_s", MedianOf(walls));
  rep->Add("host_us_per_step", MedianOf(step_us));
  rep->Add("host_peak_rss_mib", PeakRssMib());
  rep->Add("sim_tok_s", static_cast<double>(r.tokens) / (r.sim_us * 1e-6));
  rep->Add("sim_ttft_p50_ms", serving::Percentile(r.ttft_ms, 0.5));
  rep->Add("sim_ttft_p99_ms", serving::Percentile(r.ttft_ms, 0.99));
  rep->Add("sim_itl_p50_ms", serving::Percentile(r.itl_ms, 0.5));
  rep->Add("sim_itl_p99_ms", serving::Percentile(r.itl_ms, 0.99));
  rep->Add("kernel_gflops", MedianOf(gflops));
  rep->notes.push_back("rounds " + std::to_string(rounds.size()) + ", steps per round " +
                       std::to_string(kStepsPerRound) + ", TTFT samples " +
                       std::to_string(r.ttft_ms.size()) + ", ITL samples " +
                       std::to_string(r.itl_ms.size()));
}

/// The simulated outcome of a round must not depend on tracing or replay.
bool SameSim(const RoundResult& a, const RoundResult& b) {
  return a.sim_us == b.sim_us && a.tokens == b.tokens && a.ttft_ms == b.ttft_ms &&
         a.itl_ms == b.itl_ms && a.flops == b.flops;
}

}  // namespace

Report RunAttnKernels(const Options& opt) {
  Report rep;
  KernelBench bench(opt.seed);
  const int64_t per_round = static_cast<int64_t>(kStepsPerRound) * kLayers;
  if (!opt.trace) {
    const double setup_s = SecondsSinceStart(opt);
    std::vector<RoundResult> rounds;
    const int64_t t_start = SteadyNs();
    do {
      rounds.push_back(bench.Round(&rep.checks));
      rep.checks.Expect(SameSim(rounds.front(), rounds.back()), "replayed round: simulated metrics identical");
      rep.attempted += per_round;
      rep.failed += rounds.back().failed_launches;
    } while (static_cast<double>(SteadyNs() - t_start) * 1e-9 < opt.seconds);
    AddEndToEnd(rounds, setup_s, &rep);
    return rep;
  }

  const RoundResult untraced = bench.Round(&rep.checks);
  ClearSpans();
  SetTracing(true);
  RoundResult traced;
  {
    Span root(Layer::kRound);
    traced = bench.Round(&rep.checks);
  }
  SetTracing(false);
  const Summary s = Summarize();
  for (const RoundResult* r : {&untraced, &std::as_const(traced)}) {
    rep.attempted += per_round;
    rep.failed += r->failed_launches;
  }
  rep.checks.Expect(SameSim(untraced, traced), "traced vs untraced: simulated metrics identical");

  const double steps = kStepsPerRound;
  auto L = [&s](Layer l) -> const LayerTotals& { return s[static_cast<size_t>(l)]; };
  rep.Add("kernel.run_us", L(Layer::kHandleRun).total_us / steps);
  rep.Add("kernel.plan_us", L(Layer::kHandlePlan).total_us / steps);
  rep.Add("kernel.bsr_us", L(Layer::kBsr).self_us / steps);
  rep.Add("kernel.append_us", L(Layer::kPagedAppend).self_us / steps);
  rep.Add("kernel.plan_cache_hits", static_cast<double>(traced.plan_cache_hits));
  rep.Add("kernel.sim_us_per_launch", traced.sim_us / static_cast<double>(traced.launches));
  rep.Add("threadpool.fanout_us", L(Layer::kParallelFor).self_us / steps);
  // Per-step medians: the untraced round runs first and pays the cold first
  // steps, which a ratio of round totals would book as negative overhead.
  rep.Add("trace.overhead_frac",
          MedianOf(traced.step_host_us) / MedianOf(untraced.step_host_us) - 1.0);
  rep.Add("trace.spans", static_cast<double>(NumSpans()));
  PrintLayerTable(s, traced.wall_s);
  if (!opt.out_dir.empty()) WriteSpans(opt.out_dir + "/spans_" + opt.workload + ".tsv");
  ClearSpans();
  return rep;
}

}  // namespace pb
