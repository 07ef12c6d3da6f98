// Link-time wrappers for the traced build (perfbench_traced).
//
// The build links with `--wrap=<symbol>` for every symbol listed in
// wrapped_symbols.txt, so each call into one of these functions from another
// translation unit lands here first; the wrapper opens a span and calls the
// original through `__real_<symbol>`. Calls inside the defining translation
// unit are not redirected (e.g. Drain's own StepTo loop), which is why Drain
// is wrapped on its own. Virtual Router calls cannot be wrapped this way; the
// router is measured through the RadixTree calls it makes.
//
// Member functions are declared as free functions taking the object pointer
// first, which matches the Itanium C++ ABI on x86-64 and AArch64 (a hidden
// return-slot pointer, when present, is passed the same way in both forms).
// The `__real_` references are weak: if a wrapped function is renamed or its
// signature changes, the traced build still links and that span is simply
// never recorded (the per-layer metric reads 0) until this file is updated.
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "kvcache/paged.h"
#include "kvcache/radix.h"
#include "runtime/batch_handle.h"
#include "runtime/scheduler.h"
#include "serving/backends.h"
#include "serving/engine.h"
#include "sparse/bsr.h"
#include "spans.h"
#include "util/codec.h"
#include "util/threadpool.h"

#if !defined(__x86_64__) && !defined(__aarch64__)
#error "perfbench_traced relies on the Itanium C++ ABI of x86-64 or AArch64"
#endif

namespace fi = flashinfer;
using pb::Layer;
using pb::Span;

namespace pb::wrap {

// --- serving engine --------------------------------------------------------
int64_t RealStepTo(fi::serving::ServingEngine*, double) asm(
    "__real__ZN10flashinfer7serving13ServingEngine6StepToEd") __attribute__((weak));
int64_t WrapStepTo(fi::serving::ServingEngine*, double) asm(
    "__wrap__ZN10flashinfer7serving13ServingEngine6StepToEd");
int64_t WrapStepTo(fi::serving::ServingEngine* self, double deadline_s) {
  Span s(Layer::kStepTo);
  const int64_t steps = RealStepTo(self, deadline_s);
  s.SetCount(steps);
  return steps;
}

void RealDrain(fi::serving::ServingEngine*) asm(
    "__real__ZN10flashinfer7serving13ServingEngine5DrainEv") __attribute__((weak));
void WrapDrain(fi::serving::ServingEngine*) asm(
    "__wrap__ZN10flashinfer7serving13ServingEngine5DrainEv");
void WrapDrain(fi::serving::ServingEngine* self) {
  Span s(Layer::kDrain);
  RealDrain(self);
}

// --- attention pricing -----------------------------------------------------
fi::gpusim::SimReport RealSimAttn(const fi::gpusim::DeviceSpec&,
                                  const fi::serving::BackendConfig&,
                                  const fi::serving::AttnSimInput&) asm(
    "__real__ZN10flashinfer7serving22SimulateBatchAttentionERKNS_6gpusim10DeviceSpecERKNS0_"
    "13BackendConfigERKNS0_12AttnSimInputE") __attribute__((weak));
fi::gpusim::SimReport WrapSimAttn(const fi::gpusim::DeviceSpec&,
                                  const fi::serving::BackendConfig&,
                                  const fi::serving::AttnSimInput&) asm(
    "__wrap__ZN10flashinfer7serving22SimulateBatchAttentionERKNS_6gpusim10DeviceSpecERKNS0_"
    "13BackendConfigERKNS0_12AttnSimInputE");
fi::gpusim::SimReport WrapSimAttn(const fi::gpusim::DeviceSpec& dev,
                                  const fi::serving::BackendConfig& backend,
                                  const fi::serving::AttnSimInput& in) {
  Span s(Layer::kSimAttn);
  return RealSimAttn(dev, backend, in);
}

fi::sparse::BsrMatrix RealBsr(const std::vector<int64_t>&,
                              const std::vector<fi::sparse::RequestKv>&, int, int) asm(
    "__real__ZN10flashinfer6sparse13BuildBatchBsrERKSt6vectorIlSaIlEERKS1_INS0_9RequestKvESaIS6_"
    "EEii") __attribute__((weak));
fi::sparse::BsrMatrix WrapBsr(const std::vector<int64_t>&,
                              const std::vector<fi::sparse::RequestKv>&, int, int) asm(
    "__wrap__ZN10flashinfer6sparse13BuildBatchBsrERKSt6vectorIlSaIlEERKS1_INS0_9RequestKvESaIS6_"
    "EEii");
fi::sparse::BsrMatrix WrapBsr(const std::vector<int64_t>& qo_indptr,
                              const std::vector<fi::sparse::RequestKv>& kv, int page_size,
                              int tile_q) {
  Span s(Layer::kBsr);
  fi::sparse::BsrMatrix m = RealBsr(qo_indptr, kv, page_size, tile_q);
  s.SetCount(m.Nnz());
  return m;
}

fi::Plan RealPlan(const fi::AttentionParams&, const fi::KernelConfig&, int, int64_t, double,
                  double) asm("__real__ZN10flashinfer16MakeBalancedPlanERKNS_15AttentionParamsERKNS_"
                              "12KernelConfigEildd") __attribute__((weak));
fi::Plan WrapPlan(const fi::AttentionParams&, const fi::KernelConfig&, int, int64_t, double,
                  double) asm("__wrap__ZN10flashinfer16MakeBalancedPlanERKNS_15AttentionParamsERKNS_"
                              "12KernelConfigEildd");
fi::Plan WrapPlan(const fi::AttentionParams& p, const fi::KernelConfig& cfg, int num_ctas,
                  int64_t max_partial_rows, double alpha, double beta) {
  Span s(Layer::kPlan);
  fi::Plan plan = RealPlan(p, cfg, num_ctas, max_partial_rows, alpha, beta);
  s.SetCount(plan.NumWorkItems());
  return plan;
}

double RealMakespan(const std::vector<double>&, int) noexcept asm(
    "__real__ZN10flashinfer6gpusim11SimExecutor8MakespanERKSt6vectorIdSaIdEEi") __attribute__((weak));
double WrapMakespan(const std::vector<double>&, int) noexcept asm(
    "__wrap__ZN10flashinfer6gpusim11SimExecutor8MakespanERKSt6vectorIdSaIdEEi");
double WrapMakespan(const std::vector<double>& cta_times, int slots) noexcept {
  Span s(Layer::kMakespan);
  return RealMakespan(cta_times, slots);
}

// --- router mirrors (radix tree) --------------------------------------------
fi::RadixTree::MatchResult RealMatch(fi::RadixTree*, std::span<const int32_t>) asm(
    "__real__ZN10flashinfer9RadixTree11MatchPrefixESt4spanIKiLm18446744073709551615EE") __attribute__((weak));
fi::RadixTree::MatchResult WrapMatch(fi::RadixTree*, std::span<const int32_t>) asm(
    "__wrap__ZN10flashinfer9RadixTree11MatchPrefixESt4spanIKiLm18446744073709551615EE");
fi::RadixTree::MatchResult WrapMatch(fi::RadixTree* self, std::span<const int32_t> tokens) {
  Span s(Layer::kRadixMatch);
  return RealMatch(self, tokens);
}

int64_t RealPeek(const fi::RadixTree*, std::span<const int32_t>) asm(
    "__real__ZNK10flashinfer9RadixTree16PeekPrefixTokensESt4spanIKiLm18446744073709551615EE") __attribute__((weak));
int64_t WrapPeek(const fi::RadixTree*, std::span<const int32_t>) asm(
    "__wrap__ZNK10flashinfer9RadixTree16PeekPrefixTokensESt4spanIKiLm18446744073709551615EE");
int64_t WrapPeek(const fi::RadixTree* self, std::span<const int32_t> tokens) {
  Span s(Layer::kRadixPeek);
  return RealPeek(self, tokens);
}

int64_t RealInsert(fi::RadixTree*, std::span<const int32_t>, std::span<const int64_t>) asm(
    "__real__ZN10flashinfer9RadixTree6InsertESt4spanIKiLm18446744073709551615EES1_"
    "IKlLm18446744073709551615EE") __attribute__((weak));
int64_t WrapInsert(fi::RadixTree*, std::span<const int32_t>, std::span<const int64_t>) asm(
    "__wrap__ZN10flashinfer9RadixTree6InsertESt4spanIKiLm18446744073709551615EES1_"
    "IKlLm18446744073709551615EE");
int64_t WrapInsert(fi::RadixTree* self, std::span<const int32_t> tokens,
                   std::span<const int64_t> pages) {
  Span s(Layer::kRadixInsert);
  const int64_t inserted = RealInsert(self, tokens, pages);
  s.SetCount(inserted);
  return inserted;
}

std::vector<int64_t> RealEvict(fi::RadixTree*, int64_t) asm(
    "__real__ZN10flashinfer9RadixTree8EvictLruEl") __attribute__((weak));
std::vector<int64_t> WrapEvict(fi::RadixTree*, int64_t) asm(
    "__wrap__ZN10flashinfer9RadixTree8EvictLruEl");
std::vector<int64_t> WrapEvict(fi::RadixTree* self, int64_t max_pages) {
  Span s(Layer::kRadixEvict);
  std::vector<int64_t> freed = RealEvict(self, max_pages);
  s.SetCount(static_cast<int64_t>(freed.size()));
  return freed;
}

// --- two-tier paged KV and codec --------------------------------------------
fi::PagedKVCache::CodecStats RealPagedEvict(fi::PagedKVCache*, int) asm(
    "__real__ZN10flashinfer12PagedKVCache15EvictSequenceExEi") __attribute__((weak));
fi::PagedKVCache::CodecStats WrapPagedEvict(fi::PagedKVCache*, int) asm(
    "__wrap__ZN10flashinfer12PagedKVCache15EvictSequenceExEi");
fi::PagedKVCache::CodecStats WrapPagedEvict(fi::PagedKVCache* self, int seq) {
  Span s(Layer::kPagedEvict);
  const fi::PagedKVCache::CodecStats st = RealPagedEvict(self, seq);
  s.SetCount(st.pages);
  return st;
}

fi::PagedKVCache::CodecStats RealPagedRestore(fi::PagedKVCache*, int) asm(
    "__real__ZN10flashinfer12PagedKVCache17RestoreSequenceExEi") __attribute__((weak));
fi::PagedKVCache::CodecStats WrapPagedRestore(fi::PagedKVCache*, int) asm(
    "__wrap__ZN10flashinfer12PagedKVCache17RestoreSequenceExEi");
fi::PagedKVCache::CodecStats WrapPagedRestore(fi::PagedKVCache* self, int seq) {
  Span s(Layer::kPagedRestore);
  const fi::PagedKVCache::CodecStats st = RealPagedRestore(self, seq);
  s.SetCount(st.pages > 0 ? st.pages : 0);
  return st;
}

void RealAppend(fi::PagedKVCache*, int, const float*, const float*, int64_t) asm(
    "__real__ZN10flashinfer12PagedKVCache12AppendTokensEiPKfS2_l") __attribute__((weak));
void WrapAppend(fi::PagedKVCache*, int, const float*, const float*, int64_t) asm(
    "__wrap__ZN10flashinfer12PagedKVCache12AppendTokensEiPKfS2_l");
void WrapAppend(fi::PagedKVCache* self, int seq, const float* k, const float* v,
                int64_t count) {
  Span s(Layer::kPagedAppend);
  s.SetCount(count);
  RealAppend(self, seq, k, v, count);
}

std::vector<uint8_t> RealEncode(const std::byte*, size_t, fi::DType, const fi::KvCodecConfig&,
                                fi::util::PageCodecStats*) asm(
    "__real__ZN10flashinfer4util10EncodePageEPKSt4bytemNS_5DTypeERKNS_13KvCodecConfigEPNS0_"
    "14PageCodecStatsE") __attribute__((weak));
std::vector<uint8_t> WrapEncode(const std::byte*, size_t, fi::DType, const fi::KvCodecConfig&,
                                fi::util::PageCodecStats*) asm(
    "__wrap__ZN10flashinfer4util10EncodePageEPKSt4bytemNS_5DTypeERKNS_13KvCodecConfigEPNS0_"
    "14PageCodecStatsE");
std::vector<uint8_t> WrapEncode(const std::byte* page, size_t elems, fi::DType dtype,
                                const fi::KvCodecConfig& cfg, fi::util::PageCodecStats* stats) {
  Span s(Layer::kEncode);
  return RealEncode(page, elems, dtype, cfg, stats);
}

void RealDecode(const uint8_t*, size_t, std::byte*, size_t, fi::DType) asm(
    "__real__ZN10flashinfer4util10DecodePageEPKhmPSt4bytemNS_5DTypeE") __attribute__((weak));
void WrapDecode(const uint8_t*, size_t, std::byte*, size_t, fi::DType) asm(
    "__wrap__ZN10flashinfer4util10DecodePageEPKhmPSt4bytemNS_5DTypeE");
void WrapDecode(const uint8_t* blob, size_t blob_size, std::byte* page, size_t elems,
                fi::DType dtype) {
  Span s(Layer::kDecode);
  RealDecode(blob, blob_size, page, elems, dtype);
}

// --- replica fan-out -------------------------------------------------------
void RealParallelFor(fi::ThreadPool*, int64_t, const std::function<void(int64_t)>&) asm(
    "__real__ZN10flashinfer10ThreadPool11ParallelForElRKSt8functionIFvlEE") __attribute__((weak));
void WrapParallelFor(fi::ThreadPool*, int64_t, const std::function<void(int64_t)>&) asm(
    "__wrap__ZN10flashinfer10ThreadPool11ParallelForElRKSt8functionIFvlEE");
void WrapParallelFor(fi::ThreadPool* self, int64_t n, const std::function<void(int64_t)>& fn) {
  if (!pb::Tracing()) {
    RealParallelFor(self, n, fn);
    return;
  }
  Span s(Layer::kParallelFor);
  s.SetCount(n);
  const uint64_t parent = pb::CurrentSpan();
  // Each index becomes a task span under the fan-out, on whichever thread
  // runs it; the fan-out's self time is then dispatch and barrier wait.
  const std::function<void(int64_t)> traced = [&fn, parent](int64_t i) {
    pb::AdoptParent adopt(parent);
    Span task(Layer::kPoolTask);
    fn(i);
  };
  RealParallelFor(self, n, traced);
}

// --- real attention (kernels) ------------------------------------------------
void RealHandlePlan(fi::BatchAttentionHandle*, const fi::sparse::BsrMatrix*,
                    std::vector<int64_t>, std::vector<int64_t>) asm(
    "__real__ZN10flashinfer20BatchAttentionHandle4PlanEPKNS_6sparse9BsrMatrixESt6vectorIlSaIlEES7_") __attribute__((weak));
void WrapHandlePlan(fi::BatchAttentionHandle*, const fi::sparse::BsrMatrix*,
                    std::vector<int64_t>, std::vector<int64_t>) asm(
    "__wrap__ZN10flashinfer20BatchAttentionHandle4PlanEPKNS_6sparse9BsrMatrixESt6vectorIlSaIlEES7_");
void WrapHandlePlan(fi::BatchAttentionHandle* self, const fi::sparse::BsrMatrix* bsr,
                    std::vector<int64_t> qo_indptr, std::vector<int64_t> kv_len) {
  Span s(Layer::kHandlePlan);
  RealHandlePlan(self, bsr, std::move(qo_indptr), std::move(kv_len));
}

fi::gpusim::SimReport RealHandleRun(fi::BatchAttentionHandle*, const fi::RaggedTensor&,
                                    const fi::PagedKVCache&, fi::RaggedTensor*,
                                    std::vector<float>*) asm(
    "__real__ZN10flashinfer20BatchAttentionHandle3RunERKNS_12RaggedTensorERKNS_12PagedKVCacheEPS1_"
    "PSt6vectorIfSaIfEE") __attribute__((weak));
fi::gpusim::SimReport WrapHandleRun(fi::BatchAttentionHandle*, const fi::RaggedTensor&,
                                    const fi::PagedKVCache&, fi::RaggedTensor*,
                                    std::vector<float>*) asm(
    "__wrap__ZN10flashinfer20BatchAttentionHandle3RunERKNS_12RaggedTensorERKNS_12PagedKVCacheEPS1_"
    "PSt6vectorIfSaIfEE");
fi::gpusim::SimReport WrapHandleRun(fi::BatchAttentionHandle* self, const fi::RaggedTensor& q,
                                    const fi::PagedKVCache& kv, fi::RaggedTensor* o,
                                    std::vector<float>* lse) {
  Span s(Layer::kHandleRun);
  return RealHandleRun(self, q, kv, o, lse);
}

}  // namespace pb::wrap
