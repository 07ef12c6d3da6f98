// Span recording for the traced benchmark build.
//
// A span is one call into a library layer: its layer, start, end, the span
// that caused it (the innermost open span on the same thread, or the fan-out
// that handed work to a pool thread) and an optional work count (pages
// evicted, BSR blocks built, ...). Spans are appended to per-thread buffers
// in memory and summarized (or written out) when the run ends. Recording is
// off until SetTracing(true); a closed Span costs one relaxed load.
#pragma once

#include <array>
#include <cstdint>
#include <string>

namespace pb {

enum class Layer : uint8_t {
  kRound,          // One replay of a workload (benchmark's own root span).
  kStepTo,         // serving::ServingEngine::StepTo
  kDrain,          // serving::ServingEngine::Drain
  kSimAttn,        // serving::SimulateBatchAttention
  kBsr,            // sparse::BuildBatchBsr
  kPlan,           // MakeBalancedPlan
  kMakespan,       // gpusim::SimExecutor::Makespan
  kRadixMatch,     // RadixTree::MatchPrefix
  kRadixPeek,      // RadixTree::PeekPrefixTokens
  kRadixInsert,    // RadixTree::Insert
  kRadixEvict,     // RadixTree::EvictLru
  kPagedEvict,     // PagedKVCache::EvictSequenceEx
  kPagedRestore,   // PagedKVCache::RestoreSequenceEx
  kPagedAppend,    // PagedKVCache::AppendTokens
  kEncode,         // util::EncodePage
  kDecode,         // util::DecodePage
  kParallelFor,    // ThreadPool::ParallelFor
  kPoolTask,       // One index of a ParallelFor, on whichever thread ran it.
  kHandlePlan,     // BatchAttentionHandle::Plan
  kHandleRun,      // BatchAttentionHandle::Run
  kNumLayers,
};

constexpr int kNumLayers = static_cast<int>(Layer::kNumLayers);

const char* LayerName(Layer l);

void SetTracing(bool on);
bool Tracing();

/// Records one span from construction to destruction on the calling thread.
class Span {
 public:
  explicit Span(Layer l);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a work count to the span (summed per layer).
  void SetCount(int64_t n);

 private:
  int64_t index_ = -1;  // Position in this thread's buffer; -1 when off.
};

/// Id of the innermost open span on this thread (kNoSpan when none).
constexpr uint64_t kNoSpan = ~uint64_t{0};
uint64_t CurrentSpan();

/// Makes spans opened on this thread children of `parent` while alive: a
/// pool worker adopts the fan-out span that handed it the work.
class AdoptParent {
 public:
  explicit AdoptParent(uint64_t parent);
  ~AdoptParent();
  AdoptParent(const AdoptParent&) = delete;
  AdoptParent& operator=(const AdoptParent&) = delete;

 private:
  bool pushed_ = false;
};

/// Per-layer totals over every span recorded since the last ClearSpans().
/// Self time is a span's duration minus the part of it covered by its child
/// spans (children on other threads included, overlaps counted once).
struct LayerTotals {
  int64_t calls = 0;
  double total_us = 0.0;
  double self_us = 0.0;
  int64_t count = 0;
  int64_t first_start_ns = -1;  // steady_clock ns of the earliest span.
};
using Summary = std::array<LayerTotals, kNumLayers>;

/// Call only while no span is open on any thread.
Summary Summarize();
/// Spans of layer `l` that started before `t_ns` (steady_clock ns).
int64_t CountStartedBefore(Layer l, int64_t t_ns);
void ClearSpans();
int64_t NumSpans();
/// Prints the per-layer table (calls, total, self, share of traced thread
/// time and of `wall_s`) to stdout.
void PrintLayerTable(const Summary& s, double wall_s);
/// Writes every span as TSV (id, parent, layer, start_ns, end_ns, count).
bool WriteSpans(const std::string& path);

}  // namespace pb
