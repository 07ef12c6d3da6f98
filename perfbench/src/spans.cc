#include "spans.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

namespace pb {
namespace {

struct Rec {
  uint64_t id = 0;
  uint64_t parent = kNoSpan;
  int64_t t0 = 0;
  int64_t t1 = 0;
  int64_t count = 0;
  Layer layer = Layer::kRound;
};

struct ThreadBuf {
  uint64_t tid = 0;
  std::vector<Rec> recs;
  std::vector<uint64_t> stack;  // Open span ids (and adopted parents).
};

std::atomic<bool> g_on{false};
std::mutex g_mu;
std::vector<std::unique_ptr<ThreadBuf>> g_bufs;  // Guarded by g_mu.
thread_local ThreadBuf* t_buf = nullptr;

constexpr int kIndexBits = 40;

ThreadBuf& Buf() {
  if (t_buf == nullptr) {
    std::lock_guard<std::mutex> lock(g_mu);
    g_bufs.push_back(std::make_unique<ThreadBuf>());
    t_buf = g_bufs.back().get();
    t_buf->tid = g_bufs.size() - 1;
  }
  return *t_buf;
}

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

const char* LayerName(Layer l) {
  switch (l) {
    case Layer::kRound: return "round";
    case Layer::kStepTo: return "ServingEngine::StepTo";
    case Layer::kDrain: return "ServingEngine::Drain";
    case Layer::kSimAttn: return "serving::SimulateBatchAttention";
    case Layer::kBsr: return "sparse::BuildBatchBsr";
    case Layer::kPlan: return "MakeBalancedPlan";
    case Layer::kMakespan: return "gpusim::SimExecutor::Makespan";
    case Layer::kRadixMatch: return "RadixTree::MatchPrefix";
    case Layer::kRadixPeek: return "RadixTree::PeekPrefixTokens";
    case Layer::kRadixInsert: return "RadixTree::Insert";
    case Layer::kRadixEvict: return "RadixTree::EvictLru";
    case Layer::kPagedEvict: return "PagedKVCache::EvictSequenceEx";
    case Layer::kPagedRestore: return "PagedKVCache::RestoreSequenceEx";
    case Layer::kPagedAppend: return "PagedKVCache::AppendTokens";
    case Layer::kEncode: return "util::EncodePage";
    case Layer::kDecode: return "util::DecodePage";
    case Layer::kParallelFor: return "ThreadPool::ParallelFor";
    case Layer::kPoolTask: return "pool task";
    case Layer::kHandlePlan: return "BatchAttentionHandle::Plan";
    case Layer::kHandleRun: return "BatchAttentionHandle::Run";
    case Layer::kNumLayers: break;
  }
  return "?";
}

void SetTracing(bool on) { g_on.store(on, std::memory_order_relaxed); }
bool Tracing() { return g_on.load(std::memory_order_relaxed); }

Span::Span(Layer l) {
  if (!g_on.load(std::memory_order_relaxed)) return;
  ThreadBuf& b = Buf();
  index_ = static_cast<int64_t>(b.recs.size());
  Rec r;
  r.id = (b.tid << kIndexBits) | static_cast<uint64_t>(index_);
  r.parent = b.stack.empty() ? kNoSpan : b.stack.back();
  r.layer = l;
  b.stack.push_back(r.id);
  r.t0 = NowNs();
  b.recs.push_back(r);
}

Span::~Span() {
  if (index_ < 0) return;
  const int64_t t1 = NowNs();
  ThreadBuf& b = *t_buf;
  b.recs[static_cast<size_t>(index_)].t1 = t1;
  b.stack.pop_back();
}

void Span::SetCount(int64_t n) {
  if (index_ >= 0) t_buf->recs[static_cast<size_t>(index_)].count = n;
}

uint64_t CurrentSpan() {
  if (t_buf == nullptr || t_buf->stack.empty()) return kNoSpan;
  return t_buf->stack.back();
}

AdoptParent::AdoptParent(uint64_t parent) {
  if (parent == kNoSpan || !g_on.load(std::memory_order_relaxed)) return;
  Buf().stack.push_back(parent);
  pushed_ = true;
}

AdoptParent::~AdoptParent() {
  if (pushed_) t_buf->stack.pop_back();
}

Summary Summarize() {
  std::lock_guard<std::mutex> lock(g_mu);
  // Flat view: span id -> position via per-thread offsets.
  std::vector<size_t> offset(g_bufs.size() + 1, 0);
  for (size_t t = 0; t < g_bufs.size(); ++t) offset[t + 1] = offset[t] + g_bufs[t]->recs.size();
  auto pos = [&offset](uint64_t id) {
    return offset[static_cast<size_t>(id >> kIndexBits)] +
           static_cast<size_t>(id & ((uint64_t{1} << kIndexBits) - 1));
  };
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(offset.back());
  for (const auto& b : g_bufs) {
    for (const Rec& r : b->recs) {
      if (r.parent != kNoSpan) children[pos(r.parent)].push_back({r.t0, r.t1});
    }
  }
  Summary s{};
  for (size_t t = 0; t < g_bufs.size(); ++t) {
    for (size_t i = 0; i < g_bufs[t]->recs.size(); ++i) {
      const Rec& r = g_bufs[t]->recs[i];
      auto& kids = children[offset[t] + i];
      // Union of child intervals clipped to the parent.
      std::sort(kids.begin(), kids.end());
      int64_t covered = 0, cur_lo = 0, cur_hi = -1;
      for (auto [lo, hi] : kids) {
        lo = std::max(lo, r.t0);
        hi = std::min(hi, r.t1);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
      LayerTotals& lt = s[static_cast<size_t>(r.layer)];
      ++lt.calls;
      lt.total_us += static_cast<double>(r.t1 - r.t0) * 1e-3;
      lt.self_us += static_cast<double>(r.t1 - r.t0 - covered) * 1e-3;
      lt.count += r.count;
      if (lt.first_start_ns < 0 || r.t0 < lt.first_start_ns) lt.first_start_ns = r.t0;
    }
  }
  return s;
}

int64_t CountStartedBefore(Layer l, int64_t t_ns) {
  std::lock_guard<std::mutex> lock(g_mu);
  int64_t n = 0;
  for (const auto& b : g_bufs) {
    for (const Rec& r : b->recs) n += (r.layer == l && r.t0 < t_ns) ? 1 : 0;
  }
  return n;
}

void ClearSpans() {
  std::lock_guard<std::mutex> lock(g_mu);
  for (auto& b : g_bufs) b->recs.clear();
}

int64_t NumSpans() {
  std::lock_guard<std::mutex> lock(g_mu);
  int64_t n = 0;
  for (const auto& b : g_bufs) n += static_cast<int64_t>(b->recs.size());
  return n;
}

void PrintLayerTable(const Summary& s, double wall_s) {
  double thread_us = 0.0;
  for (const LayerTotals& t : s) thread_us += t.self_us;
  std::printf("%-34s %10s %12s %12s %9s %9s %12s\n", "layer", "calls", "total_ms", "self_ms",
              "self/thr", "self/wall", "count");
  for (int i = 0; i < kNumLayers; ++i) {
    const LayerTotals& t = s[static_cast<size_t>(i)];
    if (t.calls == 0) continue;
    std::printf("%-34s %10lld %12.2f %12.2f %8.2f%% %8.2f%% %12lld\n",
                LayerName(static_cast<Layer>(i)), static_cast<long long>(t.calls),
                t.total_us * 1e-3, t.self_us * 1e-3,
                thread_us > 0.0 ? 100.0 * t.self_us / thread_us : 0.0,
                wall_s > 0.0 ? 100.0 * t.self_us * 1e-6 / wall_s : 0.0,
                static_cast<long long>(t.count));
  }
  std::printf("traced thread time %.2f ms over %.2f ms wall\n", thread_us * 1e-3, wall_s * 1e3);
}

bool WriteSpans(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tparent\tlayer\tstart_ns\tend_ns\tcount\n");
  std::lock_guard<std::mutex> lock(g_mu);
  for (const auto& b : g_bufs) {
    for (const Rec& r : b->recs) {
      std::fprintf(f, "%llu\t%lld\t%s\t%lld\t%lld\t%lld\n",
                   static_cast<unsigned long long>(r.id),
                   r.parent == kNoSpan ? -1LL : static_cast<long long>(r.parent),
                   LayerName(r.layer), static_cast<long long>(r.t0),
                   static_cast<long long>(r.t1), static_cast<long long>(r.count));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace pb
