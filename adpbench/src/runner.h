// Pieces the three workload runners share: set-up timing, the end-to-end
// metric assembly, engine-counter deltas, and the traced pass.
#ifndef ADPBENCH_RUNNER_H_
#define ADPBENCH_RUNNER_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "engine/engine.h"
#include "engine/plan_cache.h"
#include "engine/thread_pool.h"

namespace adpbench {

/// Set-up repetitions per run; setup_s is their median.
inline constexpr int kSetupReps = 9;

/// In-memory span recorder; times are ms since construction.
class SpanLog {
 public:
  SpanLog() : origin_(Clock::now()) {}
  int Begin(const char* name, int parent, int op, bool on_path = true);
  void End(int id);
  std::vector<Span>& spans() { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Span open for its scope.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, int parent, int op,
             bool on_path = true)
      : log_(log), id_(log.Begin(name, parent, op, on_path)) {}
  ~ScopedSpan() { log_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

/// The engine's intra-request sharding, rebuilt outside it so the traced
/// pass's direct ComputeAdp calls parallelize like the engine's solves.
class ReplayParallelism {
 public:
  explicit ReplayParallelism(int workers);
  const adp::Parallelism* get() const { return &par_; }

 private:
  adp::ThreadPool pool_;
  adp::Parallelism par_;
};

/// Steps 2-5 of the pipeline for a text op: ParseQuery, CanonicalQueryKey,
/// ClassifyDichotomy, BuildDispatchPlan. Recorded off-path: under a warm
/// plan cache the real call serves them from the cache.
void ReplayColdPath(SpanLog& log, int root, int op, const Family& f);

/// Steps 6-9: pushdown + count, counting-only profile, witnessing solve,
/// normalize. Returns the full solution; `stats` gets the counting-only
/// solve's AdpStats.
adp::AdpSolution ReplaySolve(SpanLog& log, int root, int op, const Family& f,
                             const adp::CachedPlan& plan, std::int64_t k,
                             const adp::Parallelism* par, adp::AdpStats* stats);

/// Hooks a runner supplies to the traced pass.
struct TraceHooks {
  /// Records the layer spans of `op` under `root`; `stats` accumulates the
  /// solver's AdpStats; `root_case` receives the op's root case (or -1 if
  /// the op ran no solve).
  std::function<void(const Op& op, SpanLog& log, int root, int op_id,
                     adp::AdpStats* stats, int* root_case)>
      layers;
  /// The real engine or net call for `op`, blocking until it completes.
  std::function<void(const Op& op)> real;
};

/// Replays `w.trace_sample` single-threaded: once untraced (real calls
/// only), then traced (layer spans, then the real call). Appends the
/// traced per-layer metrics and writes the spans under `span_dir`.
void RunTracedPass(const Workload& w, const TraceHooks& hooks,
                   const std::string& span_dir, RunReport* report);

/// Outcomes of a run's checked ops (one client's, or merged).
struct Tally {
  std::uint64_t attempted = 0, ok = 0, failed = 0, wrong = 0;
  std::int64_t answer_checksum = 0, oracle_checksum = 0;
  std::string first_error;

  /// An op that ended in its expected outcome with no answer to compare
  /// (cancelled, expired, a DB re-registration).
  void Ok() { ++ok; }
  /// An op that did not end in its expected outcome.
  void Fail(const std::string& why);
  /// An op whose reply was OK but wrong (counted as failed too).
  void Wrong(const Pair& p, const Workload& w, const std::string& why);
  /// Compares a successful op's answer with the oracle; true when equal.
  bool Check(const Pair& p, const Workload& w, const Answer& got);
  void Merge(const Tally& o);
  /// Copies the counts into `r` and the checksums into its context.
  void Report(RunReport* r) const;
};

/// Engine counters before and after the timed window.
struct CounterDelta {
  adp::EngineCounters before, after;
  std::uint64_t d(std::uint64_t adp::EngineCounters::*field) const {
    return after.*field - before.*field;
  }
};

/// The engine-layer metrics every runner reports. Hit ratios cover the
/// measured engine's whole life (set-up, warm-up and the timed window);
/// the shares cover the timed window.
void AddEngineLayers(const CounterDelta& d, std::uint64_t ops,
                     const std::vector<double>& overhead_ms,
                     const std::vector<double>& queue_ms, RunReport* r);

/// Appends the end-to-end metrics shared by every workload.
struct EndToEndInputs {
  std::vector<double> latency_ms;
  std::vector<double> first_item_ms;
  std::vector<double> setup_s;
  double wall_s = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;  // ended in their expected outcome
};
void AppendEndToEnd(const EndToEndInputs& in, RunReport* report);

/// Median of a sample vector (exact).
double Median(const std::vector<double>& v);

/// Adds `name: value` to the per-layer list.
void AddLayer(RunReport* r, const std::string& name, double value,
              const char* unit);

/// Per-case solve-time shares (context "case_solve_share") from per-op
/// engine solve_ms, keyed by the op family's root case.
void AppendSolveShares(const std::vector<double>& solve_ms_by_case,
                       RunReport* report);

/// Context entries for the engine's registry histograms (2x buckets;
/// context only, never gated).
void AppendHistogramContext(const adp::AdpEngine& engine, RunReport* report);

/// Case index (0..4) in AdpCase order.
inline int CaseIndex(adp::AdpCase c) { return static_cast<int>(c); }
extern const char* const kCaseNames[5];

}  // namespace adpbench

#endif  // ADPBENCH_RUNNER_H_
