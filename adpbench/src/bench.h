// Shared types of the ADP serving benchmark (see ../DESIGN.md).
//
// The benchmark drives the engine only through its public surface —
// AdpEngine, AdpNetServer/AdpNetClient, and the layer entry points the
// traced pass times (ParseQuery, CanonicalQueryKey, ClassifyDichotomy,
// BuildDispatchPlan, ApplySelections, CountOutputs, ComputeAdp,
// NormalizeTupleRefs, the textproto formatters and the wire framing).
#ifndef ADPBENCH_BENCH_H_
#define ADPBENCH_BENCH_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/result_stream.h"
#include "query/query.h"

namespace adpbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Removal ratios of the paper's evaluation (Figs 7-15): k = ratio x |Q(D)|.
inline constexpr double kRatios[] = {0.10, 0.25, 0.50, 0.75};
inline constexpr int kNumRatios = 4;

// --- Inputs -----------------------------------------------------------------

/// One query family instance the benchmark serves.
struct Family {
  std::string name;  // e.g. "chain3.bool.medium.mid"
  std::string query_text;
  adp::ConjunctiveQuery query;
  adp::NamedDatabase db;  // relations in query-body order
  adp::AdpCase root_case = adp::AdpCase::kHeuristic;
  int weight = 1;        // slots per plan round for the family's instances
  bool streams = false;  // open_mixed: family takes stream ops
  std::int64_t output_count = 0;  // |Q(D)|
  std::string db_line;   // "DB f<i> R1=..." (light_net)
};

/// An answer in one representation for every path: infeasible is
/// feasible=false with cost -1, in-process and on the wire alike.
struct Answer {
  bool feasible = true;
  std::int64_t cost = 0;
  std::int64_t output_count = 0;
  bool exact = true;
  std::uint64_t witness_count = 0;
  std::uint64_t witness_hash = 0;  // of the normalized witness list
};

/// Answer of a successful solve.
Answer AnswerOf(const adp::AdpSolution& s);

/// Empty when `got` equals `want`, else what differs.
std::string CompareAnswers(const Answer& got, const Answer& want);

/// One (family, ratio) target and its oracle answer.
struct Pair {
  int family = 0;
  int ratio = 0;
  std::int64_t k = 0;
  Answer expected;
};

enum class OpKind : std::uint8_t {
  kExecute,   // solve_mix: sync Execute on a bound PreparedQuery
  kText,      // light_net: REQ frame; open_mixed: text SubmitToQueue
  kPrepared,  // light_net: EXEC frame; open_mixed: prepared SubmitToQueue
  kStream,    // light_net: STREAM frame; open_mixed: StreamAdp
  kCancel,    // open_mixed: SubmitToQueue then Cancel
  kExpired,   // open_mixed: SubmitToQueue with an already-passed deadline
  kDbReload,  // light_net: same-content DB re-registration
};

struct Op {
  OpKind kind = OpKind::kExecute;
  int pair = 0;
};

/// Everything one run serves, generated from the seed alone.
struct Workload {
  std::string name;
  std::vector<Family> families;
  std::vector<Pair> pairs;
  /// Timed op sequences, one per client (cycled when a run outlasts them).
  std::vector<std::vector<Op>> plans;
  /// The fixed sample the traced pass replays.
  std::vector<Op> trace_sample;
};

/// Every workload the driver runs; BENCHMARK.json gates the first two
/// (DESIGN.md says why open_mixed is left out).
extern const char* const kWorkloadNames[3];

/// Generates families, pairs (without oracle answers), op plans and the
/// trace sample. Throws std::invalid_argument for an unknown name.
Workload MakeWorkload(const std::string& name, std::uint64_t seed);

/// Fills Pair::expected with a direct ComputeAdp per distinct (family, k)
/// and checks each witness with CountRemovedOutputs >= k. Empty on success,
/// else the first failure.
std::string FillOracle(Workload& w);

// --- Answer decoding --------------------------------------------------------

/// Engine timings a result line carries (AdpResponse fields).
struct LineTimings {
  double solve_ms = 0.0;
  double total_ms = 0.0;
  double queue_ms = 0.0;
};

/// Decodes one kResult payload line ({"req":..,"status":..,...}). Returns
/// false with `why` set when the status is not OK or the line is malformed.
/// A wire cost of -1 decodes as feasible=false, as in-process.
bool DecodeResultLine(const std::string& line, const adp::ConjunctiveQuery& q,
                      Answer* out, std::string* why,
                      LineTimings* timings = nullptr);

/// Accumulates one stream (in-process items or wire item lines) and checks
/// its shape: profile k = 1..K ascending, costs nondecreasing, the last
/// profile cost equal to the terminal cost.
class StreamChecker {
 public:
  void AddProfile(std::int64_t k, std::int64_t cost);
  void AddWitnesses(const std::vector<adp::TupleRef>& batch);
  /// Terminal item. `ok` is its status; the rest as decoded.
  void End(bool ok, const Answer& summary);
  /// Wire form: one kStreamItem / kStreamEnd payload line.
  void AddLine(const std::string& line, const adp::ConjunctiveQuery& q,
               bool terminal);
  /// In-process form.
  void AddItem(const adp::StreamItem& item);
  bool ended() const { return ended_; }
  bool ok() const { return ok_ && error_.empty(); }
  const std::string& error() const { return error_; }
  /// The stream's answer (valid when ok()).
  Answer answer() const;

 private:
  std::int64_t next_k_ = 1;
  std::int64_t last_cost_ = -1;
  std::vector<adp::TupleRef> witnesses_;
  Answer end_;
  bool ended_ = false;
  bool ok_ = false;
  std::string error_;
};

// --- Statistics -------------------------------------------------------------

/// Nearest-rank quantile of raw samples: the smallest sample with at least
/// p*n samples at or below it. `beyond` counts samples strictly above the
/// returned rank position. NaN value when there are no samples.
struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Quantile ExactQuantile(std::vector<double> samples, double p);

// --- Spans and the layer ledger --------------------------------------------

/// One span of the traced pass: a timed call into one layer.
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;  // index into the span list, -1 for an op root
  int op = 0;       // traced-op id shared by every span of one op
  /// False for spans the real call did not execute on this op (the text
  /// path's parse/key/classify/plan under a warm plan cache) and for
  /// sub-measurements contained in another span (normalize inside the full
  /// solve). They are reported but left out of the ledger sum.
  bool on_path = true;
};

/// Self time of every span: its duration minus the union of the intervals
/// its direct children cover.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Layer names of the ledger, in pipeline order.
extern const char* const kLedgerLayers[5];  // net query dichotomy solver relational

/// Per-op ledger: layer self times plus the real call's end-to-end time.
struct OpLedger {
  std::map<std::string, double> layer_ms;  // keys from kLedgerLayers
  double layered_ms = 0.0;                 // sum over on-path layers
  double real_ms = 0.0;                    // the "real" span
};

/// Builds the ledger of every op in `spans`. Span names map to layers by
/// their prefix; "solver.profile" (counting-only ComputeAdp) is charged net
/// of the op's "relational.count" (which it repeats), and "solver.full"
/// (witnessing ComputeAdp) net of "solver.profile", so the on-path sum
/// counts each piece of solver work once. "real" is the op's end-to-end
/// call; "op" roots carry no layer.
std::map<int, OpLedger> BuildLedger(const std::vector<Span>& spans);

/// 1 - sum(layered) / sum(real) over the given ops.
double ResidualShare(const std::map<int, OpLedger>& ledger);

/// Writes spans as a Chrome trace-event JSON array.
bool WriteSpansJson(const std::vector<Span>& spans, const std::string& path);

// --- Runs -------------------------------------------------------------------

/// One metric as printed: name, value, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run reports.
struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  // ops not ending in their expected outcome
  std::uint64_t wrong = 0;   // ops whose answer disagreed with the oracle
  std::string first_error;   // description of the first failed op
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Extra JSON members ("key": value) for the context line.
  std::vector<std::pair<std::string, std::string>> context;
};

struct RunConfig {
  double seconds = 10.0;
  bool trace = false;
  std::string span_dir;  // where the traced pass writes its spans
  int nproc = 1;
};

RunReport RunSolveMix(const Workload& w, const RunConfig& cfg);
RunReport RunLightNet(const Workload& w, const RunConfig& cfg);
RunReport RunOpenMixed(const Workload& w, const RunConfig& cfg);

/// Runs the self-tests; returns the number of failures (each printed to
/// stderr).
int RunSelfTests();

// --- Helpers shared by the runners ----------------------------------------

/// Peak resident set of the process so far, in MiB.
double PeakRssMb();

/// Appends a JSON number with every digit.
std::string JsonNumber(double v);

}  // namespace adpbench

#endif  // ADPBENCH_BENCH_H_
