// Shared runner pieces: the traced pass, end-to-end metric assembly, and
// registry context.
#include <algorithm>
#include <map>
#include <set>

#include "dichotomy/classification.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "query/fingerprint.h"
#include "query/parser.h"
#include "query/transform.h"
#include "relational/join.h"
#include "runner.h"
#include "solver/plan.h"
#include "solver/solution.h"

namespace adpbench {

const char* const kCaseNames[5] = {"boolean", "singleton", "universe",
                                   "decompose", "heuristic"};

int SpanLog::Begin(const char* name, int parent, int op, bool on_path) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.op = op;
  s.on_path = on_path;
  s.start_ms = MsBetween(origin_, Clock::now());
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::End(int id) { spans_[id].end_ms = MsBetween(origin_, Clock::now()); }

ReplayParallelism::ReplayParallelism(int workers) : pool_(workers) {
  const adp::EngineConfig defaults;
  par_.min_groups = defaults.min_shard_groups;
  par_.min_components = defaults.min_shard_components;
  par_.run_all = [this](std::vector<std::function<void()>> tasks) {
    pool_.RunAll(std::move(tasks));
  };
}

void ReplayColdPath(SpanLog& log, int root, int op, const Family& f) {
  adp::ConjunctiveQuery q;
  {
    ScopedSpan s(log, "query.parse", root, op, false);
    q = adp::ParseQuery(f.query_text);
  }
  {
    ScopedSpan s(log, "query.canonical_key", root, op, false);
    adp::CanonicalQueryKey(q);
  }
  {
    ScopedSpan s(log, "dichotomy.classify", root, op, false);
    adp::ClassifyDichotomy(q);
  }
  {
    ScopedSpan s(log, "solver.plan_build", root, op, false);
    adp::BuildDispatchPlan(q, adp::AdpOptions{});
  }
}

adp::AdpSolution ReplaySolve(SpanLog& log, int root, int op, const Family& f,
                             const adp::CachedPlan& plan, std::int64_t k,
                             const adp::Parallelism* par, adp::AdpStats* stats) {
  const adp::ConjunctiveQuery& q = plan.query;
  const adp::Database& db = f.db.db;
  {
    ScopedSpan s(log, "relational.count", root, op);
    if (q.HasSelections()) {
      const adp::QueryDb pushed = adp::ApplySelections(q, db);
      adp::CountOutputs(pushed.query.body(), pushed.query.head(), pushed.db);
    } else {
      adp::CountOutputs(q.body(), q.head(), db);
    }
  }
  adp::AdpOptions opts;
  opts.plan = &plan.dispatch;
  opts.parallelism = par;
  {
    adp::AdpOptions counting = opts;
    counting.counting_only = true;
    counting.stats = stats;
    ScopedSpan s(log, "solver.profile", root, op);
    adp::ComputeAdp(q, db, k, counting);
  }
  adp::AdpSolution full;
  {
    ScopedSpan s(log, "solver.full", root, op);
    full = adp::ComputeAdp(q, db, k, opts);
  }
  {
    // Contained in solver.full (ComputeAdp normalizes its witnesses);
    // timed again on an unsorted copy to size it.
    std::vector<adp::TupleRef> copy(full.tuples.rbegin(), full.tuples.rend());
    ScopedSpan s(log, "solver.normalize", root, op, false);
    adp::NormalizeTupleRefs(copy);
  }
  return full;
}

void Tally::Fail(const std::string& why) {
  ++failed;
  if (first_error.empty()) first_error = why;
}

void Tally::Wrong(const Pair& p, const Workload& w, const std::string& why) {
  ++wrong;
  Fail(w.families[p.family].name + " k=" + std::to_string(p.k) + ": " + why);
}

bool Tally::Check(const Pair& p, const Workload& w, const Answer& got) {
  answer_checksum += got.cost;
  oracle_checksum += p.expected.cost;
  const std::string diff = CompareAnswers(got, p.expected);
  if (diff.empty()) {
    ++ok;
    return true;
  }
  Wrong(p, w, diff);
  return false;
}

void Tally::Merge(const Tally& o) {
  attempted += o.attempted;
  ok += o.ok;
  failed += o.failed;
  wrong += o.wrong;
  answer_checksum += o.answer_checksum;
  oracle_checksum += o.oracle_checksum;
  if (first_error.empty()) first_error = o.first_error;
}

void Tally::Report(RunReport* r) const {
  r->attempted = attempted;
  r->failed = failed;
  r->wrong = wrong;
  r->first_error = first_error;
  r->context.push_back({"answer_checksum", std::to_string(answer_checksum)});
  r->context.push_back({"oracle_checksum", std::to_string(oracle_checksum)});
}

void AddEngineLayers(const CounterDelta& d, std::uint64_t ops,
                     const std::vector<double>& overhead_ms,
                     const std::vector<double>& queue_ms, RunReport* r) {
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  auto hit_ratio = [&](std::uint64_t hits, std::uint64_t misses) {
    return ratio(static_cast<double>(hits), static_cast<double>(hits + misses));
  };
  using C = adp::EngineCounters;
  AddLayer(r, "engine.plan_hit_ratio",
           hit_ratio(d.after.plan_hits, d.after.plan_misses), "ratio");
  AddLayer(r, "engine.binding_hit_ratio",
           hit_ratio(d.after.binding_hits, d.after.binding_misses), "ratio");
  AddLayer(r, "engine.overhead_p50_ms", Median(overhead_ms), "ms");
  AddLayer(r, "engine.queue_wait_p50_ms", ExactQuantile(queue_ms, 0.5).value, "ms");
  AddLayer(r, "engine.queue_wait_p99_ms", ExactQuantile(queue_ms, 0.99).value, "ms");
  const double requests = static_cast<double>(d.d(&C::requests));
  AddLayer(r, "engine.dedup_share",
           ratio(static_cast<double>(d.d(&C::dedup_hits)), requests), "ratio");
  AddLayer(r, "engine.shed_share",
           ratio(static_cast<double>(d.d(&C::shed)), requests), "ratio");
  AddLayer(r, "engine.sharded_nodes_per_op",
           ratio(static_cast<double>(d.d(&C::sharded_universe_nodes) +
                                     d.d(&C::sharded_decompose_nodes)),
                 static_cast<double>(ops)),
           "count");
}

double Median(const std::vector<double>& v) {
  return ExactQuantile(v, 0.5).value;
}

void AddLayer(RunReport* r, const std::string& name, double value,
              const char* unit) {
  r->per_layer.push_back({name, value, unit});
}

namespace {

// Mean over the ops that have at least one `name` span of the per-op sum of
// those spans' durations; 0 when no op has one.
double MeanPerOp(const std::vector<Span>& spans, const std::string& name) {
  std::map<int, double> per_op;
  for (const Span& s : spans) {
    if (s.name == name) per_op[s.op] += s.end_ms - s.start_ms;
  }
  if (per_op.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [op, ms] : per_op) sum += ms;
  return sum / static_cast<double>(per_op.size());
}

double PerOpSum(const std::vector<Span>& spans, int op, const char* name) {
  double sum = 0.0;
  for (const Span& s : spans) {
    if (s.op == op && s.name == name) sum += s.end_ms - s.start_ms;
  }
  return sum;
}

}  // namespace

void RunTracedPass(const Workload& w, const TraceHooks& hooks,
                   const std::string& span_dir, RunReport* report) {
  const std::vector<Op>& sample = w.trace_sample;
  for (const Op& op : sample) hooks.real(op);  // warm
  double untraced_ms = 0.0;
  for (const Op& op : sample) {
    const Clock::time_point t0 = Clock::now();
    hooks.real(op);
    untraced_ms += MsBetween(t0, Clock::now());
  }

  SpanLog log;
  adp::AdpStats stats;
  std::vector<int> op_case(sample.size(), -1);
  for (std::size_t i = 0; i < sample.size(); ++i) {
    const int id = static_cast<int>(i);
    const int root = log.Begin("op", -1, id);
    hooks.layers(sample[i], log, root, id, &stats, &op_case[i]);
    {
      ScopedSpan real(log, "real", root, id);
      hooks.real(sample[i]);
    }
    log.End(root);
  }
  const std::vector<Span>& spans = log.spans();
  const std::map<int, OpLedger> ledger = BuildLedger(spans);

  double traced_ms = 0.0;
  std::map<std::string, double> layer_sum;
  for (const auto& [op, l] : ledger) {
    traced_ms += l.real_ms;
    for (const auto& [layer, ms] : l.layer_ms) layer_sum[layer] += ms;
  }

  const double us = 1e3;
  AddLayer(report, "textproto.parse_us", MeanPerOp(spans, "textproto.parse") * us, "us");
  AddLayer(report, "query.parse_us", MeanPerOp(spans, "query.parse") * us, "us");
  AddLayer(report, "query.canonical_key_us",
           MeanPerOp(spans, "query.canonical_key") * us, "us");
  AddLayer(report, "dichotomy.classify_us",
           MeanPerOp(spans, "dichotomy.classify") * us, "us");
  AddLayer(report, "solver.plan_build_us",
           MeanPerOp(spans, "solver.plan_build") * us, "us");
  AddLayer(report, "relational.count_ms", MeanPerOp(spans, "relational.count"), "ms");

  // Profile time net of the count it repeats, by the op's root case;
  // witness time is the witnessing solve net of the counting-only one.
  double case_ms[5] = {}, case_ops[5] = {}, witness_ms = 0.0, witness_ops = 0.0;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    if (op_case[i] < 0) continue;
    const int id = static_cast<int>(i);
    const double profile = PerOpSum(spans, id, "solver.profile");
    case_ms[op_case[i]] += profile - PerOpSum(spans, id, "relational.count");
    case_ops[op_case[i]] += 1.0;
    witness_ms += PerOpSum(spans, id, "solver.full") - profile;
    witness_ops += 1.0;
  }
  for (int c = 0; c < 5; ++c) {
    AddLayer(report, std::string("solver.profile_ms.") + kCaseNames[c],
             case_ops[c] > 0 ? case_ms[c] / case_ops[c] : 0.0, "ms");
  }
  AddLayer(report, "solver.witness_ms",
           witness_ops > 0 ? witness_ms / witness_ops : 0.0, "ms");
  AddLayer(report, "solver.normalize_us",
           MeanPerOp(spans, "solver.normalize") * us, "us");
  AddLayer(report, "solver.nodes.boolean", stats.boolean_nodes, "count");
  AddLayer(report, "solver.nodes.singleton", stats.singleton_nodes, "count");
  AddLayer(report, "solver.nodes.universe", stats.universe_nodes, "count");
  AddLayer(report, "solver.nodes.decompose", stats.decompose_nodes, "count");
  AddLayer(report, "solver.nodes.heuristic",
           stats.greedy_leaves + stats.drastic_leaves, "count");
  AddLayer(report, "solver.universe_groups",
           static_cast<double>(stats.universe_groups), "count");
  AddLayer(report, "textproto.format_us", MeanPerOp(spans, "textproto.format") * us, "us");
  AddLayer(report, "wire.encode_us", MeanPerOp(spans, "wire.encode") * us, "us");
  AddLayer(report, "wire.decode_us", MeanPerOp(spans, "wire.decode") * us, "us");

  AddLayer(report, "trace.residual_share", ResidualShare(ledger), "ratio");
  AddLayer(report, "trace.overhead_share",
           untraced_ms > 0 ? traced_ms / untraced_ms - 1.0 : 0.0, "ratio");
  for (const char* layer : kLedgerLayers) {
    AddLayer(report, std::string("trace.share.") + layer,
             traced_ms > 0 ? layer_sum[layer] / traced_ms : 0.0, "ratio");
  }
  report->context.push_back({"trace_ops", std::to_string(sample.size())});

  const std::string path = span_dir + "/" + w.name + ".json";
  if (!span_dir.empty() && WriteSpansJson(spans, path)) {
    report->context.push_back({"spans_file", "\"" + path + "\""});
  }
}

void AppendEndToEnd(const EndToEndInputs& in, RunReport* report) {
  const Quantile p50 = ExactQuantile(in.latency_ms, 0.50);
  // p99 needs at least ten samples beyond it; with fewer, report the
  // highest quantile that has ten (and say which in the context).
  double p = 0.99;
  const double n = static_cast<double>(in.latency_ms.size());
  if (n * (1.0 - p) < 10.0) p = std::max(0.5, 1.0 - 10.0 / std::max(n, 1.0));
  const Quantile tail = ExactQuantile(in.latency_ms, p);
  const Quantile first = ExactQuantile(in.first_item_ms, 0.50);
  report->end_to_end = {
      {"ops_per_s", static_cast<double>(in.ok) / in.wall_s, "1/s"},
      {"latency_p50_ms", p50.value, "ms"},
      {"latency_p99_ms", tail.value, "ms"},
      {"stream_first_item_p50_ms", first.value, "ms"},
      {"ok_share",
       in.attempted > 0 ? static_cast<double>(in.ok) / in.attempted : 0.0,
       "ratio"},
      {"setup_s", Median(in.setup_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
  };
  auto num = [](double v) { return JsonNumber(v); };
  report->context.push_back({"latency_samples", std::to_string(p50.samples)});
  report->context.push_back({"latency_p99_quantile", num(p)});
  report->context.push_back(
      {"latency_p99_beyond", std::to_string(tail.beyond)});
  report->context.push_back(
      {"stream_first_item_samples", std::to_string(first.samples)});
  report->context.push_back({"setup_reps", std::to_string(in.setup_s.size())});
  report->context.push_back({"wall_s", num(in.wall_s)});
  report->context.push_back(
      {"error_share",
       num(in.attempted > 0 ? 1.0 - static_cast<double>(in.ok) / in.attempted
                            : 0.0)});
  AddLayer(report, "ops.error_share",
           in.attempted > 0 ? 1.0 - static_cast<double>(in.ok) / in.attempted
                            : 0.0,
           "ratio");
}

void AppendSolveShares(const std::vector<double>& solve_ms_by_case,
                       RunReport* report) {
  double total = 0.0;
  for (double v : solve_ms_by_case) total += v;
  std::string json;
  for (int c = 0; c < 5; ++c) {
    json += (c ? ",\"" : "{\"") + std::string(kCaseNames[c]) + "\":" +
            JsonNumber(total > 0 ? solve_ms_by_case[c] / total : 0.0);
  }
  report->context.push_back({"case_solve_share", json + "}"});
}

void AppendHistogramContext(const adp::AdpEngine& engine, RunReport* report) {
  adp::obs::MetricsRegistry& reg = engine.metrics();
  std::string json = "{";
  const char* names[] = {adp::obs::kMRequestLatencyMs, adp::obs::kMQueueWaitMs,
                         adp::obs::kMSolveMs, adp::obs::kMStreamFirstItemMs};
  for (const char* name : names) {
    const adp::obs::HistogramSnapshot h = reg.GetHistogram(name).Snapshot();
    if (json.size() > 1) json += ",";
    json += "\"" + std::string(name) + "\":{\"count\":" +
            std::to_string(h.count) + ",\"p50\":" +
            JsonNumber(h.count ? h.Quantile(0.5) : 0.0) +
            ",\"p99\":" + JsonNumber(h.count ? h.Quantile(0.99) : 0.0) + "}";
  }
  report->context.push_back({"engine_histograms_2x_buckets", json + "}"});
}

}  // namespace adpbench
