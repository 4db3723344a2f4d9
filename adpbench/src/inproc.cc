// The two in-process workloads: solve_mix (closed loop, sync Execute) and
// open_mixed (open loop, async submissions, streams, cancels, expired
// deadlines).
#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "engine/completion_queue.h"
#include "runner.h"

namespace adpbench {

namespace {

/// open_mixed offered rate (ops/s). Shedding starts between 8000 and 12000
/// ops/s on the 4-vCPU reference host, but from a few thousand ops/s small
/// host slowdowns tip the pool into congestion and latency_p50_ms stops
/// repeating (DESIGN.md).
constexpr double kOpenRate = 1000.0;

/// open_mixed admission bound: a stall long enough to queue this many
/// tasks sheds, which counts as an error.
constexpr std::size_t kOpenMaxQueueDepth = 256;

/// solve_mix stream probe: the Singleton family, whose profile (one item
/// per k, k < 100) streams in about a millisecond.
constexpr char kProbeFamily[] = "star3.proj.medium.mid";
constexpr int kProbeReps = 3;

struct Served {
  std::unique_ptr<adp::AdpEngine> engine;
  std::vector<adp::DbId> dbs;
  std::vector<adp::PreparedQuery> prepared;
};

/// Builds a fresh engine and times the set-up a user pays on it:
/// RegisterDatabase + Prepare + Bind for every family. Repeated
/// kSetupReps times; the last engine is kept.
Served SetUp(const Workload& w, const adp::EngineConfig& ec,
             std::vector<double>* setup_s) {
  Served s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s = Served{};
    s.engine = std::make_unique<adp::AdpEngine>(ec);
    std::vector<adp::NamedDatabase> dbs;
    for (const Family& f : w.families) dbs.push_back(f.db);
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < w.families.size(); ++i) {
      const adp::DbId id = s.engine->RegisterDatabase(std::move(dbs[i]));
      adp::StatusOr<adp::PreparedQuery> p =
          s.engine->Prepare(w.families[i].query_text);
      if (!p.ok()) throw std::runtime_error("Prepare: " + p.status().message());
      const adp::Status bound = p->Bind(id);
      if (!bound.ok()) throw std::runtime_error("Bind: " + bound.message());
      s.dbs.push_back(id);
      s.prepared.push_back(*std::move(p));
    }
    setup_s->push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  return s;
}

/// What draining one in-process stream observed.
struct StreamOutcome {
  double first_item_ms = -1.0;
  Clock::time_point done;
  bool ok = false;
  std::string error;
  Answer answer;
  double solve_ms = 0.0;
};

StreamOutcome Drain(adp::ResultStream& s, Clock::time_point sent) {
  StreamOutcome out;
  StreamChecker ck;
  while (std::optional<adp::StreamItem> item = s.Next()) {
    if (out.first_item_ms < 0 && item->kind == adp::StreamItem::Kind::kProfile) {
      out.first_item_ms = MsBetween(sent, Clock::now());
    }
    if (item->kind == adp::StreamItem::Kind::kEnd) {
      out.solve_ms = item->solve_ms;
    }
    ck.AddItem(*item);
  }
  out.done = Clock::now();
  out.ok = ck.ended() && ck.ok();
  out.error = ck.ended() ? ck.error() : "stream ended without a terminal item";
  if (out.ok) out.answer = ck.answer();
  return out;
}

}  // namespace

RunReport RunSolveMix(const Workload& w, const RunConfig& cfg) {
  RunReport report;
  adp::EngineConfig ec;
  ec.num_workers = std::max(1, cfg.nproc - 1);
  EndToEndInputs e2e;
  Served s = SetUp(w, ec, &e2e.setup_s);
  adp::AdpEngine& engine = *s.engine;

  for (const Pair& p : w.pairs) engine.Execute(s.prepared[p.family], p.k);  // warm

  const std::vector<Op>& plan = w.plans[0];
  Tally tally;
  std::vector<double> overhead_ms, queue_ms, solve_by_case(5, 0.0);
  std::vector<double> solve_by_family(w.families.size(), 0.0);
  CounterDelta delta;
  delta.before = engine.counters();
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));
  Clock::time_point now = start;
  for (std::size_t i = 0; now < end; ++i) {
    const Pair& p = w.pairs[plan[i % plan.size()].pair];
    const Clock::time_point t0 = Clock::now();
    const adp::AdpResponse resp = engine.Execute(s.prepared[p.family], p.k);
    now = Clock::now();
    const double ms = MsBetween(t0, now);
    e2e.latency_ms.push_back(ms);
    ++tally.attempted;
    if (!resp.ok()) {
      tally.Fail(resp.status.ToString());
      continue;
    }
    tally.Check(p, w, AnswerOf(resp.solution));
    overhead_ms.push_back(ms - resp.solve_ms);
    queue_ms.push_back(resp.queue_ms);
    solve_by_case[CaseIndex(w.families[p.family].root_case)] += resp.solve_ms;
    solve_by_family[p.family] += resp.solve_ms;
  }
  e2e.wall_s = MsBetween(start, now) / 1e3;
  {
    double total = 0.0;
    std::map<std::string, double> by_name;
    for (std::size_t f = 0; f < w.families.size(); ++f) {
      total += solve_by_family[f];
      by_name[w.families[f].name] += solve_by_family[f];
    }
    std::string shares;
    for (const auto& [name, ms] : by_name) {
      shares += (shares.empty() ? "{\"" : ",\"") + name +
                "\":" + JsonNumber(total > 0 ? ms / total : 0.0);
    }
    report.context.push_back({"family_solve_share", shares + "}"});
  }
  delta.after = engine.counters();
  e2e.attempted = tally.attempted;
  e2e.ok = tally.ok;

  // Stream probe: solve_mix's ops are sync Executes, so the time to a
  // stream's first profile item is measured after the timed window, on
  // every pair of one family, kProbeReps times. Over all families the
  // median fell between the clusters of two families and moved with the
  // seed (spread 0.29 over five seeds).
  std::uint64_t probes = 0;
  for (const Pair& p : w.pairs) {
    if (w.families[p.family].name != kProbeFamily) continue;
    for (int rep = 0; rep < kProbeReps; ++rep) {
      const Clock::time_point sent = Clock::now();
      adp::ResultStream stream = engine.StreamAdp(s.prepared[p.family], p.k);
      const StreamOutcome o = Drain(stream, sent);
      ++probes;
      if (!o.ok) {
        tally.Wrong(p, w, o.error);
        continue;
      }
      const std::string diff = CompareAnswers(o.answer, p.expected);
      if (!diff.empty()) tally.Wrong(p, w, diff);
      e2e.first_item_ms.push_back(o.first_item_ms);
    }
  }
  report.context.push_back({"stream_probe_ops", std::to_string(probes)});

  AppendEndToEnd(e2e, &report);
  tally.Report(&report);
  AddEngineLayers(delta, tally.attempted, overhead_ms, queue_ms, &report);
  AddLayer(&report, "net.roundtrip_p50_ms", 0.0, "ms");
  AddLayer(&report, "net.frames_per_op", 0.0, "count");
  AddLayer(&report, "driver.send_lag_p99_ms", 0.0, "ms");
  AppendSolveShares(solve_by_case, &report);
  AppendHistogramContext(engine, &report);
  report.context.push_back({"engine_workers", std::to_string(ec.num_workers)});
  report.context.push_back({"client_threads", "1"});

  if (cfg.trace) {
    ReplayParallelism par(ec.num_workers);
    TraceHooks hooks;
    hooks.layers = [&](const Op& op, SpanLog& log, int root, int id,
                       adp::AdpStats* stats, int* root_case) {
      const Pair& p = w.pairs[op.pair];
      const Family& f = w.families[p.family];
      *root_case = CaseIndex(f.root_case);
      ReplaySolve(log, root, id, f, *s.prepared[p.family].plan(), p.k,
                  par.get(), stats);
    };
    hooks.real = [&](const Op& op) {
      const Pair& p = w.pairs[op.pair];
      engine.Execute(s.prepared[p.family], p.k);
    };
    RunTracedPass(w, hooks, cfg.span_dir, &report);
  }
  return report;
}

RunReport RunOpenMixed(const Workload& w, const RunConfig& cfg) {
  RunReport report;
  adp::EngineConfig ec;
  // The generator and the completion collector each keep a core: with them
  // competing for cores against busy workers, a collector descheduled for a
  // few ms added that to every completion behind it, and such stalls made
  // the slowest 1% of ops.
  ec.num_workers = std::max(1, cfg.nproc - 2);
  ec.max_queue_depth = kOpenMaxQueueDepth;
  // Concurrent requests already share the pool, so intra-request sharding
  // is off here (solve_mix and light_net run it at its defaults): a sharded
  // heavy solve would hold every worker, and whether the median op queues
  // behind one would decide latency_p50_ms.
  ec.min_shard_groups = 0;
  ec.min_shard_components = 0;
  EndToEndInputs e2e;
  Served s = SetUp(w, ec, &e2e.setup_s);
  adp::AdpEngine& engine = *s.engine;

  auto text_request = [&](const Pair& p) {
    adp::AdpRequest req;
    req.query_text = w.families[p.family].query_text;
    req.db = s.dbs[p.family];
    req.k = p.k;
    return req;
  };
  auto prepared_request = [&](const Pair& p) {
    adp::AdpRequest req;
    req.prepared = s.prepared[p.family];
    req.k = p.k;
    return req;
  };
  for (const Pair& p : w.pairs) engine.Execute(text_request(p));  // warm

  // Evenly spaced arrivals at kOpenRate; the seed orders the ops.
  const std::vector<Op>& plan = w.plans[0];
  const std::size_t capacity =
      static_cast<std::size_t>(kOpenRate * cfg.seconds * 2) + 1024;
  struct Record {
    Clock::time_point intended;
    Clock::time_point sent;
    Op op;
  };
  std::vector<Record> records(capacity);

  adp::CompletionQueue cq;
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t submitted = 0;  // guarded by mu
  bool generator_done = false;  // guarded by mu

  Tally tally;  // collector-thread owned until joined
  std::vector<double> latency, overhead_ms, queue_ms, solve_by_case(5, 0.0);
  Clock::time_point last_done;
  std::thread collector([&] {
    std::uint64_t popped = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return submitted > popped || generator_done; });
        if (submitted == popped && generator_done) break;
      }
      // Every counted submission is already registered with `cq`, so this
      // blocks until one completes.
      std::optional<adp::Completion> c = cq.Next();
      const Clock::time_point done = Clock::now();
      if (!c) continue;
      ++popped;
      const Record& rec = records[c->tag];
      const Pair& p = w.pairs[rec.op.pair];
      const adp::AdpResponse& resp = c->response;
      latency.push_back(MsBetween(rec.intended, done));
      last_done = std::max(last_done, done);
      ++tally.attempted;
      const adp::StatusCode code = resp.status.code();
      if (rec.op.kind == OpKind::kExpired) {
        if (code == adp::StatusCode::kDeadlineExceeded) {
          tally.Ok();
        } else {
          tally.Fail("expired op: " + resp.status.ToString());
        }
        continue;
      }
      if (rec.op.kind == OpKind::kCancel && code == adp::StatusCode::kCancelled) {
        tally.Ok();
        continue;
      }
      if (!resp.ok()) {
        tally.Fail(resp.status.ToString());
        continue;
      }
      tally.Check(p, w, AnswerOf(resp.solution));
      overhead_ms.push_back(MsBetween(rec.sent, done) - resp.solve_ms);
      queue_ms.push_back(resp.queue_ms);
      if (!resp.deduped) {
        solve_by_case[CaseIndex(w.families[p.family].root_case)] += resp.solve_ms;
      }
    }
  });

  std::mutex stream_mu;
  Tally stream_tally;  // guarded by stream_mu
  std::vector<double> stream_latency, first_item;  // guarded by stream_mu
  std::vector<double> stream_solve(5, 0.0);        // guarded by stream_mu
  Clock::time_point stream_last_done;              // guarded by stream_mu
  struct StreamConsumer {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<StreamConsumer> streams;

  CounterDelta delta;
  delta.before = engine.counters();
  std::vector<double> send_lag;
  const Clock::time_point start = Clock::now();
  const double horizon_s = cfg.seconds;
  double t_s = 0.0;
  std::size_t n = 0;
  for (; n < capacity; ++n) {
    t_s = static_cast<double>(n) / kOpenRate;
    if (t_s >= horizon_s) break;
    Record& rec = records[n];
    rec.intended = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(t_s));
    rec.op = plan[n % plan.size()];
    std::this_thread::sleep_until(rec.intended);
    rec.sent = Clock::now();
    send_lag.push_back(MsBetween(rec.intended, rec.sent));
    const Pair& p = w.pairs[rec.op.pair];
    switch (rec.op.kind) {
      case OpKind::kStream: {
        // One consumer thread per stream: a shared consumer blocked on one
        // stream could leave another's producer holding a worker on a full
        // buffer. Finished consumers are joined as the run goes.
        std::erase_if(streams, [](StreamConsumer& c) {
          if (!c.done->load()) return false;
          c.thread.join();
          return true;
        });
        adp::ResultStream stream = engine.StreamAdp(s.prepared[p.family], p.k);
        auto done = std::make_shared<std::atomic<bool>>(false);
        streams.push_back({std::thread([&, stream, rec, done]() mutable {
                             const StreamOutcome o = Drain(stream, rec.sent);
                             const Pair& sp = w.pairs[rec.op.pair];
                             std::lock_guard<std::mutex> lock(stream_mu);
                             ++stream_tally.attempted;
                             stream_latency.push_back(MsBetween(rec.intended, o.done));
                             stream_last_done = std::max(stream_last_done, o.done);
                             stream_solve[CaseIndex(w.families[sp.family].root_case)] +=
                                 o.solve_ms;
                             if (!o.ok) {
                               stream_tally.Fail(o.error);
                             } else if (stream_tally.Check(sp, w, o.answer)) {
                               first_item.push_back(o.first_item_ms);
                             }
                             done->store(true);
                           }),
                           done});
        break;
      }
      case OpKind::kText:
      case OpKind::kPrepared:
      case OpKind::kCancel:
      case OpKind::kExpired: {
        adp::AdpRequest req = rec.op.kind == OpKind::kText ? text_request(p)
                                                           : prepared_request(p);
        if (rec.op.kind == OpKind::kExpired) {
          req.deadline = rec.sent - std::chrono::milliseconds(1);
        }
        adp::AdpTicket ticket = engine.SubmitToQueue(std::move(req), cq, n);
        if (rec.op.kind == OpKind::kCancel) ticket.Cancel();
        {
          std::lock_guard<std::mutex> lock(mu);
          ++submitted;
        }
        cv.notify_one();
        break;
      }
      default:
        throw std::logic_error("open_mixed: unexpected op kind");
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    generator_done = true;
  }
  cv.notify_one();
  collector.join();
  for (StreamConsumer& c : streams) c.thread.join();
  delta.after = engine.counters();

  tally.Merge(stream_tally);
  latency.insert(latency.end(), stream_latency.begin(), stream_latency.end());
  double solve_total_ms = 0.0;
  for (int c = 0; c < 5; ++c) {
    solve_by_case[c] += stream_solve[c];
    solve_total_ms += solve_by_case[c];
  }
  e2e.latency_ms = std::move(latency);
  e2e.first_item_ms = std::move(first_item);
  e2e.attempted = tally.attempted;
  e2e.ok = tally.ok;
  // Measured from the first intended arrival to the last completion.
  e2e.wall_s = MsBetween(start, std::max(last_done, stream_last_done)) / 1e3;
  AppendEndToEnd(e2e, &report);
  // Offered load as a share of the pool: solve time per worker-second.
  report.context.push_back(
      {"solve_busy_share",
       JsonNumber(solve_total_ms / (e2e.wall_s * 1e3 * ec.num_workers))});
  tally.Report(&report);
  AddEngineLayers(delta, tally.attempted, overhead_ms, queue_ms, &report);
  AddLayer(&report, "net.roundtrip_p50_ms", 0.0, "ms");
  AddLayer(&report, "net.frames_per_op", 0.0, "count");
  AddLayer(&report, "driver.send_lag_p99_ms", ExactQuantile(send_lag, 0.99).value,
           "ms");
  AppendSolveShares(solve_by_case, &report);
  AppendHistogramContext(engine, &report);
  report.context.push_back({"engine_workers", std::to_string(ec.num_workers)});
  report.context.push_back({"offered_rate_per_s", JsonNumber(kOpenRate)});
  report.context.push_back({"issued", std::to_string(n)});

  if (cfg.trace) {
    adp::CompletionQueue tcq;
    TraceHooks hooks;
    hooks.layers = [&](const Op& op, SpanLog& log, int root, int id,
                       adp::AdpStats* stats, int* root_case) {
      if (op.kind == OpKind::kCancel || op.kind == OpKind::kExpired) return;
      const Pair& p = w.pairs[op.pair];
      const Family& f = w.families[p.family];
      *root_case = CaseIndex(f.root_case);
      if (op.kind == OpKind::kText) ReplayColdPath(log, root, id, f);
      ReplaySolve(log, root, id, f, *s.prepared[p.family].plan(), p.k,
                  /*par=*/nullptr, stats);  // sharding is off here
    };
    hooks.real = [&](const Op& op) {
      const Pair& p = w.pairs[op.pair];
      if (op.kind == OpKind::kStream) {
        adp::ResultStream stream = engine.StreamAdp(s.prepared[p.family], p.k);
        Drain(stream, Clock::now());
        return;
      }
      adp::AdpRequest req =
          op.kind == OpKind::kText ? text_request(p) : prepared_request(p);
      if (op.kind == OpKind::kExpired) {
        req.deadline = Clock::now() - std::chrono::milliseconds(1);
      }
      adp::AdpTicket ticket = engine.SubmitToQueue(std::move(req), tcq, 0);
      if (op.kind == OpKind::kCancel) ticket.Cancel();
      tcq.Next();
    };
    RunTracedPass(w, hooks, cfg.span_dir, &report);
  }
  return report;
}

}  // namespace adpbench
