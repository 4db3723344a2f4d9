// light_net: a closed loop over a loopback AdpNetServer with two
// connections, mixing text REQ, EXEC on PREPAREd handles, drained STREAMs
// and same-content DB re-registrations.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <thread>

#include "net/client.h"
#include "net/server.h"
#include "net/textproto.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "runner.h"

namespace adpbench {

namespace {

constexpr int kConnections = 2;
/// STREAM witness batch size the replay formats (EngineConfig default).
constexpr std::size_t kBatch = adp::EngineConfig{}.stream_batch_tuples;

using adp::net::FrameType;

struct Conn {
  adp::net::AdpNetClient client;
  std::vector<std::int64_t> handles;  // PREPAREd handle per family
};

/// Declared so destruction runs clients, then server, then engine.
struct NetServed {
  std::unique_ptr<adp::AdpEngine> engine;
  std::unique_ptr<adp::net::AdpNetServer> server;
  std::vector<Conn> conns;
};

std::string Body(const adp::net::Frame& f) {
  std::int64_t id = 0;
  std::string rest;
  adp::net::SplitCorrelationId(f.payload, &id, &rest);
  return rest;
}

std::string DbName(int family) { return "f" + std::to_string(family); }

/// The request line of one op ("REQ f0 12 Q(...)", "EXEC 3 f0 12", ...).
std::string RequestLine(const Workload& w, const Conn& c, const Op& op) {
  const Pair& p = w.pairs[op.pair];
  const Family& f = w.families[p.family];
  const std::string k = std::to_string(p.k);
  switch (op.kind) {
    case OpKind::kText:
      return "REQ " + DbName(p.family) + " " + k + " " + f.query_text;
    case OpKind::kPrepared:
      return "EXEC " + std::to_string(c.handles[p.family]) + " " +
             DbName(p.family) + " " + k;
    case OpKind::kStream:
      return "STREAM " + DbName(p.family) + " " + k + " " + f.query_text;
    case OpKind::kDbReload:
      return f.db_line;
    default:
      throw std::logic_error("light_net: unexpected op kind");
  }
}

FrameType RequestType(OpKind k) {
  switch (k) {
    case OpKind::kText: return FrameType::kReq;
    case OpKind::kPrepared: return FrameType::kExec;
    case OpKind::kStream: return FrameType::kStream;
    default: return FrameType::kDb;
  }
}

/// Result of one op over the wire.
struct NetOutcome {
  bool ok = false;       // expected frame sequence and status
  bool checked = false;  // carries an answer to compare
  std::string error;
  Answer answer;
  double first_item_ms = -1.0;
  LineTimings timings;
};

/// Sends `op` on `c` and reads its reply frames to the end. Latency is the
/// caller's; decoding happens after the last frame arrives.
NetOutcome Perform(const Workload& w, Conn& c, const Op& op,
                   Clock::time_point* done) {
  NetOutcome out;
  const Pair& p = w.pairs[op.pair];
  const adp::ConjunctiveQuery& q = w.families[p.family].query;
  const std::int64_t id = c.client.NextId();
  const Clock::time_point sent = Clock::now();
  if (!c.client.Send(RequestType(op.kind), id, RequestLine(w, c, op))) {
    out.error = "send: " + c.client.error();
    *done = Clock::now();
    return out;
  }
  if (op.kind != OpKind::kStream) {
    std::optional<adp::net::Frame> f = c.client.WaitReply(id);
    *done = Clock::now();
    if (!f) {
      out.error = "transport: " + c.client.error();
    } else if (op.kind == OpKind::kDbReload) {
      out.ok = f->type == FrameType::kDbOk;
      if (!out.ok) out.error = "DB reply " + Body(*f);
    } else if (f->type != FrameType::kResult) {
      out.error = "reply " + Body(*f);
    } else {
      out.checked = true;
      out.ok = DecodeResultLine(Body(*f), q, &out.answer, &out.error,
                                &out.timings);
    }
    return out;
  }
  StreamChecker ck;
  std::vector<std::string> lines;
  for (;;) {
    std::optional<adp::net::Frame> f = c.client.WaitReply(id);
    if (!f) {
      out.error = "transport: " + c.client.error();
      *done = Clock::now();
      return out;
    }
    if (out.first_item_ms < 0) out.first_item_ms = MsBetween(sent, Clock::now());
    if (f->type == FrameType::kStreamEnd) {
      *done = Clock::now();
      lines.push_back(Body(*f));
      break;
    }
    if (f->type != FrameType::kStreamItem) {
      *done = Clock::now();
      out.error = "stream reply " + Body(*f);
      return out;
    }
    lines.push_back(Body(*f));
  }
  for (std::size_t i = 0; i < lines.size(); ++i) {
    ck.AddLine(lines[i], q, i + 1 == lines.size());
  }
  out.checked = true;
  out.ok = ck.ok();
  out.error = ck.error();
  if (out.ok) out.answer = ck.answer();
  // The terminal line carries the engine timings too.
  const std::string& end = lines.back();
  const std::size_t at = end.find("\"solve_ms\":");
  if (at != std::string::npos) out.timings.solve_ms = std::stod(end.substr(at + 11));
  const std::size_t qt = end.find("\"queue_ms\":");
  if (qt != std::string::npos) out.timings.queue_ms = std::stod(end.substr(qt + 11));
  return out;
}

/// Connects and registers every family database and PREPAREs every query.
Conn Connect(const Workload& w, int port) {
  Conn c;
  if (!c.client.Connect("127.0.0.1", port)) {
    throw std::runtime_error("connect: " + c.client.error());
  }
  for (std::size_t i = 0; i < w.families.size(); ++i) {
    std::string body;
    std::optional<adp::net::Frame> f =
        c.client.Call(FrameType::kDb, w.families[i].db_line, &body);
    if (!f || f->type != FrameType::kDbOk) {
      throw std::runtime_error("DB frame rejected: " + body);
    }
    f = c.client.Call(FrameType::kPrepare, "PREPARE " + w.families[i].query_text,
                      &body);
    const std::size_t at = body.find("\"prepared\":");
    if (!f || f->type != FrameType::kPrepared || at == std::string::npos) {
      throw std::runtime_error("PREPARE rejected: " + body);
    }
    c.handles.push_back(std::stoll(body.substr(at + 11)));
  }
  return c;
}

struct ClientResult {
  Tally tally;
  std::vector<double> latency, roundtrip, first_item, overhead, queue_ms;
  std::vector<double> solve_by_case = std::vector<double>(5, 0.0);
};

void ClientLoop(const Workload& w, Conn& c, const std::vector<Op>& plan,
                Clock::time_point end, ClientResult* r) {
  Clock::time_point now = Clock::now();
  for (std::size_t i = 0; now < end; ++i) {
    const Op& op = plan[i % plan.size()];
    const Pair& p = w.pairs[op.pair];
    const Clock::time_point t0 = Clock::now();
    Clock::time_point done;
    const NetOutcome o = Perform(w, c, op, &done);
    now = done;
    const double ms = MsBetween(t0, done);
    r->latency.push_back(ms);
    ++r->tally.attempted;
    if (!o.ok) {
      // A non-OK status is a failure; an OK reply that is malformed or
      // inconsistent (a stream's profile out of order) is a wrong answer.
      const bool status = o.error.rfind("status", 0) == 0 ||
                          o.error.rfind("stream status", 0) == 0;
      if (o.checked && !status) {
        r->tally.Wrong(p, w, o.error);
      } else {
        r->tally.Fail(o.error);
      }
      continue;
    }
    if (!o.checked) {  // DB re-registration
      r->tally.Ok();
      continue;
    }
    if (!r->tally.Check(p, w, o.answer)) continue;
    if (op.kind == OpKind::kStream) {
      r->first_item.push_back(o.first_item_ms);
    } else {
      r->roundtrip.push_back(ms);
      r->overhead.push_back(o.timings.queue_ms + o.timings.total_ms -
                            o.timings.solve_ms);
    }
    r->queue_ms.push_back(o.timings.queue_ms);
    r->solve_by_case[CaseIndex(w.families[p.family].root_case)] +=
        o.timings.solve_ms;
  }
}

std::uint64_t NetFrames(const adp::AdpEngine& engine) {
  adp::obs::MetricsRegistry& reg = engine.metrics();
  return reg.GetCounter(adp::obs::kMNetFramesIn).Value() +
         reg.GetCounter(adp::obs::kMNetFramesOut).Value();
}

}  // namespace

RunReport RunLightNet(const Workload& w, const RunConfig& cfg) {
  RunReport report;
  adp::EngineConfig ec;
  // Client threads + the server loop + engine workers stay within nproc.
  ec.num_workers = std::max(1, cfg.nproc - kConnections - 1);
  EndToEndInputs e2e;

  NetServed s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.conns.clear();
    s.server.reset();
    s.engine = std::make_unique<adp::AdpEngine>(ec);
    s.server = std::make_unique<adp::net::AdpNetServer>(*s.engine);
    const adp::Status started = s.server->Start();
    if (!started.ok()) throw std::runtime_error("server: " + started.message());
    const Clock::time_point t0 = Clock::now();
    for (int c = 0; c < kConnections; ++c) {
      s.conns.push_back(Connect(w, s.server->port()));
    }
    e2e.setup_s.push_back(MsBetween(t0, Clock::now()) / 1e3);
  }
  adp::AdpEngine& engine = *s.engine;

  for (Conn& c : s.conns) {  // warm: one REQ per pair per connection
    for (std::size_t p = 0; p < w.pairs.size(); ++p) {
      Clock::time_point done;
      Perform(w, c, Op{OpKind::kText, static_cast<int>(p)}, &done);
    }
  }

  CounterDelta delta;
  delta.before = engine.counters();
  const std::uint64_t frames_before = NetFrames(engine);
  std::vector<ClientResult> results(kConnections);
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(cfg.seconds));
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back(ClientLoop, std::cref(w), std::ref(s.conns[c]),
                           std::cref(w.plans[c]), end, &results[c]);
    }
    for (std::thread& t : threads) t.join();
  }
  const Clock::time_point stop = Clock::now();
  delta.after = engine.counters();
  const std::uint64_t frames = NetFrames(engine) - frames_before;

  ClientResult all;
  for (ClientResult& r : results) {
    all.tally.Merge(r.tally);
    using Samples = std::vector<double> ClientResult::*;
    for (Samples v : {&ClientResult::latency, &ClientResult::roundtrip,
                      &ClientResult::first_item, &ClientResult::overhead,
                      &ClientResult::queue_ms}) {
      (all.*v).insert((all.*v).end(), (r.*v).begin(), (r.*v).end());
    }
    for (int c = 0; c < 5; ++c) all.solve_by_case[c] += r.solve_by_case[c];
  }
  e2e.latency_ms = all.latency;
  e2e.first_item_ms = all.first_item;
  e2e.attempted = all.tally.attempted;
  e2e.ok = all.tally.ok;
  e2e.wall_s = MsBetween(start, stop) / 1e3;
  AppendEndToEnd(e2e, &report);
  all.tally.Report(&report);
  AddEngineLayers(delta, all.tally.attempted, all.overhead, all.queue_ms, &report);
  AddLayer(&report, "net.roundtrip_p50_ms", Median(all.roundtrip), "ms");
  AddLayer(&report, "net.frames_per_op",
           static_cast<double>(frames) / static_cast<double>(all.tally.attempted),
           "count");
  AddLayer(&report, "driver.send_lag_p99_ms", 0.0, "ms");
  AppendSolveShares(all.solve_by_case, &report);
  AppendHistogramContext(engine, &report);
  report.context.push_back({"engine_workers", std::to_string(ec.num_workers)});
  report.context.push_back({"connections", std::to_string(kConnections)});
  report.context.push_back({"roundtrip_samples", std::to_string(all.roundtrip.size())});

  if (cfg.trace) {
    ReplayParallelism par(ec.num_workers);
    Conn& c = s.conns[0];
    // In-process handles onto the server's cached plans (plan-cache hits),
    // for the replayed solver calls.
    std::vector<adp::PreparedQuery> plans;
    for (const Family& f : w.families) {
      adp::StatusOr<adp::PreparedQuery> prepared = engine.Prepare(f.query_text);
      if (!prepared.ok()) throw std::runtime_error(prepared.status().ToString());
      plans.push_back(*std::move(prepared));
    }
    TraceHooks hooks;
    hooks.layers = [&](const Op& op, SpanLog& log, int root, int id,
                       adp::AdpStats* stats, int* root_case) {
      const Pair& p = w.pairs[op.pair];
      const Family& f = w.families[p.family];
      const std::string line = RequestLine(w, c, op);
      {
        ScopedSpan span(log, "textproto.parse", root, id);
        std::vector<std::string> toks = adp::net::SplitWs(line);
        if (op.kind == OpKind::kDbReload) {
          adp::net::ParseDbLine(toks);
        } else if (op.kind == OpKind::kPrepared) {
          // The server rewrites EXEC as a REQ-shaped line (query "-").
          std::vector<std::string> req = {"EXEC", toks[2], toks[3], "-"};
          adp::net::ParseRequestLine(req, "EXEC", 0);
        } else {
          adp::net::ParseRequestLine(toks, "REQ", 0);
        }
      }
      std::vector<std::pair<FrameType, std::string>> frames = {
          {RequestType(op.kind), std::to_string(id) + " " + line}};
      if (op.kind == OpKind::kDbReload) {
        frames.push_back({FrameType::kDbOk, std::to_string(id) + " {\"db\":\"" +
                                                DbName(p.family) + "\"}"});
      } else {
        *root_case = CaseIndex(f.root_case);
        if (op.kind != OpKind::kPrepared) ReplayColdPath(log, root, id, f);
        adp::AdpResponse resp;
        resp.solution = ReplaySolve(log, root, id, f, *plans[p.family].plan(),
                                    p.k, par.get(), stats);
        ScopedSpan span(log, "textproto.format", root, id);
        const std::string db = DbName(p.family);
        if (op.kind != OpKind::kStream) {
          frames.push_back({FrameType::kResult,
                            std::to_string(id) + " " +
                                adp::net::FormatResponseLine(id, db, p.k, resp,
                                                             &f.query)});
        } else {
          std::size_t items = 0;
          adp::StreamItem item;
          item.kind = adp::StreamItem::Kind::kProfile;
          item.cost = resp.solution.cost;
          for (std::int64_t k = 1; k <= p.k; ++k) {
            item.k = k;
            frames.push_back({FrameType::kStreamItem,
                              std::to_string(id) + " " +
                                  adp::net::FormatStreamItemLine(id, db, item,
                                                                 &f.query, ++items)});
          }
          item.kind = adp::StreamItem::Kind::kWitnesses;
          const std::vector<adp::TupleRef>& t = resp.solution.tuples;
          for (std::size_t b = 0; b < t.size(); b += kBatch) {
            item.witnesses.assign(t.begin() + b,
                                  t.begin() + std::min(t.size(), b + kBatch));
            frames.push_back({FrameType::kStreamItem,
                              std::to_string(id) + " " +
                                  adp::net::FormatStreamItemLine(id, db, item,
                                                                 &f.query, ++items)});
          }
          item.kind = adp::StreamItem::Kind::kEnd;
          item.output_count = resp.solution.output_count;
          frames.push_back({FrameType::kStreamEnd,
                            std::to_string(id) + " " +
                                adp::net::FormatStreamItemLine(id, db, item,
                                                               &f.query, ++items)});
        }
      }
      std::string bytes;
      {
        ScopedSpan span(log, "wire.encode", root, id);
        for (const auto& [type, payload] : frames) {
          if (!adp::net::AppendFrame(bytes, type, payload)) {
            throw std::runtime_error("frame too large");
          }
        }
      }
      {
        ScopedSpan span(log, "wire.decode", root, id);
        adp::net::FrameReader reader;
        reader.Feed(bytes.data(), bytes.size());
        while (reader.Next()) {
        }
      }
    };
    hooks.real = [&](const Op& op) {
      Clock::time_point done;
      Perform(w, c, op, &done);
    };
    RunTracedPass(w, hooks, cfg.span_dir, &report);
  }
  return report;
}

}  // namespace adpbench
