// AdpEngine: a concurrent, plan-caching evaluation engine for ADP requests.
//
// The engine separates the two halves of an ADP(Q, D, k) computation:
//
//   static   — parse, selection pushdown (query side), dichotomy verdict,
//              linearization, Algorithm-2 dispatch tree. Query-complexity
//              work, independent of the data; memoized in a PlanCache keyed
//              by query text / canonical fingerprint (plus the option knobs
//              that influence classification), and pinnable ahead of time
//              via Prepare() -> PreparedQuery.
//   dynamic  — the data-dependent solve (ComputeAdp with AdpOptions::plan
//              set), run on a fixed-size worker pool.
//
// Databases are registered once and interned as shared immutable instances;
// per-(query, database) positional bindings are cached too, so a batch of
// requests against one database shares a single bound copy. A
// PreparedQuery::Bind pins one binding into the handle, so the
// prepare-once / execute-many hot path performs no key derivation, plan
// probes, or binding probes at all.
//
// Failures are typed: every AdpResponse carries a Status (engine/status.h)
// whose code distinguishes parse errors, unknown databases/relations,
// cancellation, deadline expiry, and shutdown. Factory entry points
// (Prepare) return StatusOr.
//
// Mechanisms that keep the pool busy and the work deduplicated:
//
//   * intra-request sharding — one large request's Universe partition
//     groups (Algorithm 4) and Decompose connected components (Algorithm 5)
//     are fanned out across the pool via ThreadPool::RunAll
//     (EngineConfig::min_shard_groups / min_shard_components);
//   * async submission — Submit (future), SubmitAsync (callback), and
//     SubmitToQueue (tagged CompletionQueue) all return an AdpTicket
//     supporting Cancel(); AdpRequest::deadline bounds queue wait + solve;
//   * single-flight solve dedup — identical concurrent (plan key, db, k,
//     solve knobs, trace flag) requests share one solve
//     (AdpResponse::deduped), whether they arrive as text or through a
//     PreparedQuery; the shared solve is cancelled only when every
//     participant cancels. Requests with deletion restrictions never share;
//   * coalescing admission — with EngineConfig::coalesce_window_ms > 0,
//     a request identical to one that *completed* within the window is
//     served from a small recent-results ring without re-solving
//     (AdpResponse::coalesced, EngineCounters::coalesce_hits);
//   * streaming enumeration — StreamAdp runs the same request pipeline and
//     solver entry point as Execute, and delivers the ranked profile
//     (k = 1..K) and witness set incrementally through a backpressured
//     ResultStream instead of one monolithic response
//     (engine/result_stream.h, docs/STREAMING.md).
//
// Thread safety: all public methods are safe to call concurrently,
// including from inside engine callbacks (nested submissions run inline
// rather than deadlocking the pool).
//
//   AdpEngine engine({.num_workers = 4});
//   DbId db = engine.RegisterDatabase(std::move(named_db));
//   auto prepared = engine.Prepare("Q(A) :- R1(A,B), R2(B)");
//   if (!prepared.ok()) return StatusExitCode(prepared.status().code());
//   prepared->Bind(db);
//   AdpResponse r = engine.Execute(*prepared, /*k=*/2);

#ifndef ADP_ENGINE_ENGINE_H_
#define ADP_ENGINE_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/completion_queue.h"
#include "engine/plan_cache.h"
#include "engine/request.h"
#include "engine/result_stream.h"
#include "engine/status.h"
#include "engine/thread_pool.h"
#include "engine/ticket.h"
#include "relational/database.h"
#include "util/stopwatch.h"

namespace adp {

namespace obs {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
class TraceSink;
}  // namespace obs

/// A database whose relations are addressed by name. `relation_names` is
/// parallel to `db`'s instances; at request time each body atom of the
/// query is bound to the instance with the matching name. A query naming a
/// relation the database does not have fails with kUnknownRelation —
/// silently binding an empty instance would turn a typo into a wrong
/// answer.
/// When `relation_names` is empty the database is *positional*: it must
/// align with the query body index-for-index and is shared without copying.
struct NamedDatabase {
  std::vector<std::string> relation_names;
  Database db;
};

struct EngineConfig {
  /// Worker threads executing solves. Clamped to >= 1.
  int num_workers = 4;

  /// PlanCache capacity (0 = unbounded).
  std::size_t plan_cache_capacity = 1024;

  /// Binding-cache capacity in entries (0 = unbounded). One entry per
  /// (database, query-shape) pair.
  std::size_t binding_cache_capacity = 4096;

  /// Intra-request sharding, Universe axis: a Universe node with at least
  /// this many partition groups fans its sub-solves out across the worker
  /// pool (Parallelism::min_groups). 0 disables Universe sharding.
  std::size_t min_shard_groups = 4;

  /// Intra-request sharding, Decompose axis: a Decompose node with at
  /// least this many connected components fans its per-component
  /// sub-solves out across the worker pool (Parallelism::min_components);
  /// the cross-product DP combining their profiles stays on the solving
  /// thread. 0 disables Decompose sharding. With both axes 0 every request
  /// runs single-threaded, parallel only across requests.
  std::size_t min_shard_components = 4;

  /// Dedup-aware admission window: a request identical to one that
  /// completed successfully within the last `coalesce_window_ms`
  /// milliseconds is answered from a small recent-results ring instead of
  /// re-solving. 0 disables coalescing (every request solves, modulo
  /// in-flight dedup). Serving a result up to this stale must be
  /// acceptable to the caller.
  double coalesce_window_ms = 0.0;

  /// StreamAdp: maximum witness tuples per kWitnesses StreamItem. Larger
  /// batches amortize per-item overhead; smaller ones bound per-item memory
  /// and tighten backpressure. 0 delivers the whole witness set as one
  /// batch. See docs/STREAMING.md.
  std::size_t stream_batch_tuples = 256;

  /// Load-shedding admission bound: an async request (Submit / SubmitAsync /
  /// SubmitToQueue / StreamAdp) arriving while more than this many tasks
  /// wait on the pool queue is rejected with kOverloaded instead of being
  /// enqueued (EngineCounters::shed). Synchronous Execute is never shed —
  /// it occupies the caller's thread, not a queue slot. 0 = unbounded
  /// (never shed).
  std::size_t max_queue_depth = 0;
};

/// Monotonic counters, snapshot via AdpEngine::counters(): a plain read of
/// the engine's MetricsRegistry (obs/metrics.h), the only place the engine
/// counts — see metrics() for the registry itself, which additionally
/// carries the latency histograms.
struct EngineCounters {
  /// Requests admitted — counted whatever the outcome, except kShutdown
  /// rejections (the engine is no longer serving).
  std::uint64_t requests = 0;
  /// Responses with a genuine error status (parse, unknown db/relation,
  /// invalid prepared handle, internal). Cancelled / expired requests are
  /// counted separately.
  std::uint64_t failures = 0;
  std::uint64_t plan_hits = 0;
  std::uint64_t plan_misses = 0;
  std::uint64_t binding_hits = 0;
  std::uint64_t binding_misses = 0;
  /// Requests served by joining an identical in-flight solve (the solve ran
  /// once; these received copies).
  std::uint64_t dedup_hits = 0;
  /// Requests served from the recent-results ring (coalescing admission).
  std::uint64_t coalesce_hits = 0;
  /// Requests whose response was kCancelled (AdpTicket::Cancel won).
  std::uint64_t cancelled = 0;
  /// Requests whose response was kDeadlineExceeded.
  std::uint64_t deadline_expired = 0;
  /// Requests and streams rejected at admission with kOverloaded because
  /// the pool queue exceeded EngineConfig::max_queue_depth. Shed requests
  /// count in `requests` (they were offered) but not in `failures`.
  std::uint64_t shed = 0;
  /// Rollup of AdpStats::sharded_universe_nodes across completed solves:
  /// Universe nodes whose partition groups fanned out across the pool.
  /// Deduped/coalesced responses reuse the leader's solve and do not
  /// re-count its sharded nodes.
  std::uint64_t sharded_universe_nodes = 0;
  /// Rollup of AdpStats::sharded_decompose_nodes across completed solves:
  /// Decompose nodes whose component sub-solves fanned out across the pool.
  std::uint64_t sharded_decompose_nodes = 0;
  /// StreamAdp calls admitted, whatever their outcome (kShutdown rejections
  /// excepted, mirroring `requests`). Streams are counted here, not in
  /// `requests` — they are not request/response traffic.
  std::uint64_t streams_opened = 0;
  /// StreamItems delivered into stream buffers, terminal items included.
  std::uint64_t stream_items = 0;
  /// Streams torn down before a natural end: terminal status kCancelled
  /// (explicit Cancel/Close), kDeadlineExceeded, or kShutdown.
  std::uint64_t stream_cancelled = 0;
  std::size_t plan_cache_size = 0;
  std::size_t databases = 0;
};

class AdpEngine {
 public:
  explicit AdpEngine(const EngineConfig& config = {});
  ~AdpEngine();

  AdpEngine(const AdpEngine&) = delete;
  AdpEngine& operator=(const AdpEngine&) = delete;

  // --- Databases -----------------------------------------------------------

  /// Interns `db` and returns its handle. The instance is immutable from
  /// here on and shared by every request that names it.
  DbId RegisterDatabase(NamedDatabase db);

  /// Convenience: positional database (see NamedDatabase).
  DbId RegisterDatabase(Database db);

  /// The interned database, or nullptr for an unknown id.
  std::shared_ptr<const NamedDatabase> database(DbId id) const;

  /// Releases the database behind `id`: subsequent lookups fail with
  /// kUnknownDatabase — its binding-cache and recent-results entries go
  /// with it — and the instance's memory is freed once the last in-flight
  /// request (or bound PreparedQuery) holding it finishes. Ids are never
  /// reused, so a stale id can only ever miss — it cannot alias a later
  /// registration.
  /// Returns false for an unknown or already-released id. Long-lived
  /// front ends (the network server) call this when a session's
  /// databases go out of scope so registrations don't accumulate.
  bool UnregisterDatabase(DbId id);

  // --- Prepared queries ----------------------------------------------------

  /// Builds (or fetches from the plan cache) the static work for the query
  /// and returns a handle pinning it. `options` matters only through its
  /// classification-relevant knobs (use_singleton, universe_strategy,
  /// presence of restrictions); executions through the handle must use
  /// options agreeing on those knobs, or fail with kInvalidArgument.
  /// Call PreparedQuery::Bind(db) afterwards to also pin the binding.
  StatusOr<PreparedQuery> Prepare(const std::string& query_text,
                                  const AdpOptions& options = {});
  StatusOr<PreparedQuery> Prepare(const ConjunctiveQuery& query,
                                  const AdpOptions& options = {});

  /// Batched Prepare: the static work for every query text under one cache
  /// pass — duplicate texts (same plan key) resolve the plan cache once and
  /// share the plan object. All-or-nothing: the first failing query's
  /// Status is returned and no handles are. Handles are positionally
  /// aligned with `query_texts`.
  StatusOr<std::vector<PreparedQuery>> PrepareBatch(
      std::span<const std::string> query_texts, const AdpOptions& options = {});

  // --- Requests ------------------------------------------------------------

  /// Runs `req` synchronously in the calling thread. Never throws: failures
  /// are reported via AdpResponse::status. Leads the single-flight entry
  /// when none exists (concurrent async arrivals then share this solve) but
  /// never *joins* one — an in-flight leader may still be queued behind
  /// other work, and the sync path keeps one-solve latency.
  AdpResponse Execute(const AdpRequest& req);

  /// Prepared-handle hot path: no key derivation, no cache probes.
  AdpResponse Execute(const PreparedQuery& prepared, std::int64_t k,
                      const AdpOptions& options = {});

  /// Enqueues `req` on the worker pool. An identical in-flight request is
  /// joined instead of enqueued (the returned future then completes with a
  /// copy of the leader's response, deduped = true). If `ticket` is
  /// non-null it receives the request's cancellation handle.
  std::future<AdpResponse> Submit(AdpRequest req, AdpTicket* ticket = nullptr);

  /// Prepared-handle variant of Submit.
  std::future<AdpResponse> Submit(const PreparedQuery& prepared,
                                  std::int64_t k,
                                  const AdpOptions& options = {},
                                  AdpTicket* ticket = nullptr);

  /// Enqueues `req`; `done` is invoked exactly once with the response —
  /// by the worker that completed it, by the deduped leader's completion,
  /// or by AdpTicket::Cancel / deadline expiry (failures arrive as a
  /// response with the matching Status, never as an exception). When called
  /// from inside a pool worker the request runs — and `done` fires — inline
  /// before SubmitAsync returns. `done` should not throw; an exception
  /// escaping it is caught and dropped. Returns the request's ticket.
  AdpTicket SubmitAsync(AdpRequest req, std::function<void(AdpResponse)> done);

  /// Enqueues `req`; on completion (including cancellation/expiry) pushes
  /// {tag, response} onto `cq`. `cq` must outlive the submission (consume
  /// with Poll/Next/Drain). Returns the request's ticket.
  AdpTicket SubmitToQueue(AdpRequest req, CompletionQueue& cq,
                          std::uint64_t tag);

  /// Runs a batch on the worker pool and returns responses in request
  /// order (blocking). Safe to call from inside a pool worker.
  std::vector<AdpResponse> ExecuteBatch(std::vector<AdpRequest> reqs);

  // --- Streaming ----------------------------------------------------------

  /// Streaming ranked-witness enumeration: runs ONE solve for `req` on the
  /// worker pool — the same pipeline and solver entry point as Execute —
  /// and returns immediately with a ResultStream that yields
  /// kProfile items for k = 1..req.k (ascending, from the single DP —
  /// never per-k re-solves), then the final target's witness set in
  /// batches of EngineConfig::stream_batch_tuples, then a terminal kEnd
  /// item. Concatenated, the stream reproduces Execute(req)'s AdpSolution
  /// exactly (witness batches arrive in enumeration order and normalize to
  /// AdpSolution::tuples). Streams are cancellable (ResultStream::Cancel/Close),
  /// deadline-aware (req.deadline), closed by Shutdown() (terminal
  /// kShutdown), and never dedup/coalesce with other requests — every
  /// stream is its own solve. Item ordering, backpressure, and teardown
  /// semantics: docs/STREAMING.md. When called from inside a pool worker
  /// the stream is produced inline (fully buffered) before returning.
  ResultStream StreamAdp(AdpRequest req);

  /// Prepared-handle hot path variant: no key derivation, no cache probes.
  ResultStream StreamAdp(const PreparedQuery& prepared, std::int64_t k,
                         const AdpOptions& options = {});

  // --- Lifecycle -----------------------------------------------------------

  /// Fail-fast shutdown gate: after this, every new request (and Prepare)
  /// is answered with kShutdown without solving. Requests already admitted
  /// drain normally; the destructor implies a drain either way. Idempotent.
  void Shutdown();

  // --- Introspection -------------------------------------------------------

  EngineCounters counters() const;
  int num_workers() const { return pool_.num_threads(); }

  /// The engine's metrics registry — the only store of its counts: the
  /// counters and gauges behind counters(), plus the latency histograms
  /// (adp_request_latency_ms, adp_queue_wait_ms, adp_solve_ms,
  /// adp_stream_first_item_ms — src/obs/names.h). Every instrument is
  /// current at all times; no read needs a preceding call. The reference
  /// is valid only for the engine's lifetime; callers that must read the
  /// registry after the engine is gone (bench harness, a restarted
  /// adp_server) take shared ownership via metrics_shared() instead.
  obs::MetricsRegistry& metrics() const;
  std::shared_ptr<obs::MetricsRegistry> metrics_shared() const;

  /// Prometheus text exposition (0.0.4) of the full registry. Backs the
  /// adp_server METRICS command.
  void WriteMetricsText(std::ostream& out) const;

  /// Drops the plan cache, the binding cache, and the recent-results ring.
  /// In-flight requests and PreparedQuery handles keep the shared
  /// plans/bindings they already hold; later requests rebuild.
  void ClearCaches();

  /// The cached plan a request would use, building it on demand; nullptr
  /// with `status` filled on failure. Useful for EXPLAIN-style tools.
  std::shared_ptr<const CachedPlan> PlanFor(const AdpRequest& req,
                                            Status* status = nullptr);

 private:
  friend class PreparedQuery;

  /// The two cache identities of one request. `solve` is built from values
  /// only — plan key, DbId, k, solve knobs, trace flag — so text and
  /// prepared requests for the same work share it, and it is empty for
  /// requests that must never share a solve (deletion restrictions).
  struct RequestKeys {
    std::string plan;   // plan-cache key (empty for prepared handles)
    std::string solve;  // single-flight dedup / coalesce key
  };

  /// A solve shared by every identical request that arrived while it was
  /// in flight. Tickets are registered and the map entry erased under mu_,
  /// so a joiner either sees the entry (and its delivery fires at publish)
  /// or becomes the next leader.
  struct InflightSolve {
    std::shared_ptr<internal::TicketImpl> leader;  // null for sync leaders
    std::vector<std::shared_ptr<internal::TicketImpl>> followers;
    std::shared_ptr<internal::SolveCancelGroup> group;
  };

  /// One completed solve, kept for coalescing admission. `db` lets
  /// UnregisterDatabase drop the entries of a released database.
  struct RecentResult {
    std::string key;
    DbId db = kInvalidDbId;
    MonotonicClock::time_point completed;
    std::shared_ptr<const AdpResponse> response;
  };

  /// The static work of one request: its plan and, for a bound
  /// PreparedQuery, the pinned binding (null otherwise).
  struct StaticWork {
    std::shared_ptr<const CachedPlan> plan;
    std::shared_ptr<const Database> bound;
    bool plan_cache_hit = false;  // served without building
    double plan_ms = 0.0;
  };

  RequestKeys KeysFor(const AdpRequest& req) const;

  /// kInvalidArgument when req.prepared belongs to another engine or its
  /// classification knobs disagree with req.options; OK otherwise.
  Status ValidatePrepared(const AdpRequest& req) const;

  StatusOr<PreparedQuery> PrepareRequest(const AdpRequest& req);

  /// Pins the binding for `db` into `prepared` (PreparedQuery::Bind body).
  Status BindPrepared(PreparedQuery& prepared, DbId db);

  /// Plan-cache lookup, counted into adp_plan_cache_{hits,misses}_total.
  std::shared_ptr<const CachedPlan> GetPlan(const AdpRequest& req,
                                            const std::string& plan_key,
                                            bool* hit);
  std::shared_ptr<const Database> BindDatabase(
      DbId id, const std::shared_ptr<const NamedDatabase>& named,
      const CachedPlan& plan);

  /// Request admission shared by Execute and SubmitAsync: the shutdown
  /// gate (kShutdown, not counted), request counting, prepared-handle
  /// validation (counted as a failure), and the recent-results probe.
  /// Returns the response when admission already answers the request — a
  /// coalesced hit is deep-copied outside the engine lock.
  std::optional<AdpResponse> Admit(const AdpRequest& req,
                                   const std::string& solve_key);

  /// Builds the recent-results ring entry for (req, resp), or nullopt when
  /// the result must not be remembered: coalescing disabled, a failed
  /// response, or a request that never shares (empty `solve_key`). Called
  /// outside mu_ (deep-copies `resp`).
  std::optional<RecentResult> MakeRecent(const AdpRequest& req,
                                         const std::string& solve_key,
                                         const AdpResponse& resp) const;

  /// The one request pipeline behind Execute, the async paths, and
  /// StreamAdp: trace set-up (the origin backdated by `queue_wait_ms`, so
  /// a synthetic adp.queue span covers the wait), the cancel check, plan
  /// and binding resolution, one ComputeAdp, the adp_solve_ms histogram,
  /// the sharding roll-up, and the mapping of failures to a Status —
  /// without dedup or request counting. `plan_key` is unused for prepared
  /// handles; `cancel`, when non-null, is polled by the solver recursion.
  /// With `progress` set the run is a stream producer: per-k results go
  /// through it, the root span is adp.stream, and the outcome is the
  /// stream's (not counted in failures or request latency).
  AdpResponse SolveNow(const AdpRequest& req, const std::string& plan_key,
                       const CancelToken* cancel, double queue_wait_ms = 0.0,
                       const AdpProgress* progress = nullptr);

  /// The plan (prepared pin, or plan-cache probe) of `req`, inside an
  /// adp.plan span. Throws ParseError on failure.
  StaticWork ResolveStatic(const AdpRequest& req, const std::string& plan_key,
                           obs::TraceSink* sink, std::uint32_t trace_parent);

  /// The database binding of `req` for `plan`, inside an adp.bind span.
  /// Throws EngineError (unknown database / relation, oversized instance).
  std::shared_ptr<const Database> BindRequest(const AdpRequest& req,
                                              const CachedPlan& plan,
                                              obs::TraceSink* sink,
                                              std::uint32_t trace_parent);

  /// Stream producer body: SolveNow with per-k callbacks that emit
  /// profile/witness items into `state`, always ending with a terminal kEnd
  /// item. Runs on a pool worker (or inline for nested calls).
  void RunStream(const AdpRequest& req,
                 const std::shared_ptr<internal::StreamState>& state);

  /// Fires the cancel token of every still-open stream with the shutdown
  /// flag set, so producers end promptly with terminal kShutdown. Called by
  /// Shutdown() and the destructor (before the pool joins).
  void CancelOpenStreams();

  /// Execute minus the terminal cancelled/expired counter bump (so the
  /// inline SubmitAsync path can count through Deliver instead).
  AdpResponse ExecuteImpl(const AdpRequest& req);

  /// Probes the single-flight table under mu_. Returns a fresh in-flight
  /// record when this request becomes the leader for `key` (ticket may be
  /// null: sync leaders have no cancellation handle), else null — either
  /// `ticket` joined the existing entry as a follower (its delivery fires
  /// with the leader's response, deduped set; counted in dedup_hits), or
  /// the caller was synchronous and solves independently. An entry whose
  /// shared solve has already been cancelled is replaced, never joined. An
  /// empty `key` always leads a record that no other request can find.
  std::shared_ptr<InflightSolve> LeadOrJoin(
      const std::string& key,
      const std::shared_ptr<internal::TicketImpl>& ticket,
      const std::optional<std::chrono::steady_clock::time_point>& deadline);

  /// Leader side: retires the entry, remembers `recent` (if any, and its
  /// database is still registered) for coalescing, and delivers to the
  /// leader's and every follower's ticket.
  void PublishInflight(const std::string& key,
                       const std::shared_ptr<InflightSolve>& state,
                       const AdpResponse& resp,
                       std::optional<RecentResult> recent);

  bool IsShutdown() const;

  const EngineConfig config_;
  PlanCache plan_cache_;
  Parallelism sharding_;  // run_all bound to pool_; unset if disabled

  /// The metrics registry (obs/metrics.h), the engine's only counter
  /// store. The instrument pointers below point straight into it — their
  /// updates are lock-free relaxed atomics, so none of them need mu_.
  /// shared_ptr: metrics_shared() lets callers (bench harness, adp_server)
  /// keep the registry alive past a restarted engine, and tickets and
  /// streams — which may outlive the engine too — hold the counters they
  /// bump through shared_ptrs aliasing it.
  std::shared_ptr<obs::MetricsRegistry> registry_;
  obs::Counter* requests_ = nullptr;
  obs::Counter* failures_ = nullptr;
  obs::Counter* plan_hits_ = nullptr;
  obs::Counter* plan_misses_ = nullptr;
  obs::Counter* binding_hits_ = nullptr;
  obs::Counter* binding_misses_ = nullptr;
  obs::Counter* dedup_hits_ = nullptr;
  obs::Counter* coalesce_hits_ = nullptr;
  obs::Counter* shed_ = nullptr;
  obs::Counter* sharded_universe_nodes_ = nullptr;
  obs::Counter* sharded_decompose_nodes_ = nullptr;
  obs::Counter* streams_opened_ = nullptr;
  obs::Counter* traces_collected_ = nullptr;
  std::shared_ptr<obs::Counter> cancelled_;
  std::shared_ptr<obs::Counter> deadline_expired_;
  std::shared_ptr<obs::Counter> stream_items_;
  std::shared_ptr<obs::Counter> stream_cancelled_;
  obs::Gauge* plan_cache_size_ = nullptr;
  obs::Gauge* registered_dbs_ = nullptr;
  obs::Histogram* request_latency_ms_ = nullptr;
  obs::Histogram* queue_wait_ms_ = nullptr;
  obs::Histogram* solve_ms_ = nullptr;
  obs::Histogram* stream_first_item_ms_ = nullptr;

  mutable std::mutex mu_;  // guards databases_, next_db_id_, bindings_,
                           // inflight_, recent_, streams_, shutdown_
  std::unordered_map<DbId, std::shared_ptr<const NamedDatabase>> databases_;
  DbId next_db_id_ = 0;  // ids are never reused: a released id stays dead
  /// Binding cache, keyed on (DbId, body relation names).
  std::unordered_map<std::string, std::shared_ptr<const Database>> bindings_;
  std::unordered_map<std::string, std::shared_ptr<InflightSolve>> inflight_;
  std::deque<RecentResult> recent_;  // newest at back; bounded ring
  std::vector<std::weak_ptr<internal::StreamState>> streams_;  // open streams
  bool shutdown_ = false;

  ThreadPool pool_;  // last member: workers must die before state above
};

}  // namespace adp

#endif  // ADP_ENGINE_ENGINE_H_
