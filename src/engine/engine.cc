#include "engine/engine.h"

#include <algorithm>
#include <ostream>
#include <stdexcept>
#include <utility>

#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "query/fingerprint.h"
#include "query/parser.h"
#include "query/transform.h"
#include "solver/restrictions.h"
#include "util/stopwatch.h"

namespace adp {
namespace {

/// Recent-results ring capacity (coalescing admission). Deliberately tiny:
/// the window is short, and a probe is a linear scan under the engine lock.
constexpr std::size_t kRecentResultsCapacity = 64;

/// Stream buffer capacity, in items. Small on purpose: the buffer exists to
/// decouple producer and consumer, not to hold the result — backpressure
/// (a blocked producer) is the intended steady state for slow consumers.
constexpr std::size_t kStreamBufferItems = 8;

/// Engine-internal failure carrying the Status code the response should
/// surface. Thrown by the resolution steps (database lookup, binding) and
/// mapped back to a Status in SolveNow's catch ladder.
class EngineError : public std::runtime_error {
 public:
  EngineError(StatusCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  StatusCode code() const { return code_; }

 private:
  StatusCode code_;
};

AdpResponse FailureResponse(Status status) {
  AdpResponse resp;
  resp.status = std::move(status);
  return resp;
}

AdpResponse ShutdownResponse() {
  return FailureResponse(Status(StatusCode::kShutdown, "engine is shut down"));
}

/// Response for a request shed at admission: the pool backlog exceeded
/// EngineConfig::max_queue_depth, so enqueueing it would only add latency
/// for everyone. Callers should back off and retry.
AdpResponse OverloadedResponse() {
  return FailureResponse(Status(
      StatusCode::kOverloaded,
      "request shed: worker queue exceeds EngineConfig::max_queue_depth"));
}

/// Response for a request dropped before its solve ever ran (cancelled or
/// expired while queued).
AdpResponse DroppedResponse(CancelReason reason) {
  return FailureResponse(
      reason == CancelReason::kDeadlineExceeded
          ? Status(StatusCode::kDeadlineExceeded,
                   "deadline expired before the solve started")
          : Status(StatusCode::kCancelled,
                   "cancelled before the solve started"));
}

/// The database a request solves against: the bound handle's, else req.db.
DbId TargetDb(const AdpRequest& req) {
  return req.prepared.bound() ? req.prepared.bound_db() : req.db;
}

bool Restricted(const AdpOptions& options) {
  return options.restrictions != nullptr && !options.restrictions->Empty();
}

// Option knobs that influence Algorithm-2 classification (and hence the
// dispatch plan). Part of every plan-cache key so that requests with
// different knobs never share a plan built for the wrong configuration.
std::string OptionBits(const AdpOptions& options) {
  std::string bits;
  bits += options.use_singleton ? 's' : '-';
  bits += options.universe_strategy == AdpOptions::UniverseStrategy::kOneByOne
              ? '1'
              : 'a';
  bits += Restricted(options) ? 'r' : '-';
  return bits;
}

std::string PlanKey(const AdpRequest& req) {
  if (req.query.has_value()) {
    // The canonical key ignores relation names, but requests are solved
    // against plan->query and bound to named databases by relation name —
    // so names must be part of the key, or a structurally identical query
    // over different relations would silently bind the wrong instances.
    std::string key = "q|" + OptionBits(req.options);
    for (int i = 0; i < req.query->num_relations(); ++i) {
      key += '|';
      key += req.query->relation(i).name;
    }
    return key + "|" + CanonicalQueryKey(*req.query);
  }
  return "t|" + OptionBits(req.options) + "|" + req.query_text;
}

// Remaining knobs that influence the *solution* (not just the plan), so two
// requests may share one solve only when these agree too.
std::string SolveBits(const AdpOptions& options) {
  std::string bits;
  bits += options.heuristic == AdpOptions::Heuristic::kDrastic ? 'd' : 'g';
  bits += options.counting_only ? 'c' : '-';
  bits += options.verify ? 'v' : '-';
  bits += options.universe_convex_merge ? 'm' : '-';
  switch (options.decompose_strategy) {
    case AdpOptions::DecomposeStrategy::kImprovedDP: bits += 'i'; break;
    case AdpOptions::DecomposeStrategy::kPairwiseNaive: bits += 'p'; break;
    case AdpOptions::DecomposeStrategy::kFullEnumeration: bits += 'f'; break;
  }
  return bits;
}

std::shared_ptr<const CachedPlan> BuildPlan(const AdpRequest& req) {
  auto plan = std::make_shared<CachedPlan>();
  plan->query = req.query.has_value() ? *req.query : ParseQuery(req.query_text);
  plan->residual =
      plan->query.HasSelections()
          ? RemoveAttributes(plan->query, plan->query.SelectedAttrs())
          : plan->query;
  plan->dispatch = BuildDispatchPlan(plan->residual, req.options);
  // The dispatch build already ran the linearization search for a boolean
  // residual; reuse its result instead of searching again.
  const PlanEntry* root = plan->dispatch.Find(plan->residual);
  plan->verdict = ClassifyResidual(
      plan->residual, root != nullptr && root->op == AdpCase::kBoolean
                          ? root->linear_order
                          : std::nullopt);
  plan->fingerprint = QueryFingerprint(plan->query);
  return plan;
}

/// The request the prepared-handle entry points stand for.
AdpRequest PreparedRequest(const PreparedQuery& prepared, std::int64_t k,
                           const AdpOptions& options) {
  AdpRequest req;
  req.prepared = prepared;
  req.db = prepared.bound_db();
  req.k = k;
  req.options = options;
  return req;
}

/// Maps the exception currently being handled (call only from a catch
/// block) to the Status its response / stream terminal should carry.
Status MapSolveException() {
  try {
    throw;
  } catch (const CancelledError& e) {
    return Status(e.reason() == CancelReason::kDeadlineExceeded
                      ? StatusCode::kDeadlineExceeded
                      : StatusCode::kCancelled,
                  e.what());
  } catch (const ParseError& e) {
    return Status(StatusCode::kParseError, e.what());
  } catch (const EngineError& e) {
    return Status(e.code(), e.what());
  } catch (const std::exception& e) {
    return Status(StatusCode::kInternal, e.what());
  } catch (...) {
    return Status(StatusCode::kInternal, "solve terminated abnormally");
  }
}

}  // namespace

// --- PreparedQuery -----------------------------------------------------------

Status PreparedQuery::Bind(DbId db) {
  if (engine_ == nullptr || plan_ == nullptr) {
    return Status(StatusCode::kInvalidArgument,
                  "Bind on a default-constructed PreparedQuery");
  }
  return engine_->BindPrepared(*this, db);
}

// --- AdpEngine ---------------------------------------------------------------

AdpEngine::AdpEngine(const EngineConfig& config)
    : config_(config),
      plan_cache_(config.plan_cache_capacity),
      registry_(std::make_shared<obs::MetricsRegistry>()),
      pool_(config.num_workers) {
  // Register the engine's instruments once, so exporters see them at zero
  // from the start; the hot paths then update through these stable
  // pointers, lock-free.
  const auto counter = [this](const char* name) {
    return &registry_->GetCounter(name);
  };
  // Counters bumped by tickets and streams, which may outlive the engine.
  const auto shared_counter = [&](const char* name) {
    return std::shared_ptr<obs::Counter>(registry_, counter(name));
  };
  requests_ = counter(obs::kMRequests);
  failures_ = counter(obs::kMFailures);
  plan_hits_ = counter(obs::kMPlanCacheHits);
  plan_misses_ = counter(obs::kMPlanCacheMisses);
  binding_hits_ = counter(obs::kMBindingHits);
  binding_misses_ = counter(obs::kMBindingMisses);
  dedup_hits_ = counter(obs::kMDedupHits);
  coalesce_hits_ = counter(obs::kMCoalesceHits);
  shed_ = counter(obs::kMShed);
  sharded_universe_nodes_ = counter(obs::kMShardedUniverse);
  sharded_decompose_nodes_ = counter(obs::kMShardedDecompose);
  streams_opened_ = counter(obs::kMStreamsOpened);
  traces_collected_ = counter(obs::kMTracesCollected);
  cancelled_ = shared_counter(obs::kMCancelled);
  deadline_expired_ = shared_counter(obs::kMDeadlineExpired);
  stream_items_ = shared_counter(obs::kMStreamItems);
  stream_cancelled_ = shared_counter(obs::kMStreamCancelled);
  plan_cache_size_ = &registry_->GetGauge(obs::kMPlanCacheSize);
  registered_dbs_ = &registry_->GetGauge(obs::kMDatabases);
  request_latency_ms_ = &registry_->GetHistogram(obs::kMRequestLatencyMs);
  queue_wait_ms_ = &registry_->GetHistogram(obs::kMQueueWaitMs);
  solve_ms_ = &registry_->GetHistogram(obs::kMSolveMs);
  stream_first_item_ms_ = &registry_->GetHistogram(obs::kMStreamFirstItemMs);
  if (config_.min_shard_groups > 0 || config_.min_shard_components > 0) {
    // A zero threshold disables that axis inside the solver (see
    // Parallelism); run_all is bound once for whichever axes are live.
    sharding_.min_groups = config_.min_shard_groups;
    sharding_.min_components = config_.min_shard_components;
    sharding_.run_all = [this](std::vector<std::function<void()>> tasks) {
      pool_.RunAll(std::move(tasks));
    };
  }
}

AdpEngine::~AdpEngine() {
  // A stream whose consumer stopped draining would leave its producer
  // blocked on the buffer forever, and the pool (last member) joins its
  // workers below — cancel open streams first so every producer can finish.
  CancelOpenStreams();
}

DbId AdpEngine::RegisterDatabase(NamedDatabase db) {
  if (!db.relation_names.empty() &&
      db.relation_names.size() != db.db.num_relations()) {
    throw std::invalid_argument(
        "RegisterDatabase: relation_names must parallel the instances");
  }
  auto shared = std::make_shared<const NamedDatabase>(std::move(db));
  std::lock_guard<std::mutex> lock(mu_);
  const DbId id = next_db_id_++;
  databases_.emplace(id, std::move(shared));
  registered_dbs_->Set(static_cast<std::int64_t>(databases_.size()));
  return id;
}

DbId AdpEngine::RegisterDatabase(Database db) {
  return RegisterDatabase(NamedDatabase{{}, std::move(db)});
}

std::shared_ptr<const NamedDatabase> AdpEngine::database(DbId id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = databases_.find(id);
  return it == databases_.end() ? nullptr : it->second;
}

bool AdpEngine::UnregisterDatabase(DbId id) {
  std::shared_ptr<const NamedDatabase> victim;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = databases_.find(id);
    if (it == databases_.end()) return false;
    victim = std::move(it->second);
    databases_.erase(it);
    registered_dbs_->Set(static_cast<std::int64_t>(databases_.size()));
    // Cached work for this id would otherwise outlive it: a binding holds
    // the released data, and a remembered result would still answer a
    // request that must now fail with kUnknownDatabase.
    const std::string prefix = std::to_string(id) + '|';
    std::erase_if(bindings_, [&](const auto& entry) {
      return entry.first.starts_with(prefix);
    });
    std::erase_if(recent_,
                  [id](const RecentResult& r) { return r.db == id; });
  }
  // `victim` releases outside the lock; requests still holding the
  // shared_ptr keep the data alive until they finish.
  return true;
}

void AdpEngine::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  CancelOpenStreams();
}

void AdpEngine::CancelOpenStreams() {
  std::vector<std::shared_ptr<internal::StreamState>> open;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& weak : streams_) {
      if (auto state = weak.lock()) open.push_back(std::move(state));
    }
    streams_.clear();
  }
  for (const auto& state : open) {
    // The flag makes the producer's CancelledError surface as kShutdown
    // rather than kCancelled (a deadline that already fired keeps its
    // kDeadlineExceeded reason).
    state->NoteShutdown();
    state->Cancel();
  }
}

bool AdpEngine::IsShutdown() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_;
}

// --- Keys and admission ------------------------------------------------------

AdpEngine::RequestKeys AdpEngine::KeysFor(const AdpRequest& req) const {
  RequestKeys keys;
  if (!req.prepared.valid()) keys.plan = PlanKey(req);
  // Restriction sets are caller-owned and have no value identity: such
  // requests never share a solve.
  if (Restricted(req.options)) return keys;
  // A value key: the prepared handle's pinned plan key equals the text
  // path's, so both paths — and handles prepared before and after a
  // ClearCaches() — share solves.
  std::string& key = keys.solve;
  key = req.prepared.valid() ? req.prepared.plan_key_ : keys.plan;
  key += "|d";
  key += std::to_string(TargetDb(req));
  key += "|k";
  key += std::to_string(req.k);
  key += '|';
  key += SolveBits(req.options);
  // Traced requests must never share a solve with untraced ones: a shared
  // response could carry a trace its joiners did not ask for — or worse,
  // none for the one that did.
  if (req.collect_trace) key += "|T";
  return keys;
}

Status AdpEngine::ValidatePrepared(const AdpRequest& req) const {
  const PreparedQuery& prepared = req.prepared;
  if (prepared.engine_ != this) {
    return Status(StatusCode::kInvalidArgument,
                  "PreparedQuery belongs to a different engine");
  }
  if (OptionBits(req.options) != prepared.option_bits_) {
    return Status(StatusCode::kInvalidArgument,
                  "request options disagree with the PreparedQuery's "
                  "classification knobs (use_singleton / universe_strategy "
                  "/ restrictions); re-Prepare with these options");
  }
  return Status();
}

std::optional<AdpResponse> AdpEngine::Admit(const AdpRequest& req,
                                            const std::string& solve_key) {
  if (IsShutdown()) return ShutdownResponse();
  requests_->Increment();
  if (req.prepared.valid()) {
    Status valid = ValidatePrepared(req);
    if (!valid.ok()) {
      failures_->Increment();
      return FailureResponse(std::move(valid));
    }
  }
  if (config_.coalesce_window_ms <= 0 || solve_key.empty()) {
    return std::nullopt;
  }
  std::shared_ptr<const AdpResponse> hit;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto now = Now();
    // Newest first; the first key match decides (an older match is staler).
    for (auto it = recent_.rbegin(); it != recent_.rend(); ++it) {
      if (it->key != solve_key) continue;
      const double age_ms = MsBetween(it->completed, now);
      if (age_ms > config_.coalesce_window_ms) break;
      coalesce_hits_->Increment();
      hit = it->response;
      break;
    }
  }
  if (hit == nullptr) return std::nullopt;
  // The deep copy (witness tuples can be large) happens outside the lock.
  AdpResponse resp = *hit;
  resp.coalesced = true;
  return resp;
}

std::optional<AdpEngine::RecentResult> AdpEngine::MakeRecent(
    const AdpRequest& req, const std::string& solve_key,
    const AdpResponse& resp) const {
  if (config_.coalesce_window_ms <= 0 || !resp.status.ok() ||
      solve_key.empty()) {
    return std::nullopt;
  }
  RecentResult entry;
  entry.key = solve_key;
  entry.db = TargetDb(req);
  entry.completed = Now();
  entry.response = std::make_shared<const AdpResponse>(resp);
  return entry;
}

// --- Prepared queries --------------------------------------------------------

StatusOr<PreparedQuery> AdpEngine::Prepare(const std::string& query_text,
                                           const AdpOptions& options) {
  AdpRequest req;
  req.query_text = query_text;
  req.options = options;
  return PrepareRequest(req);
}

StatusOr<PreparedQuery> AdpEngine::Prepare(const ConjunctiveQuery& query,
                                           const AdpOptions& options) {
  AdpRequest req;
  req.query = query;
  req.options = options;
  return PrepareRequest(req);
}

StatusOr<PreparedQuery> AdpEngine::PrepareRequest(const AdpRequest& req) {
  if (IsShutdown()) {
    return Status(StatusCode::kShutdown, "engine is shut down");
  }
  const std::string plan_key = PlanKey(req);
  std::shared_ptr<const CachedPlan> plan;
  try {
    plan = GetPlan(req, plan_key, nullptr);
  } catch (const ParseError& e) {
    return Status(StatusCode::kParseError, e.what());
  } catch (const std::exception& e) {
    return Status(StatusCode::kInternal, e.what());
  }
  PreparedQuery prepared;
  prepared.engine_ = this;
  prepared.plan_ = plan;
  prepared.fingerprint_ = plan->fingerprint;
  prepared.plan_key_ = plan_key;
  prepared.option_bits_ = OptionBits(req.options);
  return prepared;
}

StatusOr<std::vector<PreparedQuery>> AdpEngine::PrepareBatch(
    std::span<const std::string> query_texts, const AdpOptions& options) {
  if (IsShutdown()) {
    return Status(StatusCode::kShutdown, "engine is shut down");
  }
  std::vector<PreparedQuery> out;
  out.reserve(query_texts.size());
  // One plan-cache pass per *unique* plan key: duplicates within the batch
  // reuse the already-resolved plan instead of re-probing (and possibly
  // re-parsing under) the shared cache.
  std::unordered_map<std::string, std::shared_ptr<const CachedPlan>> resolved;
  for (const std::string& text : query_texts) {
    AdpRequest req;
    req.query_text = text;
    req.options = options;
    const std::string plan_key = PlanKey(req);
    std::shared_ptr<const CachedPlan> plan;
    auto it = resolved.find(plan_key);
    if (it != resolved.end()) {
      plan = it->second;
    } else {
      try {
        plan = GetPlan(req, plan_key, nullptr);
      } catch (const ParseError& e) {
        return Status(StatusCode::kParseError,
                      std::string(e.what()) + " (batch query " +
                          std::to_string(out.size()) + ")");
      } catch (const std::exception& e) {
        return Status(StatusCode::kInternal, e.what());
      }
      resolved.emplace(plan_key, plan);
    }
    PreparedQuery prepared;
    prepared.engine_ = this;
    prepared.plan_ = plan;
    prepared.fingerprint_ = plan->fingerprint;
    prepared.plan_key_ = plan_key;
    prepared.option_bits_ = OptionBits(options);
    out.push_back(std::move(prepared));
  }
  return out;
}

Status AdpEngine::BindPrepared(PreparedQuery& prepared, DbId db) {
  std::shared_ptr<const NamedDatabase> named = database(db);
  if (named == nullptr) {
    return Status(StatusCode::kUnknownDatabase,
                  "unknown database id " + std::to_string(db));
  }
  std::shared_ptr<const Database> bound;
  try {
    bound = BindDatabase(db, named, *prepared.plan_);
  } catch (const EngineError& e) {
    return Status(e.code(), e.what());
  } catch (const std::exception& e) {
    return Status(StatusCode::kInternal, e.what());
  }
  prepared.bound_ = std::move(bound);
  prepared.db_ = db;
  return Status();
}

// --- Resolution --------------------------------------------------------------

std::shared_ptr<const CachedPlan> AdpEngine::GetPlan(
    const AdpRequest& req, const std::string& plan_key, bool* hit) {
  bool served = false;
  const auto count = [&] {
    if (served) {
      plan_hits_->Increment();
    } else {
      plan_misses_->Increment();
      plan_cache_size_->Set(static_cast<std::int64_t>(plan_cache_.size()));
    }
  };
  std::shared_ptr<const CachedPlan> plan;
  try {
    // GetOrBuild sets `served` before it can throw a failed build.
    plan = plan_cache_.GetOrBuild(
        plan_key, [&req] { return BuildPlan(req); }, &served);
  } catch (...) {
    count();
    throw;
  }
  count();
  if (hit != nullptr) *hit = served;
  return plan;
}

std::shared_ptr<const Database> AdpEngine::BindDatabase(
    DbId id, const std::shared_ptr<const NamedDatabase>& named,
    const CachedPlan& plan) {
  const ConjunctiveQuery& q = plan.query;
  // Row-capacity guard: solutions address tuples as (relation, TupleId) and
  // TupleId is 32-bit, so an instance past RelationInstance::MaxRows() could
  // not be reported against. Surfaces as kInvalidArgument rather than a
  // truncated row id downstream.
  for (std::size_t j = 0; j < named->db.num_relations(); ++j) {
    if (named->db.rel(j).size() > RelationInstance::MaxRows()) {
      throw EngineError(
          StatusCode::kInvalidArgument,
          "relation " + std::to_string(j) + " has " +
              std::to_string(named->db.rel(j).size()) +
              " tuples, past the TupleId capacity (" +
              std::to_string(RelationInstance::MaxRows()) + ")");
    }
  }
  if (named->relation_names.empty()) {
    // Positional database: shared as-is, no copy.
    if (named->db.num_relations() !=
        static_cast<std::size_t>(q.num_relations())) {
      throw EngineError(
          StatusCode::kInvalidArgument,
          "positional database has " +
              std::to_string(named->db.num_relations()) +
              " relations, query has " + std::to_string(q.num_relations()));
    }
    return std::shared_ptr<const Database>(named, &named->db);
  }

  // Named database: bind by relation name, memoized per (DbId, body name
  // sequence) so batches share one bound copy.
  std::string key = std::to_string(id);
  for (int i = 0; i < q.num_relations(); ++i) {
    key += '|';
    key += q.relation(i).name;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = bindings_.find(key);
    if (it != bindings_.end()) {
      binding_hits_->Increment();
      return it->second;
    }
    binding_misses_->Increment();
  }

  auto bound = std::make_shared<Database>(
      static_cast<std::size_t>(q.num_relations()));
  for (int i = 0; i < q.num_relations(); ++i) {
    const std::string& name = q.relation(i).name;
    bool found = false;
    for (std::size_t j = 0; j < named->relation_names.size(); ++j) {
      if (named->relation_names[j] == name) {
        RelationInstance inst = named->db.rel(j);
        inst.set_root_relation(i);
        bound->rel(static_cast<std::size_t>(i)) = std::move(inst);
        found = true;
        break;
      }
    }
    if (!found) {
      // Binding an empty instance here would silently turn a relation-name
      // typo into a wrong (usually zero-output) answer.
      throw EngineError(StatusCode::kUnknownRelation,
                        "database has no relation named '" + name +
                            "' (query body atom " + std::to_string(i) + ")");
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  // A database released meanwhile gets no entry: it would pin freed data.
  if (!databases_.contains(id)) return bound;
  if (config_.binding_cache_capacity != 0 &&
      bindings_.size() >= config_.binding_cache_capacity) {
    bindings_.clear();  // coarse but rare; entries are cheap to rebuild
  }
  auto [it, inserted] = bindings_.emplace(key, std::move(bound));
  return it->second;
}

AdpEngine::StaticWork AdpEngine::ResolveStatic(const AdpRequest& req,
                                                const std::string& plan_key,
                                                obs::TraceSink* sink,
                                                std::uint32_t trace_parent) {
  StaticWork work;
  Stopwatch plan_sw;
  // The plan span covers parsing too — a miss-path BuildPlan parses,
  // classifies, and linearizes inside this scope.
  obs::Span span(sink, obs::kSpanPlan, trace_parent);
  if (req.prepared.valid()) {
    // Prepared hot path: static work pinned, zero plan-cache traffic.
    work.plan = req.prepared.plan_;
    work.bound = req.prepared.bound_;  // null when the handle is unbound
    work.plan_cache_hit = true;
  } else {
    work.plan = GetPlan(req, plan_key, &work.plan_cache_hit);
  }
  span.Tag("cache_hit", std::int64_t{work.plan_cache_hit ? 1 : 0});
  work.plan_ms = plan_sw.ElapsedMs();
  return work;
}

std::shared_ptr<const Database> AdpEngine::BindRequest(
    const AdpRequest& req, const CachedPlan& plan, obs::TraceSink* sink,
    std::uint32_t trace_parent) {
  obs::Span span(sink, obs::kSpanBind, trace_parent);
  const std::shared_ptr<const NamedDatabase> named = database(req.db);
  if (named == nullptr) {
    throw EngineError(StatusCode::kUnknownDatabase,
                      "unknown database id " + std::to_string(req.db));
  }
  return BindDatabase(req.db, named, plan);
}

AdpResponse AdpEngine::SolveNow(const AdpRequest& req,
                                const std::string& plan_key,
                                const CancelToken* cancel,
                                double queue_wait_ms,
                                const AdpProgress* progress) {
  AdpResponse resp;
  resp.queue_ms = queue_wait_ms;
  Stopwatch total;
  std::unique_ptr<obs::TraceSink> sink;
  obs::Span root;
  if (req.collect_trace) {
    // The origin is backdated by the queue wait so the synthetic adp.queue
    // span below starts at t=0 and the trace covers the request's full
    // wall time, not just the post-dequeue part.
    sink = std::make_unique<obs::TraceSink>(obs::TraceSink::kDefaultMaxSpans,
                                            queue_wait_ms);
    if (queue_wait_ms > 0.0) {
      sink->AddCompleteSpan(obs::kSpanQueue, 0, 0.0, queue_wait_ms);
    }
    root = obs::Span(sink.get(), progress != nullptr ? obs::kSpanStream
                                                     : obs::kSpanRequest);
    root.Tag("k", req.k);
  }
  try {
    // A request cancelled or expired before reaching here must not touch
    // the caches at all ("never runs the solve").
    if (cancel != nullptr) cancel->ThrowIfCancelled();

    // Plan fields are filled before the binding step, so a binding failure
    // still reports them.
    StaticWork work = ResolveStatic(req, plan_key, sink.get(), root.id());
    resp.plan_cache_hit = work.plan_cache_hit;
    resp.plan_ms = work.plan_ms;
    resp.fingerprint = work.plan->fingerprint;
    if (work.bound == nullptr) {
      work.bound = BindRequest(req, *work.plan, sink.get(), root.id());
    }

    AdpOptions options = req.options;
    options.plan = &work.plan->dispatch;
    options.stats = &resp.stats;
    options.parallelism = sharding_.run_all ? &sharding_ : nullptr;
    options.cancel = cancel;
    options.trace = sink.get();
    Stopwatch solve_sw;
    {
      obs::Span solve_span(sink.get(), obs::kSpanSolve, root.id());
      options.trace_parent = solve_span.id();
      resp.solution =
          ComputeAdp(work.plan->query, *work.bound, req.k, options, progress);
    }
    resp.solve_ms = solve_sw.ElapsedMs();
    solve_ms_->Observe(resp.solve_ms);
    if (resp.stats.sharded_universe_nodes > 0 ||
        resp.stats.sharded_decompose_nodes > 0) {
      // Rolled up only here, where the solve actually ran: deduped and
      // coalesced copies of this response must not re-count its shards.
      sharded_universe_nodes_->Increment(
          static_cast<std::uint64_t>(resp.stats.sharded_universe_nodes));
      sharded_decompose_nodes_->Increment(
          static_cast<std::uint64_t>(resp.stats.sharded_decompose_nodes));
    }
  } catch (...) {
    resp.status = MapSolveException();
    // Cancellation and expiry are counted separately; streams report
    // failures through their terminal Status only.
    const StatusCode code = resp.status.code();
    if (progress == nullptr && code != StatusCode::kCancelled &&
        code != StatusCode::kDeadlineExceeded) {
      failures_->Increment();
    }
  }
  resp.total_ms = total.ElapsedMs();
  if (progress == nullptr) {
    request_latency_ms_->Observe(queue_wait_ms + resp.total_ms);
  }
  if (sink != nullptr) {
    root.End();
    resp.trace = std::make_shared<const obs::Trace>(sink->Take());
    traces_collected_->Increment();
  }
  return resp;
}

// --- Single flight -----------------------------------------------------------

std::shared_ptr<AdpEngine::InflightSolve> AdpEngine::LeadOrJoin(
    const std::string& key, const std::shared_ptr<internal::TicketImpl>& ticket,
    const std::optional<std::chrono::steady_clock::time_point>& deadline) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = key.empty() ? inflight_.end() : inflight_.find(key);
  if (it != inflight_.end()) {
    if (ticket != nullptr) {
      // AddParticipant registers and fired-checks atomically under the
      // group mutex, so a successful join can never land on a solve that
      // was cancelled between probe and registration.
      if (it->second->group->AddParticipant(deadline)) {
        dedup_hits_->Increment();
        ticket->group = it->second->group;
        it->second->followers.push_back(ticket);
        return nullptr;  // joined as a follower
      }
      // Stale entry (solve already torn down): replace it below.
    } else if (it->second->group->solve_token().Check() ==
               CancelReason::kNone) {
      // Sync (null ticket): the caller solves independently — joining
      // would couple its latency to queue depth.
      return nullptr;
    }
  }
  // No entry, or a stale one whose shared solve was already cancelled /
  // expired (its queued task will still retire it; the erase-if-same guard
  // in PublishInflight keeps it from clobbering this fresh entry).
  auto state = std::make_shared<InflightSolve>();
  state->group = std::make_shared<internal::SolveCancelGroup>();
  state->group->AddParticipant(deadline);  // fresh group: always succeeds
  state->leader = ticket;
  if (ticket != nullptr) ticket->group = state->group;
  if (!key.empty()) inflight_[key] = state;
  return state;
}

void AdpEngine::PublishInflight(const std::string& key,
                                const std::shared_ptr<InflightSolve>& state,
                                const AdpResponse& resp,
                                std::optional<RecentResult> recent) {
  std::shared_ptr<internal::TicketImpl> leader;
  std::vector<std::shared_ptr<internal::TicketImpl>> followers;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = inflight_.find(key);
    if (it != inflight_.end() && it->second == state) inflight_.erase(it);
    leader = std::move(state->leader);
    followers.swap(state->followers);
    // A result for a database released meanwhile is not remembered: it
    // would answer later requests that must fail with kUnknownDatabase.
    if (recent.has_value() && databases_.contains(recent->db)) {
      recent_.push_back(*std::move(recent));
      while (recent_.size() > kRecentResultsCapacity) recent_.pop_front();
    }
  }
  if (leader != nullptr) internal::Deliver(*leader, resp);
  if (followers.empty()) return;
  AdpResponse shared = resp;
  shared.deduped = true;
  for (const auto& f : followers) internal::Deliver(*f, shared);
}

// --- Request entry points ----------------------------------------------------

AdpResponse AdpEngine::ExecuteImpl(const AdpRequest& req) {
  const RequestKeys keys = KeysFor(req);
  if (std::optional<AdpResponse> answered = Admit(req, keys.solve)) {
    // An already-expired deadline beats a coalesced result, matching the
    // async path (whose ticket substitutes kDeadlineExceeded at delivery).
    if (answered->coalesced && req.deadline.has_value() &&
        Now() >= *req.deadline) {
      return DroppedResponse(CancelReason::kDeadlineExceeded);
    }
    return *std::move(answered);
  }

  // The synchronous path leads but never follows (see LeadOrJoin).
  const std::shared_ptr<InflightSolve> lead =
      LeadOrJoin(keys.solve, nullptr, req.deadline);
  AdpResponse resp;
  const CancelToken* cancel = nullptr;
  CancelToken solo;
  if (lead != nullptr) {
    cancel = &lead->group->solve_token();
  } else if (req.deadline.has_value()) {
    solo = CancelToken::Make();
    solo.SetDeadline(*req.deadline);
    cancel = &solo;
  }
  try {
    resp = SolveNow(req, keys.plan, cancel);
  } catch (...) {
    // SolveNow absorbs std::exception itself; anything else must still
    // retire the in-flight entry (followers would hang forever on a
    // leaked leader) and keep Execute's never-throws contract.
    resp = FailureResponse(
        Status(StatusCode::kInternal, "solve terminated abnormally"));
    failures_->Increment();
  }
  if (lead != nullptr) {
    PublishInflight(keys.solve, lead, resp, MakeRecent(req, keys.solve, resp));
  }
  return resp;
}

AdpResponse AdpEngine::Execute(const AdpRequest& req) {
  AdpResponse resp = ExecuteImpl(req);
  // The sync path has no ticket, so terminal cancelled/expired outcomes
  // are counted here (async paths count through Deliver).
  if (resp.status.code() == StatusCode::kDeadlineExceeded) {
    deadline_expired_->Increment();
  } else if (resp.status.code() == StatusCode::kCancelled) {
    cancelled_->Increment();
  }
  return resp;
}

AdpResponse AdpEngine::Execute(const PreparedQuery& prepared, std::int64_t k,
                               const AdpOptions& options) {
  return Execute(PreparedRequest(prepared, k, options));
}

std::future<AdpResponse> AdpEngine::Submit(AdpRequest req, AdpTicket* ticket) {
  // Future-flavored SubmitAsync: same dedup, same nested-submission
  // inlining (a worker-thread caller gets a ready future back).
  auto promise = std::make_shared<std::promise<AdpResponse>>();
  std::future<AdpResponse> fut = promise->get_future();
  AdpTicket t = SubmitAsync(std::move(req), [promise](AdpResponse r) {
    promise->set_value(std::move(r));
  });
  if (ticket != nullptr) *ticket = std::move(t);
  return fut;
}

std::future<AdpResponse> AdpEngine::Submit(const PreparedQuery& prepared,
                                           std::int64_t k,
                                           const AdpOptions& options,
                                           AdpTicket* ticket) {
  return Submit(PreparedRequest(prepared, k, options), ticket);
}

AdpTicket AdpEngine::SubmitAsync(AdpRequest req,
                                 std::function<void(AdpResponse)> done) {
  auto impl = std::make_shared<internal::TicketImpl>();
  impl->done = std::move(done);
  impl->cancelled = cancelled_;
  impl->deadline_expired = deadline_expired_;
  if (req.deadline.has_value()) impl->own.SetDeadline(*req.deadline);
  AdpTicket ticket(impl);

  if (pool_.IsWorkerThread()) {
    // Nested submission: run inline rather than deadlocking the pool.
    internal::Deliver(*impl, ExecuteImpl(req));
    return ticket;
  }
  const RequestKeys keys = KeysFor(req);
  if (std::optional<AdpResponse> answered = Admit(req, keys.solve)) {
    internal::Deliver(*impl, *std::move(answered));
    return ticket;
  }
  // Admission control, before the single-flight probe: an already-dead
  // deadline never deserves a queue slot, and once the backlog exceeds the
  // configured bound new work is shed instead of queued (kOverloaded) —
  // joining an in-flight solve stays allowed (it costs no slot).
  if (req.deadline.has_value() && Now() >= *req.deadline) {
    internal::Deliver(*impl, DroppedResponse(CancelReason::kDeadlineExceeded));
    return ticket;
  }
  if (config_.max_queue_depth > 0 &&
      pool_.queued() >= config_.max_queue_depth) {
    const std::shared_ptr<InflightSolve> joined =
        LeadOrJoin(keys.solve, impl, req.deadline);
    if (joined == nullptr) return ticket;  // rode an in-flight solve for free
    // Became the would-be leader: retire the entry immediately with the
    // overload response (followers that raced in share the rejection).
    shed_->Increment();
    PublishInflight(keys.solve, joined, OverloadedResponse(), std::nullopt);
    return ticket;
  }
  const std::shared_ptr<InflightSolve> lead =
      LeadOrJoin(keys.solve, impl, req.deadline);
  if (lead == nullptr) return ticket;  // joined an identical in-flight solve

  // From here the in-flight entry MUST be retired on every path — a leaked
  // leader would hang all future identical requests — so both the solve
  // and the enqueue are exception-proofed.
  const TaskAttrs attrs{req.priority, req.deadline};
  try {
    const MonotonicClock::time_point enqueued = Now();
    pool_.Submit([this, req = std::move(req), keys, lead, enqueued] {
      AdpResponse resp;
      const double queue_wait_ms = MsBetween(enqueued, Now());
      queue_wait_ms_->Observe(queue_wait_ms);
      const CancelReason queued = lead->group->solve_token().Check();
      if (queued != CancelReason::kNone) {
        // Cancelled or expired while queued: the solve never runs — no
        // plan probe, no binding probe, no ComputeAdp.
        resp = DroppedResponse(queued);
      } else {
        try {
          resp = SolveNow(req, keys.plan, &lead->group->solve_token(),
                          queue_wait_ms);
        } catch (...) {
          resp = FailureResponse(
              Status(StatusCode::kInternal, "solve terminated abnormally"));
          failures_->Increment();
        }
      }
      PublishInflight(keys.solve, lead, resp,
                      MakeRecent(req, keys.solve, resp));
    }, attrs);
  } catch (...) {
    // The ticket delivery is the sole failure signal (`done` fires exactly
    // once); rethrowing too would double-report the submission.
    AdpResponse failure = FailureResponse(
        Status(StatusCode::kInternal, "failed to enqueue request"));
    failures_->Increment();
    PublishInflight(keys.solve, lead, failure, std::nullopt);
  }
  return ticket;
}

AdpTicket AdpEngine::SubmitToQueue(AdpRequest req, CompletionQueue& cq,
                                   std::uint64_t tag) {
  cq.AddPending();
  return SubmitAsync(std::move(req), [&cq, tag](AdpResponse resp) {
    cq.Push(Completion{tag, std::move(resp)});
  });
}

std::vector<AdpResponse> AdpEngine::ExecuteBatch(
    std::vector<AdpRequest> reqs) {
  std::vector<std::future<AdpResponse>> futures;
  futures.reserve(reqs.size());
  for (AdpRequest& req : reqs) futures.push_back(Submit(std::move(req)));
  std::vector<AdpResponse> out;
  out.reserve(futures.size());
  for (auto& fut : futures) out.push_back(fut.get());
  return out;
}

// --- Streaming ---------------------------------------------------------------

namespace {

/// Terminal-only stream: used for admission failures (shutdown, invalid
/// prepared handle, enqueue failure).
void FinishStream(const std::shared_ptr<internal::StreamState>& state,
                  Status status) {
  StreamItem end;
  end.kind = StreamItem::Kind::kEnd;
  end.status = std::move(status);
  state->Finish(std::move(end));
}

}  // namespace

ResultStream AdpEngine::StreamAdp(AdpRequest req) {
  auto state = std::make_shared<internal::StreamState>(kStreamBufferItems);
  state->opened = Now();
  if (req.deadline.has_value()) {
    state->cancel_token().SetDeadline(*req.deadline);
  }
  ResultStream stream(state);

  {
    // Shutdown gate and registration under ONE critical section: a stream
    // admitted here is in streams_ before Shutdown() can drain the list,
    // so it is guaranteed to be cancelled — never left to complete after
    // Shutdown() returned. kShutdown rejections get no counters attached:
    // they are excluded from streams_opened, and counting their terminal
    // would let stream_cancelled exceed streams_opened.
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      FinishStream(state,
                   Status(StatusCode::kShutdown, "engine is shut down"));
      return stream;
    }
    state->items_counter = stream_items_;
    state->cancelled_counter = stream_cancelled_;
    // Prune streams that already finished (their producers released the
    // state) so the open-stream list stays proportional to live streams.
    std::erase_if(streams_, [](const auto& weak) { return weak.expired(); });
    streams_.push_back(state);
  }
  streams_opened_->Increment();
  if (req.prepared.valid()) {
    Status valid = ValidatePrepared(req);
    if (!valid.ok()) {
      FinishStream(state, std::move(valid));
      return stream;
    }
  }

  if (pool_.IsWorkerThread()) {
    // Nested streaming: no independent consumer can drain while we
    // produce, so the capacity bound would deadlock — buffer everything
    // and return a fully-produced stream.
    state->MakeUnbounded();
    RunStream(req, state);
    return stream;
  }
  // Load shedding mirrors SubmitAsync: a producer task needs a queue slot,
  // and past the configured backlog the stream is refused with a terminal
  // kOverloaded instead. (Inline nested production above costs no slot and
  // is never shed.)
  if (config_.max_queue_depth > 0 &&
      pool_.queued() >= config_.max_queue_depth) {
    shed_->Increment();
    FinishStream(state, Status(StatusCode::kOverloaded,
                               "stream shed: worker queue exceeds "
                               "EngineConfig::max_queue_depth"));
    return stream;
  }
  const TaskAttrs attrs{req.priority, req.deadline};
  try {
    pool_.Submit([this, req = std::move(req), state] { RunStream(req, state); },
                 attrs);
  } catch (...) {
    FinishStream(state,
                 Status(StatusCode::kInternal, "failed to enqueue stream"));
  }
  return stream;
}

ResultStream AdpEngine::StreamAdp(const PreparedQuery& prepared,
                                  std::int64_t k, const AdpOptions& options) {
  return StreamAdp(PreparedRequest(prepared, k, options));
}

void AdpEngine::RunStream(const AdpRequest& req,
                          const std::shared_ptr<internal::StreamState>& state) {
  // Queue wait = StreamAdp admission to here (0-ish for inline production).
  const double queue_wait_ms = MsBetween(state->opened, Now());
  queue_wait_ms_->Observe(queue_wait_ms);
  // Time-to-first-item, measured from admission at the first Emit (profile
  // or witness batch — whichever the consumer could see first).
  bool first_item = true;
  const auto emit = [&](StreamItem item) {
    if (first_item) {
      first_item = false;
      stream_first_item_ms_->Observe(MsBetween(state->opened, Now()));
    }
    state->Emit(std::move(item));
  };
  AdpProgress progress;
  progress.intermediate_witnesses = req.stream_intermediate_witnesses;
  progress.profile = [&](std::int64_t j, std::int64_t cost) {
    StreamItem item;
    item.kind = StreamItem::Kind::kProfile;
    item.k = j;
    item.cost = cost;
    item.feasible = cost < kInfCost;
    emit(std::move(item));
  };
  // Each batch is tagged with the target its witnesses remove
  // (StreamItem::k): req.k, plus intermediate j's when
  // AdpRequest::stream_intermediate_witnesses is set.
  progress.witnesses = [&](std::int64_t j,
                           const std::vector<TupleRef>& witnesses) {
    const std::size_t batch =
        config_.stream_batch_tuples == 0
            ? std::max<std::size_t>(witnesses.size(), 1)
            : config_.stream_batch_tuples;
    for (std::size_t off = 0; off < witnesses.size(); off += batch) {
      state->cancel_token().ThrowIfCancelled();
      StreamItem item;
      item.kind = StreamItem::Kind::kWitnesses;
      item.k = j;
      const std::size_t hi = std::min(off + batch, witnesses.size());
      item.witnesses.assign(
          witnesses.begin() + static_cast<std::ptrdiff_t>(off),
          witnesses.begin() + static_cast<std::ptrdiff_t>(hi));
      emit(std::move(item));
    }
  };

  AdpResponse resp =
      SolveNow(req, req.prepared.valid() ? std::string() : PlanKey(req),
               &state->cancel_token(), queue_wait_ms, &progress);
  StreamItem end;
  end.kind = StreamItem::Kind::kEnd;
  end.status = std::move(resp.status);
  if (end.status.code() == StatusCode::kCancelled &&
      state->shutdown_requested()) {
    // Torn down by Shutdown(), not by the consumer.
    end.status = Status(StatusCode::kShutdown, end.status.message());
  }
  end.cost = resp.solution.cost;
  end.feasible = resp.solution.feasible;
  end.exact = resp.solution.exact;
  end.output_count = resp.solution.output_count;
  end.removed_outputs = resp.solution.removed_outputs;
  end.stats = resp.stats;
  end.plan_cache_hit = resp.plan_cache_hit;
  end.plan_ms = resp.plan_ms;
  end.solve_ms = resp.solve_ms;
  end.total_ms = resp.total_ms;
  end.queue_ms = resp.queue_ms;
  end.trace = std::move(resp.trace);
  state->Finish(std::move(end));
}

// --- Introspection -----------------------------------------------------------

EngineCounters AdpEngine::counters() const {
  EngineCounters c;
  c.requests = requests_->Value();
  c.failures = failures_->Value();
  c.plan_hits = plan_hits_->Value();
  c.plan_misses = plan_misses_->Value();
  c.binding_hits = binding_hits_->Value();
  c.binding_misses = binding_misses_->Value();
  c.dedup_hits = dedup_hits_->Value();
  c.coalesce_hits = coalesce_hits_->Value();
  c.cancelled = cancelled_->Value();
  c.deadline_expired = deadline_expired_->Value();
  c.shed = shed_->Value();
  c.sharded_universe_nodes = sharded_universe_nodes_->Value();
  c.sharded_decompose_nodes = sharded_decompose_nodes_->Value();
  c.streams_opened = streams_opened_->Value();
  c.stream_items = stream_items_->Value();
  c.stream_cancelled = stream_cancelled_->Value();
  c.plan_cache_size = static_cast<std::size_t>(plan_cache_size_->Value());
  c.databases = static_cast<std::size_t>(registered_dbs_->Value());
  return c;
}

obs::MetricsRegistry& AdpEngine::metrics() const { return *registry_; }

std::shared_ptr<obs::MetricsRegistry> AdpEngine::metrics_shared() const {
  return registry_;
}

void AdpEngine::WriteMetricsText(std::ostream& out) const {
  registry_->WritePrometheus(out);
}

void AdpEngine::ClearCaches() {
  plan_cache_.Clear();
  plan_cache_size_->Set(static_cast<std::int64_t>(plan_cache_.size()));
  std::lock_guard<std::mutex> lock(mu_);
  bindings_.clear();
  recent_.clear();
}

std::shared_ptr<const CachedPlan> AdpEngine::PlanFor(const AdpRequest& req,
                                                     Status* status) {
  if (req.prepared.valid()) {
    if (status != nullptr) *status = Status();
    return req.prepared.plan();
  }
  try {
    auto plan = GetPlan(req, PlanKey(req), nullptr);
    if (status != nullptr) *status = Status();
    return plan;
  } catch (const ParseError& e) {
    if (status != nullptr) *status = Status(StatusCode::kParseError, e.what());
    return nullptr;
  } catch (const std::exception& e) {
    if (status != nullptr) *status = Status(StatusCode::kInternal, e.what());
    return nullptr;
  }
}

}  // namespace adp
