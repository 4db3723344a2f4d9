#include "net/session.h"

#include <stdexcept>
#include <utility>

namespace adp::net {

Session::Session(AdpEngine& engine, std::int64_t default_timeout_ms)
    : engine_(engine), default_timeout_ms_(default_timeout_ms) {}

Session::~Session() {
  // In-flight holders keep the data alive until they unwind.
  for (const auto& [name, db] : dbs_) engine_.UnregisterDatabase(db);
}

std::string Session::RegisterDb(const std::vector<std::string>& toks) {
  ParsedDb parsed = ParseDbLine(toks);
  const DbId fresh = engine_.RegisterDatabase(std::move(parsed.db));
  auto [it, inserted] = dbs_.emplace(parsed.name, fresh);
  if (!inserted) {
    engine_.UnregisterDatabase(it->second);
    it->second = fresh;
  }
  return parsed.name;
}

StatusOr<std::int64_t> Session::Prepare(const std::vector<std::string>& toks) {
  if (toks.size() < 2 || toks[0] != "PREPARE") {
    throw std::runtime_error("PREPARE <query>");
  }
  std::string query_text;
  for (std::size_t i = 1; i < toks.size(); ++i) {
    if (i > 1) query_text += ' ';
    query_text += toks[i];
  }
  StatusOr<PreparedQuery> prepared = engine_.Prepare(query_text);
  if (!prepared.ok()) return prepared.status();
  const std::int64_t handle = next_prepared_++;
  prepared_.emplace(handle, std::move(prepared).value());
  return handle;
}

ParsedRequest Session::Resolve(const std::vector<std::string>& toks) const {
  ParsedRequest parsed;
  if (!toks.empty() && toks[0] == "EXEC") {
    constexpr char kUsage[] = "EXEC <handle> <db> <k> [+opt ...]";
    if (toks.size() < 4) throw std::runtime_error(kUsage);
    auto pit = prepared_.find(ParseOptionInt(toks[1], 0, "handle"));
    if (pit == prepared_.end()) {
      throw std::runtime_error("unknown prepared handle " + toks[1]);
    }
    // Rewrite as a REQ-shaped line so option parsing stays shared; the
    // query slot is a placeholder (the prepared handle wins).
    std::vector<std::string> req_toks = {"EXEC", toks[2], toks[3]};
    req_toks.insert(req_toks.end(), toks.begin() + 4, toks.end());
    req_toks.push_back("-");
    parsed = ParseRequestLine(req_toks, kUsage, default_timeout_ms_);
    parsed.req.query_text.clear();
    parsed.req.prepared = pit->second;
  } else {
    const bool stream = !toks.empty() && toks[0] == "STREAM";
    parsed = ParseRequestLine(toks,
                              stream ? "STREAM <db> <k> [+opt ...] <query>"
                                     : "REQ <db> <k> [+opt ...] <query>",
                              default_timeout_ms_);
  }
  auto it = dbs_.find(parsed.db_name);
  if (it == dbs_.end()) {
    throw std::runtime_error("unknown database " + parsed.db_name);
  }
  parsed.req.db = it->second;
  return parsed;
}

}  // namespace adp::net
