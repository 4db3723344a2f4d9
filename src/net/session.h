// net::Session: the per-session state of the text protocol, shared by both
// front ends — one per connection in the TCP server (src/net/server.cc),
// one per process in the stdin driver (examples/adp_server.cpp).
//
// A session owns the name -> DbId namespace filled by DB lines and the
// handles returned by PREPARE, and turns REQ / STREAM / EXEC lines into
// AdpRequests with both resolved. Every database it registers is released
// from the engine when its name is re-registered or the session ends, so
// neither a reconnect loop nor a script re-loading one name can grow the
// engine without bound. Output ordering is not its business: each front
// end frames or prints the responses itself.
//
// Not thread-safe; the engine must outlive the session.

#ifndef ADP_NET_SESSION_H_
#define ADP_NET_SESSION_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/engine.h"
#include "net/textproto.h"

namespace adp::net {

class Session {
 public:
  /// `default_timeout_ms` > 0 gives every resolved request a deadline that
  /// many ms after Resolve, unless its line carries a +d option.
  explicit Session(AdpEngine& engine, std::int64_t default_timeout_ms = 0);

  /// Unregisters every database this session registered.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// "DB <name> <spec> ..." tokens: registers the database under `name`,
  /// releasing the one it displaces. Returns the name. Throws
  /// std::runtime_error on a malformed line.
  std::string RegisterDb(const std::vector<std::string>& toks);

  /// "PREPARE <query>" tokens: returns the new session-scoped handle, or
  /// the engine's failure status (kParseError, ...). Throws
  /// std::runtime_error on a malformed line.
  StatusOr<std::int64_t> Prepare(const std::vector<std::string>& toks);

  /// "REQ|STREAM <db> <k> [+opt ...] <query>" or
  /// "EXEC <handle> <db> <k> [+opt ...]" tokens (the first token picks the
  /// form) into a request whose db — and, for EXEC, prepared handle — is
  /// resolved. Throws std::runtime_error with the usage text, "unknown
  /// database <name>", or "unknown prepared handle <h>".
  ParsedRequest Resolve(const std::vector<std::string>& toks) const;

 private:
  AdpEngine& engine_;
  const std::int64_t default_timeout_ms_;
  std::unordered_map<std::string, DbId> dbs_;
  std::unordered_map<std::int64_t, PreparedQuery> prepared_;
  std::int64_t next_prepared_ = 1;
};

}  // namespace adp::net

#endif  // ADP_NET_SESSION_H_
