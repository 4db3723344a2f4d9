// adp_netserver: the ADP engine behind a TCP socket (src/net/server.h).
//
// Starts an AdpEngine, puts AdpNetServer in front of it, prints one line
//
//   listening on <host>:<port>
//
// to stdout (port is the actually-bound one, so --port=0 callers — tests,
// tools/net_smoke.sh — can parse it), and serves until stdin reaches EOF
// or the process is terminated. Wire protocol: docs/PROTOCOL.md; drive it
// with examples/adp_netclient.cpp.
//
// Usage:  adp_netserver [--host=A] [--port=P] [--workers=N]
//                       [--min-shard-groups=G] [--min-shard-components=C]
//                       [--coalesce-window-ms=W] [--timeout-ms=T]
//                       [--stream-batch-tuples=B] [--max-queue-depth=Q]
//                       [--max-connections=M]
//
//   --host=A                 listen address (default 127.0.0.1)
//   --port=P                 listen port; 0 (default) binds an ephemeral
//                            port, reported on the "listening on" line
//   --timeout-ms=T           default per-request deadline (0 = none); a
//                            +d request option overrides it
//   --max-queue-depth=Q      load shedding: async requests arriving while
//                            more than Q tasks wait on the pool are
//                            rejected with OVERLOADED (0 = unbounded)
//   --max-connections=M      connections beyond M are refused (default 256)
//
// Engine knobs (--workers, --min-shard-*, --coalesce-window-ms,
// --stream-batch-tuples) mean the same as for adp_server.

#include <iostream>
#include <string>

#include "engine/engine.h"
#include "flags.h"
#include "net/server.h"

int main(int argc, char** argv) {
  adp::EngineConfig config;
  adp::net::NetServerConfig net;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (ParseEngineFlag(arg, config)) continue;
    if (arg.rfind("--host=", 0) == 0) {
      net.host = arg.substr(7);
    } else if (arg.rfind("--port=", 0) == 0) {
      net.port =
          static_cast<int>(ParseFlagValue(arg, 7, /*min_value=*/0,
                                          /*max_value=*/65535));
    } else if (arg.rfind("--timeout-ms=", 0) == 0) {
      net.default_timeout_ms =
          ParseFlagValue(arg, 13, /*min_value=*/0, /*max_value=*/86'400'000);
    } else if (arg.rfind("--max-connections=", 0) == 0) {
      net.max_connections = static_cast<int>(
          ParseFlagValue(arg, 18, /*min_value=*/1, /*max_value=*/1 << 20));
    } else {
      std::cerr << "unknown flag: " << arg << "\n";
      return 1;
    }
  }

  adp::AdpEngine engine(config);
  adp::net::AdpNetServer server(engine, net);
  const adp::Status status = server.Start();
  if (!status.ok()) {
    std::cerr << "start failed: " << status.message() << "\n";
    return adp::StatusExitCode(status.code());
  }
  std::cout << "listening on " << net.host << ":" << server.port() << "\n"
            << std::flush;

  // Serve until stdin closes — the natural lifetime under a harness that
  // holds our stdin open (tools/net_smoke.sh, tests), and Ctrl-D
  // interactively. SIGTERM/SIGINT end the process the default way.
  std::string line;
  while (std::getline(std::cin, line)) {
  }
  server.Stop();
  engine.Shutdown();
  return 0;
}
