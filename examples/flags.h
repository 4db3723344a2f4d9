// Command-line flags shared by the two serving examples (adp_server and
// adp_netserver): one strict integer parser and the engine knobs both
// accept with the same names, bounds, and messages.

#ifndef ADP_EXAMPLES_FLAGS_H_
#define ADP_EXAMPLES_FLAGS_H_

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "engine/engine.h"

// Strict integer flag value in [min_value, max_value]: rejects trailing
// junk, out-of-range, and non-numeric input with a usage error instead of
// wrapping, clamping, or aborting.
inline std::int64_t ParseFlagValue(const std::string& arg,
                                   std::size_t prefix_len,
                                   std::int64_t min_value,
                                   std::int64_t max_value) {
  const std::string value = arg.substr(prefix_len);
  std::size_t pos = 0;
  std::int64_t out = min_value - 1;
  try {
    out = std::stoll(value, &pos);
  } catch (const std::exception&) {
    pos = 0;
  }
  if (pos != value.size() || value.empty() || out < min_value ||
      out > max_value) {
    std::cerr << "bad flag value: " << arg << "\n";
    std::exit(1);
  }
  return out;
}

// Applies `arg` to `config` when it is one of the engine flags
//   --workers=N  --min-shard-groups=G  --min-shard-components=C
//   --coalesce-window-ms=W  --stream-batch-tuples=B  --max-queue-depth=Q
// and returns whether it was.
inline bool ParseEngineFlag(const std::string& arg, adp::EngineConfig& config) {
  if (arg.rfind("--workers=", 0) == 0) {
    config.num_workers = static_cast<int>(
        ParseFlagValue(arg, 10, /*min_value=*/1, /*max_value=*/4096));
  } else if (arg.rfind("--min-shard-groups=", 0) == 0) {
    config.min_shard_groups = static_cast<std::size_t>(
        ParseFlagValue(arg, 19, /*min_value=*/0, /*max_value=*/1 << 20));
  } else if (arg.rfind("--min-shard-components=", 0) == 0) {
    config.min_shard_components = static_cast<std::size_t>(
        ParseFlagValue(arg, 23, /*min_value=*/0, /*max_value=*/1 << 20));
  } else if (arg.rfind("--coalesce-window-ms=", 0) == 0) {
    config.coalesce_window_ms = static_cast<double>(
        ParseFlagValue(arg, 21, /*min_value=*/0, /*max_value=*/86'400'000));
  } else if (arg.rfind("--stream-batch-tuples=", 0) == 0) {
    config.stream_batch_tuples = static_cast<std::size_t>(
        ParseFlagValue(arg, 22, /*min_value=*/0, /*max_value=*/1 << 24));
  } else if (arg.rfind("--max-queue-depth=", 0) == 0) {
    config.max_queue_depth = static_cast<std::size_t>(
        ParseFlagValue(arg, 18, /*min_value=*/0, /*max_value=*/1 << 24));
  } else {
    return false;
  }
  return true;
}

#endif  // ADP_EXAMPLES_FLAGS_H_
