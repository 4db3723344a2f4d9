// adpbench: the ADP serving benchmark driver.
//
//   adpbench --workload <solve_mix|light_net|open_mixed> --seed <n>
//            --seconds <s> --trace <0|1> [--span-dir <dir>]
//   adpbench --selftest
//
// Prints a context line (host record, sizing, sample counts, checksums,
// context-only histograms), then as its last line one JSON object with
// correct/attempted/failed and the metrics: end-to-end with --trace 0,
// per-layer with --trace 1. Exits 1 on any wrong answer.
#include <algorithm>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool selftest = false;
  std::string span_dir;
};

bool Parse(int argc, char** argv, Args* a, std::string* why) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      a->selftest = true;
      continue;
    }
    if (i + 1 >= argc) {
      *why = "missing value for " + flag;
      return false;
    }
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a->workload = v;
      } else if (flag == "--seed") {
        a->seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a->seconds = std::stod(v);
      } else if (flag == "--trace") {
        a->trace = std::stoi(v) != 0;
      } else if (flag == "--span-dir") {
        a->span_dir = v;
      } else {
        *why = "unknown flag " + flag;
        return false;
      }
    } catch (const std::exception&) {
      *why = "bad value for " + flag + ": " + v;
      return false;
    }
  }
  if (!a->selftest && a->workload.empty()) {
    *why = "--workload is required";
    return false;
  }
  if (a->seconds <= 0) {
    *why = "--seconds must be positive";
    return false;
  }
  return true;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace adpbench;
  Args args;
  std::string why;
  if (!Parse(argc, argv, &args, &why)) {
    std::cerr << "adpbench: " << why << "\n";
    return 2;
  }

  // Host record, printed with every run.
  const int nproc = std::max(1u, std::thread::hardware_concurrency());
  const std::string build_type = ADPBENCH_BUILD_TYPE;
#ifdef NDEBUG
  const bool release = build_type == "Release";
#else
  const bool release = false;
#endif
  if (!release) {
    std::cerr << "adpbench: WARNING: not a Release build (" << build_type
              << "); figures are not comparable\n";
  }

  const int selftest_failures = RunSelfTests();
  if (selftest_failures != 0) {
    std::cerr << "adpbench: " << selftest_failures << " self-test(s) failed\n";
    return 3;
  }
  if (args.selftest) {
    std::cerr << "adpbench: self-tests passed\n";
    return 0;
  }

  try {
    Workload w = MakeWorkload(args.workload, args.seed);
    const std::string oracle_error = FillOracle(w);
    if (!oracle_error.empty()) {
      std::cerr << "adpbench: oracle: " << oracle_error << "\n";
      return 4;
    }
    RunConfig cfg;
    cfg.seconds = args.seconds;
    cfg.trace = args.trace;
    cfg.span_dir = args.span_dir;
    cfg.nproc = nproc;
    RunReport r = w.name == "solve_mix"   ? RunSolveMix(w, cfg)
                  : w.name == "light_net" ? RunLightNet(w, cfg)
                                          : RunOpenMixed(w, cfg);

    std::ostringstream ctx;
    ctx << "{\"context\":{\"workload\":" << Quote(w.name)
        << ",\"seed\":" << args.seed << ",\"seconds\":" << JsonNumber(args.seconds)
        << ",\"trace\":" << (args.trace ? "true" : "false")
        << ",\"host\":{\"nproc\":" << nproc << ",\"compiler\":"
        << Quote(ADPBENCH_COMPILER) << ",\"build_type\":" << Quote(build_type)
        << ",\"release\":" << (release ? "true" : "false") << "}"
        << ",\"families\":[";
    // One entry per family: its weight and each instance's |Q(D)|.
    for (std::size_t i = 0; i < w.families.size(); ++i) {
      const Family& f = w.families[i];
      const bool first = i == 0 || w.families[i - 1].name != f.name;
      const bool last = i + 1 == w.families.size() || w.families[i + 1].name != f.name;
      if (first) {
        ctx << (i ? "," : "") << "{\"name\":" << Quote(f.name)
            << ",\"weight\":" << f.weight << ",\"output_counts\":[";
      } else {
        ctx << ",";
      }
      ctx << f.output_count << (last ? "]}" : "");
    }
    ctx << "],\"wrong\":" << r.wrong;
    if (!r.first_error.empty()) ctx << ",\"first_error\":" << Quote(r.first_error);
    for (const auto& [key, value] : r.context) ctx << "," << Quote(key) << ":" << value;
    ctx << "}}";
    std::cout << ctx.str() << "\n";

    std::ostringstream out;
    out << "{\"correct\":" << (r.wrong == 0 ? "true" : "false")
        << ",\"attempted\":" << r.attempted << ",\"failed\":" << r.failed
        << ",\"metrics\":{";
    const std::vector<Metric>& metrics = args.trace ? r.per_layer : r.end_to_end;
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      out << (i ? "," : "") << Quote(metrics[i].name)
          << ":{\"value\":" << JsonNumber(metrics[i].value)
          << ",\"unit\":" << Quote(metrics[i].unit) << "}";
    }
    out << "}}";
    std::cout << out.str() << std::endl;
    if (r.wrong != 0) {
      std::cerr << "adpbench: " << r.wrong << " wrong answer(s); first failure: "
                << r.first_error << "\n";
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "adpbench: " << e.what() << "\n";
    return 5;
  }
}
