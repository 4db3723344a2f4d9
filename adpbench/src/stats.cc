// Exact statistics and the traced pass's span ledger.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>

#include "bench.h"

namespace adpbench {

const char* const kLedgerLayers[5] = {"net", "query", "dichotomy", "solver",
                                      "relational"};

Quantile ExactQuantile(std::vector<double> samples, double p) {
  Quantile q;
  q.samples = samples.size();
  if (samples.empty()) {
    q.value = std::numeric_limits<double>::quiet_NaN();
    return q;
  }
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the ceil(p*n)-th smallest sample (1-based), at least 1.
  const double n = static_cast<double>(samples.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  q.value = samples[rank - 1];
  q.beyond = samples.size() - rank;
  return q;
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) children[spans[i].parent].push_back(i);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<double, double>> cover;
    for (int c : children[i]) {
      const double lo = std::max(s.start_ms, spans[c].start_ms);
      const double hi = std::min(s.end_ms, spans[c].end_ms);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0, run_lo = 0.0, run_hi = -1.0;
    for (const auto& [lo, hi] : cover) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (s.end_ms - s.start_ms) - covered;
  }
  return self;
}

namespace {

bool StartsWith(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

const char* LayerOf(const std::string& name) {
  if (StartsWith(name, "textproto.") || StartsWith(name, "wire.")) return "net";
  if (StartsWith(name, "query.")) return "query";
  if (StartsWith(name, "dichotomy.")) return "dichotomy";
  if (StartsWith(name, "solver.")) return "solver";
  if (StartsWith(name, "relational.")) return "relational";
  return nullptr;
}

}  // namespace

std::map<int, OpLedger> BuildLedger(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  // Work the counting-only and witnessing solves repeat, per op.
  std::map<int, double> count_ms, profile_ms;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (!spans[i].on_path) continue;
    if (spans[i].name == "relational.count") count_ms[spans[i].op] += self[i];
    if (spans[i].name == "solver.profile") profile_ms[spans[i].op] += self[i];
  }
  std::map<int, OpLedger> ledger;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    OpLedger& op = ledger[s.op];
    if (s.name == "real") {
      op.real_ms += self[i];
      continue;
    }
    const char* layer = LayerOf(s.name);
    if (layer == nullptr || !s.on_path) continue;
    double t = self[i];
    if (s.name == "solver.profile") t -= count_ms[s.op];
    if (s.name == "solver.full") t -= profile_ms[s.op];
    op.layer_ms[layer] += t;
    op.layered_ms += t;
  }
  return ledger;
}

double ResidualShare(const std::map<int, OpLedger>& ledger) {
  double layered = 0.0, real = 0.0;
  for (const auto& [op, l] : ledger) {
    layered += l.layered_ms;
    real += l.real_ms;
  }
  return real > 0.0 ? 1.0 - layered / real : 0.0;
}

bool WriteSpansJson(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  char buf[512];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d,"
                  "\"parent\":%d,\"on_path\":%s}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.start_ms * 1e3,
                  (s.end_ms - s.start_ms) * 1e3, s.op, s.parent,
                  s.on_path ? "true" : "false");
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace adpbench
