// Answer representation and decoding: in-process responses, wire result
// lines, and streams all reduce to one Answer compared against the oracle.
#include <cstdlib>
#include <cstring>

#include "bench.h"
#include "solver/solution.h"

namespace adpbench {

namespace {

// Value after `key` in a flat JSON line, or npos.
std::size_t After(const std::string& line, const char* key) {
  const std::size_t at = line.find(key);
  return at == std::string::npos ? at : at + std::strlen(key);
}

bool ReadInt(const std::string& line, const char* key, std::int64_t* out) {
  const std::size_t at = After(line, key);
  if (at == std::string::npos) return false;
  char* end = nullptr;
  *out = std::strtoll(line.c_str() + at, &end, 10);
  return end != line.c_str() + at;
}

bool ReadDouble(const std::string& line, const char* key, double* out) {
  const std::size_t at = After(line, key);
  if (at == std::string::npos) return false;
  *out = std::strtod(line.c_str() + at, nullptr);
  return true;
}

bool ReadBool(const std::string& line, const char* key, bool* out) {
  const std::size_t at = After(line, key);
  if (at == std::string::npos || at >= line.size()) return false;
  *out = line[at] == 't';
  return true;
}

std::string ReadStatus(const std::string& line) {
  const std::size_t at = After(line, "\"status\":\"");
  if (at == std::string::npos) return "";
  return line.substr(at, line.find('"', at) - at);
}

// Parses the [["R1",3],["R2",7],...] array that starts at `line[at]`.
bool ReadTuples(const std::string& line, std::size_t at,
                const adp::ConjunctiveQuery& q,
                std::vector<adp::TupleRef>* out) {
  if (at >= line.size() || line[at] != '[') return false;
  std::size_t i = at + 1;
  while (i < line.size() && line[i] != ']') {
    if (line[i] == ',') ++i;
    if (line.compare(i, 2, "[\"") != 0) return false;
    const std::size_t name_end = line.find('"', i + 2);
    if (name_end == std::string::npos) return false;
    const int rel = q.FindRelation(line.substr(i + 2, name_end - i - 2));
    if (rel < 0 || name_end + 2 >= line.size() || line[name_end + 1] != ',') {
      return false;
    }
    char* end = nullptr;
    const long long row = std::strtoll(line.c_str() + name_end + 2, &end, 10);
    if (*end != ']') return false;
    out->push_back({rel, static_cast<adp::TupleId>(row)});
    i = static_cast<std::size_t>(end - line.c_str()) + 1;
  }
  return i < line.size();
}

// Reads feasible/exact/cost/output_count of a result or stream-end line.
bool ReadSummary(const std::string& line, Answer* a) {
  std::int64_t cost = 0;
  if (!ReadBool(line, "\"feasible\":", &a->feasible) ||
      !ReadBool(line, "\"exact\":", &a->exact) ||
      !ReadInt(line, "\"cost\":", &cost) ||
      !ReadInt(line, "\"output_count\":", &a->output_count)) {
    return false;
  }
  // The wire renders the infeasible sentinel as -1: same as in-process.
  if (cost < 0) a->feasible = false;
  a->cost = a->feasible ? cost : -1;
  return true;
}

// Hash of a witness list after NormalizeTupleRefs (sorts a copy).
std::uint64_t WitnessHash(std::vector<adp::TupleRef> tuples) {
  adp::NormalizeTupleRefs(tuples);
  std::uint64_t h = 1469598103934665603ULL;
  for (const adp::TupleRef& t : tuples) {
    h = (h ^ static_cast<std::uint64_t>(t.relation)) * 1099511628211ULL;
    h = (h ^ static_cast<std::uint64_t>(t.row)) * 1099511628211ULL;
  }
  return h;
}

}  // namespace

Answer AnswerOf(const adp::AdpSolution& s) {
  Answer a;
  a.feasible = s.feasible;
  a.cost = s.feasible ? s.cost : -1;
  a.output_count = s.output_count;
  a.exact = s.exact;
  a.witness_count = s.tuples.size();
  a.witness_hash = WitnessHash(s.tuples);
  return a;
}

std::string CompareAnswers(const Answer& got, const Answer& want) {
  std::string diff;
  auto note = [&diff](const char* field, long long g, long long w) {
    if (g == w) return;
    diff += std::string(diff.empty() ? "" : ", ") + field + " " +
            std::to_string(g) + " != " + std::to_string(w);
  };
  note("feasible", got.feasible, want.feasible);
  note("cost", got.cost, want.cost);
  note("output_count", got.output_count, want.output_count);
  note("exact", got.exact, want.exact);
  note("witness_count", static_cast<long long>(got.witness_count),
       static_cast<long long>(want.witness_count));
  if (got.witness_hash != want.witness_hash) {
    diff += std::string(diff.empty() ? "" : ", ") + "witness set differs";
  }
  return diff;
}

bool DecodeResultLine(const std::string& line, const adp::ConjunctiveQuery& q,
                      Answer* out, std::string* why, LineTimings* timings) {
  const std::string status = ReadStatus(line);
  if (status != "OK") {
    *why = "status " + (status.empty() ? std::string("missing") : status);
    return false;
  }
  Answer a;
  std::vector<adp::TupleRef> tuples;
  if (!ReadSummary(line, &a) ||
      !ReadTuples(line, After(line, "\"tuples\":"), q, &tuples)) {
    *why = "malformed result line";
    return false;
  }
  if (line.find("\"tuples_truncated\":true") != std::string::npos) {
    *why = "witness list truncated";
    return false;
  }
  a.witness_count = tuples.size();
  a.witness_hash = WitnessHash(std::move(tuples));
  *out = a;
  if (timings != nullptr) {
    ReadDouble(line, "\"solve_ms\":", &timings->solve_ms);
    ReadDouble(line, "\"total_ms\":", &timings->total_ms);
    ReadDouble(line, "\"queue_ms\":", &timings->queue_ms);
  }
  return true;
}

void StreamChecker::AddProfile(std::int64_t k, std::int64_t cost) {
  if (k != next_k_) {
    error_ = "profile k " + std::to_string(k) + " out of order";
  } else if (cost < last_cost_) {
    error_ = "profile cost decreased at k " + std::to_string(k);
  }
  ++next_k_;
  last_cost_ = cost;
}

void StreamChecker::AddWitnesses(const std::vector<adp::TupleRef>& batch) {
  witnesses_.insert(witnesses_.end(), batch.begin(), batch.end());
}

void StreamChecker::End(bool ok, const Answer& summary) {
  ended_ = true;
  ok_ = ok;
  end_ = summary;
  if (ok && summary.feasible && last_cost_ != summary.cost) {
    error_ = "last profile cost " + std::to_string(last_cost_) +
             " != terminal cost " + std::to_string(summary.cost);
  }
}

void StreamChecker::AddLine(const std::string& line,
                            const adp::ConjunctiveQuery& q, bool terminal) {
  if (terminal) {
    Answer a;
    const bool ok = ReadStatus(line) == "OK";
    if (ok && !ReadSummary(line, &a)) error_ = "malformed stream end";
    if (!ok) error_ = "stream status " + ReadStatus(line);
    End(ok, a);
    return;
  }
  const std::size_t w = After(line, "\"witnesses\":");
  if (w != std::string::npos) {
    std::vector<adp::TupleRef> batch;
    if (!ReadTuples(line, w, q, &batch)) error_ = "malformed witness batch";
    AddWitnesses(batch);
    return;
  }
  std::int64_t k = 0, cost = 0;
  if (!ReadInt(line, "\"k\":", &k) || !ReadInt(line, "\"cost\":", &cost)) {
    error_ = "malformed stream item";
    return;
  }
  AddProfile(k, cost);
}

void StreamChecker::AddItem(const adp::StreamItem& item) {
  switch (item.kind) {
    case adp::StreamItem::Kind::kProfile:
      AddProfile(item.k, item.feasible ? item.cost : -1);
      break;
    case adp::StreamItem::Kind::kWitnesses:
      AddWitnesses(item.witnesses);
      break;
    case adp::StreamItem::Kind::kEnd: {
      Answer a;
      a.feasible = item.feasible;
      a.cost = item.feasible ? item.cost : -1;
      a.output_count = item.output_count;
      a.exact = item.exact;
      if (!item.status.ok()) {
        error_ = std::string("stream status ") +
                 adp::StatusCodeName(item.status.code());
      }
      End(item.status.ok(), a);
      break;
    }
  }
}

Answer StreamChecker::answer() const {
  Answer a = end_;
  std::vector<adp::TupleRef> w = witnesses_;
  adp::NormalizeTupleRefs(w);
  a.witness_count = w.size();
  a.witness_hash = WitnessHash(std::move(w));
  return a;
}

}  // namespace adpbench
