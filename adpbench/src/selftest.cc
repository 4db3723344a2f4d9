// Self-tests of the benchmark itself, run before every measurement:
// seeded determinism of the op plan, an oracle that rejects corrupted
// answers on every decode path, exact quantiles, and the ledger arithmetic.
#include <cmath>
#include <iostream>
#include <numeric>

#include "bench.h"
#include "net/textproto.h"
#include "solver/compute_adp.h"

namespace adpbench {

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "adpbench self-test FAILED: " << what << "\n";
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void SameSeedSamePlan() {
  for (const char* name : kWorkloadNames) {
    const Workload a = MakeWorkload(name, 7);
    const Workload b = MakeWorkload(name, 7);
    const Workload c = MakeWorkload(name, 8);
    bool same = a.plans.size() == b.plans.size() &&
                a.trace_sample.size() == b.trace_sample.size() &&
                a.pairs.size() == b.pairs.size();
    for (std::size_t i = 0; same && i < a.plans.size(); ++i) {
      same = a.plans[i].size() == b.plans[i].size();
      for (std::size_t j = 0; same && j < a.plans[i].size(); ++j) {
        same = a.plans[i][j].kind == b.plans[i][j].kind &&
               a.plans[i][j].pair == b.plans[i][j].pair;
      }
    }
    for (std::size_t i = 0; same && i < a.pairs.size(); ++i) {
      same = a.pairs[i].k == b.pairs[i].k;
    }
    for (std::size_t i = 0; same && i < a.families.size(); ++i) {
      same = a.families[i].db_line == b.families[i].db_line &&
             a.families[i].query_text == b.families[i].query_text;
    }
    Expect(same, std::string(name) + ": same seed gives the same inputs");
    bool differs = false;
    for (std::size_t i = 0; i < a.families.size(); ++i) {
      differs = differs || a.families[i].db_line != c.families[i].db_line;
    }
    Expect(differs, std::string(name) + ": another seed gives other databases");
  }
}

void OracleRejectsCorruption() {
  Workload w = MakeWorkload("light_net", 3);
  Expect(FillOracle(w).empty(), "oracle solves the light_net pairs");
  // A pair with witnesses, so every field can be corrupted.
  const Pair* pair = nullptr;
  for (const Pair& p : w.pairs) {
    if (p.expected.witness_count > 1) pair = &p;
  }
  Expect(pair != nullptr, "a light_net pair has several witnesses");
  if (pair == nullptr) return;
  const Family& f = w.families[pair->family];
  adp::AdpSolution s = adp::ComputeAdp(f.query, f.db.db, pair->k);
  Expect(CompareAnswers(AnswerOf(s), pair->expected).empty(),
         "the oracle accepts a correct answer");

  Answer bad = pair->expected;
  bad.cost += 1;
  Expect(!CompareAnswers(bad, pair->expected).empty(), "rejects a wrong cost");
  adp::AdpSolution dropped = s;
  dropped.tuples.pop_back();
  Expect(!CompareAnswers(AnswerOf(dropped), pair->expected).empty(),
         "rejects a witness set missing a tuple");
  adp::AdpSolution swapped = s;
  swapped.tuples.back().row += 1000;
  Expect(!CompareAnswers(AnswerOf(swapped), pair->expected).empty(),
         "rejects a witness set with a wrong tuple");

  // The wire path: a correct line decodes equal, a corrupted one does not.
  adp::AdpResponse resp;
  resp.solution = s;
  Answer decoded;
  std::string why;
  const std::string line = adp::net::FormatResponseLine(1, "f0", pair->k, resp, &f.query);
  Expect(DecodeResultLine(line, f.query, &decoded, &why) &&
             CompareAnswers(decoded, pair->expected).empty(),
         "a correct wire result decodes to the oracle answer: " + why);
  resp.solution = swapped;
  const std::string corrupt =
      adp::net::FormatResponseLine(1, "f0", pair->k, resp, &f.query);
  Expect(DecodeResultLine(corrupt, f.query, &decoded, &why) &&
             !CompareAnswers(decoded, pair->expected).empty(),
         "a corrupted wire result is rejected");

  // Infeasible decodes the same way on both paths.
  adp::AdpSolution infeasible;
  infeasible.feasible = false;
  infeasible.cost = adp::kInfCost;
  infeasible.output_count = 5;
  resp.solution = infeasible;
  Expect(DecodeResultLine(adp::net::FormatResponseLine(1, "f0", 9, resp, &f.query),
                          f.query, &decoded, &why) &&
             CompareAnswers(decoded, AnswerOf(infeasible)).empty() &&
             decoded.cost == -1 && !decoded.feasible,
         "wire cost:-1 decodes like in-process feasible=false");

  // A stream whose profile skips a k is rejected.
  StreamChecker ck;
  ck.AddProfile(1, 1);
  ck.AddProfile(3, 2);
  Answer end = pair->expected;
  end.cost = 2;
  ck.End(true, end);
  Expect(!ck.ok(), "rejects a stream whose profile skips a k");
}

void QuantilesAreExact() {
  std::vector<double> v(100);
  std::iota(v.begin(), v.end(), 1.0);
  std::reverse(v.begin(), v.end());
  Expect(Near(ExactQuantile(v, 0.5).value, 50.0), "p50 of 1..100 is 50");
  const Quantile p99 = ExactQuantile(v, 0.99);
  Expect(Near(p99.value, 99.0) && p99.beyond == 1 && p99.samples == 100,
         "p99 of 1..100 is 99 with 1 beyond");
  Expect(Near(ExactQuantile(v, 1.0).value, 100.0), "p100 of 1..100 is 100");
  Expect(Near(ExactQuantile(v, 0.001).value, 1.0), "p0.1 of 1..100 is 1");
  std::vector<double> big(1000);
  std::iota(big.begin(), big.end(), 1.0);
  const Quantile q = ExactQuantile(big, 0.99);
  Expect(Near(q.value, 990.0) && q.beyond == 10, "p99 of 1..1000 is 990, 10 beyond");
  Expect(Near(ExactQuantile({4.0, 1.0, 3.0, 2.0}, 0.5).value, 2.0),
         "p50 of four samples is the 2nd smallest");
  Expect(std::isnan(ExactQuantile({}, 0.5).value), "no samples give NaN");
}

void LedgerArithmetic() {
  // Self time with overlapping children: [0,10] minus [1,3]u[2,4]u[6,7].
  std::vector<Span> nested = {{"op", 0, 10, -1, 0, true},
                              {"a", 1, 3, 0, 0, true},
                              {"b", 2, 4, 0, 0, true},
                              {"c", 6, 7, 0, 0, true},
                              {"d", 9, 12, 0, 0, true}};
  const std::vector<double> self = SelfTimes(nested);
  Expect(Near(self[0], 10.0 - 3.0 - 1.0 - 1.0), "self time subtracts the union of children");
  Expect(Near(self[1], 2.0) && Near(self[4], 3.0), "leaf self time is its duration");

  // One op: parse 1, count 1, counting-only solve 3 (repeats the count),
  // witnessing solve 4 (repeats the profile), an off-path span, and a real
  // call of 8 ms. Layers: net 1, relational 1, solver (3-1)+(4-3) = 3,
  // so the residual is 1 - 5/8.
  std::vector<Span> spans = {{"op", 0, 20, -1, 0, true},
                             {"textproto.parse", 0, 1, 0, 0, true},
                             {"relational.count", 1, 2, 0, 0, true},
                             {"solver.profile", 2, 5, 0, 0, true},
                             {"solver.full", 5, 9, 0, 0, true},
                             {"query.parse", 9, 9.5, 0, 0, false},
                             {"real", 10, 18, 0, 0, true},
                             // A second op: solver 2 of real 4.
                             {"op", 20, 30, -1, 1, true},
                             {"solver.profile", 20, 21, 7, 1, true},
                             {"solver.full", 21, 23, 7, 1, true},
                             {"real", 24, 28, 7, 1, true}};
  const std::map<int, OpLedger> ledger = BuildLedger(spans);
  const OpLedger& op0 = ledger.at(0);
  Expect(Near(op0.layer_ms.at("net"), 1.0) && Near(op0.layer_ms.at("relational"), 1.0) &&
             Near(op0.layer_ms.at("solver"), 3.0) && !op0.layer_ms.count("query"),
         "ledger charges each piece of solver work once and skips off-path spans");
  Expect(Near(op0.layered_ms, 5.0) && Near(op0.real_ms, 8.0), "op 0 sums 5 of 8");
  Expect(Near(ledger.at(1).layered_ms, 2.0), "op 1 sums 2");
  Expect(Near(ResidualShare(ledger), 1.0 - 7.0 / 12.0), "residual is 1 - 7/12");
}

}  // namespace

int RunSelfTests() {
  failures = 0;
  SameSeedSamePlan();
  OracleRejectsCorruption();
  QuantilesAreExact();
  LedgerArithmetic();
  return failures;
}

}  // namespace adpbench
