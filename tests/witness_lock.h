// Helpers for the witness regression locks (decompose_solver_test,
// universe_solver_test): bind a catalog family's database as a root
// database and hash a witness list, so a lock can pin exact witnesses in
// one integer per solve.

#ifndef ADP_TESTS_WITNESS_LOCK_H_
#define ADP_TESTS_WITNESS_LOCK_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "relational/database.h"
#include "solver/solution.h"
#include "util/hash.h"
#include "workload/families.h"

namespace adp::testing {

/// Binds a family's named database as a root database in body order, as
/// the engine does, so witnesses carry root relation indices.
inline Database BindRoot(const workload::FamilyInstance& inst) {
  Database db(static_cast<std::size_t>(inst.query.num_relations()));
  for (int i = 0; i < inst.query.num_relations(); ++i) {
    for (std::size_t j = 0; j < inst.db.relation_names.size(); ++j) {
      if (inst.db.relation_names[j] != inst.query.relation(i).name) continue;
      RelationInstance rel = inst.db.db.rel(j);
      rel.set_root_relation(i);
      db.rel(static_cast<std::size_t>(i)) = std::move(rel);
    }
  }
  return db;
}

/// FNV-1a over the witness list rendered as "relation:row;" items.
inline std::uint64_t WitnessHash(const std::vector<TupleRef>& tuples) {
  std::string text;
  for (const TupleRef& t : tuples) {
    text += std::to_string(t.relation) + ":" + std::to_string(t.row) + ";";
  }
  return HashBytes(text.data(), text.size());
}

}  // namespace adp::testing

#endif  // ADP_TESTS_WITNESS_LOCK_H_
