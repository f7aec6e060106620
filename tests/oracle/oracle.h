// Test-only oracles for the final allocation and the legality check.
//
// oracle::tetris_allocate and oracle::check_legality are the
// implementations that legal::tetris_allocate and db::check_legality
// replaced with linear passes. The allocation oracle is the plain scan:
// obstacles registered with place_fixed, then every cell tested with
// is_free and placed in (site, id) order, on the production OwnedOccupancy.
// Production sweeps per-row frontiers instead and builds the grid only
// when step 3 has cells to relocate. The legality oracle builds
// vector-of-vector row lists and sorts them through an indirect
// comparator; production uses CSR row lists. Production must reproduce
// both bitwise: the same positions, the same TetrisStats and the same
// LegalityReport, detail strings included
// (tests/legal/alloc_contract_test.cpp). The flat occupancy rows are
// checked on their own against a bitmap (occupancy_property_test).
#pragma once

#include "db/design.h"
#include "db/legality.h"
#include "legal/tetris_alloc.h"

namespace mch::oracle {

legal::TetrisStats tetris_allocate(db::Design& design);

db::LegalityReport check_legality(const db::Design& design,
                                  const db::LegalityOptions& options = {});

}  // namespace mch::oracle
