// Reusable per-problem solver scratch: the workspace arena.
//
// The partitioned legalizer solves hundreds of component LCPs per call and
// is re-entered once per legalization pass. Allocating every solver's
// iteration buffers per component per call puts the allocator on the hot
// path; the arena instead keeps one Slot per component slot index alive
// across solves (and across outer calls), so steady-state solves allocate
// nothing inside the solve loop — reset_state()/solve_psor_in() only
// reuse capacity.
//
// A Slot also carries the previous solve's final iterate for that slot
// (MMSIM's splitting vector s, PSOR's z). A warm-started solve starts from
// it when the shapes still match; warm starts change only the iteration
// count, never the fixed point. One-shot legalize calls drop every payload
// on entry (forget_warm_starts), so only solves inside one call — the
// escalated retry — and the session's ECO slots, keyed by anchor cell,
// ever start warm.
//
// Lifetime / thread-safety rules:
//   * prepare() must run with no solve in flight; it only grows the table.
//   * Slots live in a deque, so growing never moves existing slots —
//     references handed to parallel workers stay valid (the ASan job
//     exercises this).
//   * Distinct slots may be used concurrently; one slot must not.
#pragma once

#include <cstddef>
#include <deque>

#include "lcp/mmsim.h"

namespace mch::lcp {

class SolverWorkspace {
 public:
  struct Slot {
    MmsimSolver::State state;  ///< MMSIM buffers; capacity kept across solves
    Vector warm_s;             ///< previous MMSIM final s (empty = cold)
    Vector psor_z;             ///< PSOR iterate buffer / warm start
    /// Shape of warm_s / psor_z when they were stored; a later solve only
    /// warm-starts when its own (n, m) matches.
    std::size_t warm_variables = 0;
    std::size_t warm_constraints = 0;

    /// True when the slot holds a warm-start payload usable by a solve of
    /// shape (n, m) — i.e. a warm-started solve would actually start warm.
    bool has_warm(std::size_t n, std::size_t m) const {
      return warm_variables == n && warm_constraints == m &&
             (warm_s.size() == n + m || (m == 0 && psor_z.size() == n));
    }
  };

  /// Grows the table to at least `count` slots. Existing slots (and their
  /// warm-start payloads) are untouched.
  void prepare(std::size_t count) {
    while (slots_.size() < count) slots_.emplace_back();
  }

  std::size_t size() const { return slots_.size(); }
  Slot& slot(std::size_t i) { return slots_[i]; }

  /// Drops every slot's warm-start payload (keeps buffer capacity). Call
  /// when the slots are about to be reused for an unrelated problem set.
  void forget_warm_starts() {
    for (Slot& slot : slots_) {
      slot.warm_s.clear();
      slot.psor_z.clear();
      slot.warm_variables = 0;
      slot.warm_constraints = 0;
    }
  }

 private:
  std::deque<Slot> slots_;
};

}  // namespace mch::lcp
