#pragma once

// Opt-in task-graph access checker (Uintah-style runtime validation).
//
// The async MPE+CPE scheduler is only correct if every data-warehouse
// access is covered by a declared requires/computes/modifies edge: the
// compiled task graph derives dependencies and MPI messages *only* from
// those declarations, so an undeclared access silently reads stale halos
// or races with another task. Uintah itself grew exactly this kind of
// validation because hand-declared dependencies go stale as applications
// evolve. This checker makes the invariants machine-checked:
//
//   (a) reads must be covered by a Requires of the right warehouse at
//       sufficient ghost depth (kUndeclaredRead / kInsufficientGhost);
//   (b) writes must be covered by a Computes or Modifies
//       (kUndeclaredWrite);
//   (c) write-write overlap between concurrently schedulable detailed
//       tasks — no happens-before path in the compiled graph — is a race
//       (kConcurrentWriteOverlap), as is overlap between the write-sets
//       of two CPE tiles of one offload (kTileOverlap, see tile_check.h);
//   (d) the compiled communication must be unambiguous and fully consumed
//       (kTagAmbiguity / kOrphanMessage, see comm_lint.h).
//
// One AccessChecker serves one rank's compiled graph. The scheduler
// brackets task execution with begin_task()/end_task() and records the
// precise regions of stencil reads/writes, halo copies and receive
// unpacks; the data warehouse reports label-level get/put traffic through
// the var::AccessObserver hooks, which catches undeclared accesses made
// by application MPE-task lambdas. Accesses outside any task scope are
// runtime bookkeeping (output allocation, send packing) and are ignored.
//
// Everything is off by default: with CheckConfig::enabled == false no
// checker is constructed, no observer is installed, and the only cost in
// the hot path is a null-pointer test.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "grid/level.h"
#include "task/graph.h"
#include "var/datawarehouse.h"

namespace usw::check {

/// Enabling validation runs every check above, (a) through (d), plus the
/// dynamic happens-before race oracle (hb.h).
struct CheckConfig {
  bool enabled = false;  ///< master switch; no cost at all when false
};

enum class ViolationKind {
  kUndeclaredRead,          ///< read with no covering Requires
  kInsufficientGhost,       ///< read region exceeds the declared ghost depth
  kUndeclaredWrite,         ///< write with no covering Computes/Modifies
  kConcurrentWriteOverlap,  ///< unordered tasks write overlapping cells
  kTileOverlap,             ///< two CPE tiles write overlapping cells
  kTileCoverage,            ///< tile partition does not cover the patch
  kTagAmbiguity,            ///< two messages share a (peer, tag) pair
  kOrphanMessage,           ///< message sent but never received
  kUnorderedAccess,         ///< accesses with no dynamic happens-before edge
};

const char* to_string(ViolationKind kind);

struct Violation {
  ViolationKind kind = ViolationKind::kUndeclaredRead;
  std::string task;    ///< offending task name ("" = graph/runtime level)
  std::string label;   ///< variable name ("" if not variable-related)
  int patch_id = -1;   ///< offending patch (-1 if not patch-related)
  grid::Box box;       ///< offending region (empty if not region-related)
  std::string detail;  ///< full human-readable description

  /// "kind: detail [task=... label=... patch=... box=...]".
  std::string to_string() const;
};

/// Builds a Violation and fills the bracketed context suffix of `detail`.
Violation make_violation(ViolationKind kind, const std::string& task,
                         const std::string& label, int patch_id,
                         const grid::Box& box, const std::string& detail);

class AccessChecker final : public var::AccessObserver {
 public:
  /// `level` and `graph` must outlive the checker.
  AccessChecker(const grid::Level& level, const task::CompiledGraph& graph);

  // ---- Scheduler wiring ----

  /// Tells the checker which warehouse object plays which role, so
  /// observer callbacks can resolve old-vs-new. Call once per execute().
  void bind_warehouses(const var::DataWarehouse* old_dw,
                       const var::DataWarehouse* new_dw);

  /// Starts a fresh timestep: clears the per-step write log (the same
  /// graph re-runs every step, so overlaps are per-step facts).
  void begin_step();

  /// Brackets the MPE-side execution of detailed task `dt_index`; DW
  /// accesses outside any bracket are runtime bookkeeping and ignored.
  void begin_task(int dt_index);
  void end_task();

  // ---- Precise region recordings (scheduler) ----

  /// A stencil kernel reads `region` of `label` from warehouse `dw`.
  void record_stencil_read(int dt_index, const var::VarLabel* label,
                           task::WhichDW dw, const grid::Box& region);

  /// Detailed task `dt_index` writes `region` of new-DW `label`.
  void record_write(int dt_index, const var::VarLabel* label,
                    const grid::Box& region);

  /// A completed receive was unpacked into the consumer's halo.
  void record_recv_unpack(int dt_index, const task::ExtComm& rc);

  /// A local ghost copy ran just before the task.
  void record_local_copy(int dt_index, const task::LocalCopy& lc);

  /// The per-CPE tile write-sets of one offload (checked once per
  /// detailed task; the tiling is static across steps).
  void record_tile_partition(int dt_index, const grid::Box& patch_cells,
                             const std::vector<std::pair<int, grid::Box>>& tiles);

  // ---- var::AccessObserver ----

  void on_get(const var::DataWarehouse& dw, const var::VarLabel* label,
              int patch_id) override;
  void on_write(const var::DataWarehouse& dw, const var::VarLabel* label,
                int patch_id) override;
  void on_allocate(const var::DataWarehouse& dw, const var::VarLabel* label,
                   int patch_id) override;

  // ---- Results ----

  std::vector<Violation> take_violations() { return std::move(violations_); }

 private:
  /// Per-task declaration summary, indexed like graph_.tasks.
  struct Decl {
    std::map<int, int> old_ghost;  ///< label id -> max declared old-DW ghost
    std::map<int, int> new_ghost;  ///< label id -> max declared new-DW ghost
    std::set<int> writes;          ///< label ids in computes + modifies
  };

  const task::DetailedTask& dt(int index) const {
    return graph_.tasks[static_cast<std::size_t>(index)];
  }
  const std::string& task_name(int index) const {
    return dt(index).task->name();
  }
  /// Declared ghost depth of (label, dw) for task `dt_index`; -1 if the
  /// task has no matching Requires.
  int declared_ghost(int dt_index, const var::VarLabel* label,
                     task::WhichDW dw) const;
  bool declares_write(int dt_index, const var::VarLabel* label) const;
  /// Neither task can observe the other's completion in the compiled
  /// happens-before order.
  bool unordered(int a, int b) const;
  /// Role of `dw` under the current binding; -1 old, +1 new, 0 unknown.
  int role_of(const var::DataWarehouse& dw) const;
  /// Records `v` (deduplicated, logged).
  void report(Violation v);

  const grid::Level& level_;
  const task::CompiledGraph& graph_;
  std::vector<Decl> decls_;
  /// Transitive successor closure, one bitset row per detailed task.
  std::vector<std::vector<std::uint64_t>> closure_;

  const var::DataWarehouse* old_dw_ = nullptr;
  const var::DataWarehouse* new_dw_ = nullptr;
  int current_task_ = -1;

  struct WriteRec {
    int dt_index;
    grid::Box box;
  };
  /// Per-step write log: (label id, patch id) -> recorded writes.
  std::map<std::pair<int, int>, std::vector<WriteRec>> writes_;
  std::vector<bool> tiles_checked_;  ///< per detailed task

  std::vector<Violation> violations_;
  /// Dedup key: (kind, task, label, patch) — the same declaration bug
  /// fires every step; report it once.
  std::set<std::tuple<int, std::string, std::string, int>> seen_;
};

}  // namespace usw::check
