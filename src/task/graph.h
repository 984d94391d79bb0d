#pragma once

// Task-graph compilation (Sec II, Fig 1/2).
//
// The TaskGraph holds the ordered coarse tasks of one timestep. compile()
// builds the calling rank's *local portion* of the distributed graph: one
// DetailedTask per (task, owned patch), with
//   * internal dependency edges between local detailed tasks,
//   * external receives (MPI messages this rank must receive before a
//     detailed task may run),
//   * sends attached to the producing detailed task (new-DW data) or to
//     the start of the step (old-DW ghost data, valid since the previous
//     step), and
//   * local ghost copies performed just before a detailed task runs.
//
// The graph is compiled once and reused every timestep until the patch
// distribution changes (none of the paper's experiments regrid); message
// tags carry a step component so consecutive steps cannot cross-match.

#include <memory>
#include <vector>

#include "grid/level.h"
#include "grid/partition.h"
#include "task/task.h"
#include "var/ghost.h"

namespace usw::task {

/// One MPI message of the compiled graph.
struct ExtComm {
  int peer_rank = -1;              ///< remote rank
  int tag_base = 0;                ///< step-independent tag component
  const var::VarLabel* label = nullptr;
  WhichDW dw = WhichDW::kOld;
  int from_patch = -1;
  int to_patch = -1;
  grid::Box region;
  /// Index among the compiled graph's messages (initial sends first, then
  /// each detailed task's receives and sends): the id trace events carry.
  int id = -1;

  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(region.volume()) * sizeof(double);
  }
  /// Final tag for a given timestep (steps are distinguished mod 16).
  int tag(int step) const { return tag_base + (step & 0xF) * (1 << 26); }
};

/// A local ghost copy done just before a detailed task runs.
struct LocalCopy {
  const var::VarLabel* label = nullptr;
  WhichDW dw = WhichDW::kOld;
  int from_patch = -1;
  int to_patch = -1;
  grid::Box region;

  std::uint64_t bytes() const {
    return static_cast<std::uint64_t>(region.volume()) * sizeof(double);
  }
};

/// One (task, patch) node of the local graph.
struct DetailedTask {
  const Task* task = nullptr;
  int patch_id = -1;
  std::vector<int> successors;      ///< local detailed-task indices
  int num_internal_preds = 0;
  std::vector<ExtComm> recvs;       ///< must complete before running
  std::vector<ExtComm> sends;       ///< posted right after completion
  std::vector<LocalCopy> local_copies;  ///< done right before running
};

/// A variable this rank must allocate in the new DW at the start of each
/// step (outputs of local detailed tasks), with the ghost depth any
/// consumer ever requires so halo exchange has somewhere to land.
struct OutputAlloc {
  const var::VarLabel* label = nullptr;
  int patch_id = -1;
  int ghost = 0;
};

/// Per-reduction-task bookkeeping.
struct ReductionInfo {
  const Task* task = nullptr;
  int num_local_parts = 0;  ///< local detailed tasks feeding it
};

struct CompiledGraph {
  std::vector<DetailedTask> tasks;
  std::vector<ExtComm> initial_sends;  ///< old-DW ghost data, sent at step start
  std::vector<OutputAlloc> outputs;
  std::vector<ReductionInfo> reductions;  ///< in task-declaration order
};

class TaskGraph {
 public:
  /// Appends a task; order defines producer precedence.
  Task& add(std::unique_ptr<Task> t);

  const std::vector<std::unique_ptr<Task>>& tasks() const { return tasks_; }

  /// Maximum ghost depth any task requires of `label` (allocation depth).
  int ghost_alloc_depth(const var::VarLabel* label) const;

  /// Throws ConfigError when the graph's message tags on `num_patches`
  /// patches do not fit the MPI tag space (compile() checks it too).
  void check_tag_space(int num_patches) const;

  /// Compiles rank `rank`'s portion. Throws ConfigError for malformed
  /// graphs (missing/duplicate producers, requires of never-computed
  /// new-DW variables, too many tasks/labels for the tag space).
  CompiledGraph compile(const grid::Level& level, const grid::Partition& part,
                        int rank) const;

 private:
  std::vector<std::unique_ptr<Task>> tasks_;
};

}  // namespace usw::task
