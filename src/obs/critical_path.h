#pragma once

// Critical-path analysis of one executed timestep.
//
// Walks the recorded task spans against the task-graph skeleton their step
// resolves against (the init graph's for step -1; see SpanResolver):
// internal successor edges plus cross-rank send->recv edges, read from the
// skeletons' message tables (a send on rank r to (peer p, tag t) feeds the
// task on p that receives (r, t)). It computes the longest dependent chain
// of task execution time — the lower bound no scheduler can beat for this
// step. Comparing the chain against the measured makespan separates "the
// schedule is tight" from "there is slack an async scheduler could still
// hide": for the paper's Tables VI/VII, the async variant's win is exactly
// the makespan moving toward the critical path while the chain itself
// stays put.
//
// Task spans cover a detailed task's full lifetime (MPE part through
// completion, including CPE flight), and every dependency edge respects
// virtual-time order, so `total` can never exceed the step's makespan.
//
// Cost: the cross-rank DAG depends only on the skeletons, so an analyzer
// compiles it once per skeleton kind (timestep, init), at the first step
// that needs it: one node slot per (rank, task), CSR successor and
// predecessor lists, and each task's name as an index into the run's
// sorted distinct task names. A step then copies its first task spans'
// begins and durations into one slot-indexed array, kept from step to
// step, and runs the longest-path pass over the executed slots: O(step
// tasks + edges), with no lookup by key or by name and no read of a span
// after the copy.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "obs/observation.h"

namespace usw::obs {

/// One link of the critical chain, in execution order.
struct CriticalPathEntry {
  int rank = -1;
  int task = -1;  ///< detailed-task index on that rank
  std::string name;
  int patch = -1;
  TimePs begin = 0;
  TimePs duration = 0;
};

struct CriticalPathReport {
  int step = 0;
  /// Longest dependent chain: sum of task durations along the chain.
  TimePs total = 0;
  /// Measured wall of the step window: latest span end minus earliest
  /// span begin across all ranks. total <= makespan always holds.
  TimePs makespan = 0;
  std::vector<CriticalPathEntry> chain;
  /// Minimum slack per task name (0 for tasks on the critical path):
  /// how much that task could stretch without lengthening the chain.
  std::map<std::string, TimePs> slack_by_task;

  /// makespan - total: schedule time not explained by the dependency
  /// chain — overhead plus waits a better overlap could still recover.
  TimePs slack() const { return makespan - total; }
};

/// The spans of one step that the analysis reads: the step window over
/// spans of every kind, and its task spans as (index into run.ranks, index
/// into that rank's spans), added rank-major in span order.
struct StepSpans {
  TimePs lo = std::numeric_limits<TimePs>::max();
  TimePs hi = std::numeric_limits<TimePs>::min();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> tasks;

  void add(std::size_t rank_index, std::size_t span_index, const Span& s);
};

/// Critical-path analysis of the steps of one run. Compiles the DAG of a
/// skeleton kind (timestep, init) once, at the first step that needs it,
/// and keeps the step's working storage from one analyze() call to the
/// next, so analyzing every step of a run through one analyzer allocates
/// only while that storage grows.
class CriticalPathAnalyzer {
 public:
  /// `run` must outlive the analyzer.
  explicit CriticalPathAnalyzer(const RunObservation& run);

  /// The longest chain through the executed tasks of `step`, given its
  /// spans. DAG nodes are the first span of each (rank, task), numbered in
  /// the order `spans.tasks` lists them, which decides ties between
  /// equally long chains, as does the order of each node's predecessors:
  /// by source rank, then source task. O(step tasks + their edges).
  CriticalPathReport analyze(int step, const StepSpans& spans);

 private:
  /// The cross-rank DAG of one skeleton kind: a slot per (rank, task),
  /// rank-major. Each slot lists its internal successors, then the tasks
  /// its cross-rank sends feed, in message order; its predecessors are
  /// those edges in the same order, by source slot.
  struct Dag {
    bool compiled = false;
    std::vector<std::uint32_t> first;    ///< per rank + 1: its task 0's slot
    std::vector<std::uint32_t> succ_at;  ///< per slot + 1: CSR offsets
    std::vector<std::uint32_t> succs;
    std::vector<std::uint32_t> pred_at;  ///< per slot + 1: CSR offsets
    std::vector<std::uint32_t> preds;
    std::vector<std::uint32_t> name;     ///< per slot: index into names
    std::vector<const std::string*> names;  ///< distinct task names, ascending
  };
  static constexpr std::uint32_t kNoSlot = std::numeric_limits<std::uint32_t>::max();
  /// A slot's state in the step being analyzed; valid only while `call`
  /// is the current analyze() call's number.
  struct SlotState {
    std::uint64_t call = 0;  ///< the analyze() call that executed the slot
    TimePs begin = 0;        ///< of the slot's first task span
    TimePs duration = 0;
    TimePs into = 0;   ///< longest chain ending here (incl.)
    TimePs outof = 0;  ///< longest chain starting here (incl.)
    std::uint32_t best_pred = kNoSlot;
    int indeg = 0;
  };

  /// The skeleton of `rank` that the spans of a step resolve against: the
  /// init graph's for the initialization step, else the timestep graph's.
  const TaskGraphInfo& graph_of(std::size_t rank, bool init) const;
  /// The DAG of the init or the timestep skeletons, compiled at first use.
  const Dag& dag(bool init);

  const RunObservation& run_;
  std::vector<const Span*> rank_spans_;  ///< per rank: its spans' storage
  Dag dags_[2];  ///< [0] timestep, [1] init

  // analyze()'s working storage, kept from one call to the next.
  std::uint64_t calls_ = 0;
  std::vector<SlotState> slots_;        ///< per slot of the larger DAG so far
  std::vector<std::uint32_t> nodes_;    ///< executed slots, in node order
  std::vector<std::uint32_t> topo_;
  std::vector<std::optional<TimePs>> slack_;  ///< per task name: least slack
};

}  // namespace usw::obs
