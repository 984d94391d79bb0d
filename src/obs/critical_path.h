#pragma once

// Critical-path analysis of one executed timestep.
//
// Walks the recorded task spans against the task-graph skeleton their step
// resolves against (the init graph's for step -1; see SpanResolver):
// internal successor edges plus cross-rank send->recv edges matched by
// (peer, tag). It computes the longest dependent chain of task execution
// time — the lower bound no scheduler can beat for this step. Comparing the chain
// against the measured makespan separates "the schedule is tight" from
// "there is slack an async scheduler could still hide": for the paper's
// Tables VI/VII, the async variant's win is exactly the makespan moving
// toward the critical path while the chain itself stays put.
//
// Task spans cover a detailed task's full lifetime (MPE part through
// completion, including CPE flight), and every dependency edge respects
// virtual-time order, so `total` can never exceed the step's makespan.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
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

/// Analyzes timestep `step` (-1 = initialization): its committed attempt,
/// leaving out spans a deadline restart rolled back. Requires the
/// observation to carry spans and graph skeletons (collect_trace);
/// returns an empty report otherwise. One scan of every span plus one
/// CriticalPathAnalyzer::analyze(); to analyze every step, bucket the
/// spans by step in one pass and analyze each through one analyzer
/// (build_metrics does).
CriticalPathReport analyze_critical_path(const RunObservation& run, int step);

/// The spans of one step that the analysis reads: the step window over
/// spans of every kind, and its task spans as (index into run.ranks, index
/// into that rank's spans), added rank-major in span order.
struct StepSpans {
  TimePs lo = std::numeric_limits<TimePs>::max();
  TimePs hi = std::numeric_limits<TimePs>::min();
  std::vector<std::pair<std::uint32_t, std::uint32_t>> tasks;

  void add(std::size_t rank_index, std::size_t span_index, const Span& s);
};

/// Critical-path analysis of the steps of one run. Builds the cross-rank
/// send->recv edge lookup once per skeleton (timestep, init) at the first
/// step that needs it, and keeps the step DAG's working storage
/// from one analyze() call to the next, so analyzing every step of a run
/// through one analyzer allocates it only while it grows.
class CriticalPathAnalyzer {
 public:
  /// `run` must outlive the analyzer.
  explicit CriticalPathAnalyzer(const RunObservation& run);

  /// The longest chain through the executed tasks of `step`, given its
  /// spans. DAG nodes are numbered in the order `spans.tasks` lists them,
  /// which decides ties between equally long chains. O(step tasks + edges
  /// + the run's tasks).
  CriticalPathReport analyze(int step, const StepSpans& spans);

 private:
  struct Node {
    int rank = -1;
    int task = -1;
    const std::string* name = nullptr;
    int patch = -1;
    TimePs begin = 0;
    TimePs duration = 0;
  };

  /// The skeleton of `rank` that the spans of a step resolve against: the
  /// init graph's for the initialization step, else the timestep graph's.
  const TaskGraphInfo& graph_of(std::size_t rank, bool init) const;
  /// Detailed-task index on `rank` receiving (peer, tag) in the init or
  /// the timestep skeleton; -1 when none does.
  int recv_owner(bool init, std::size_t rank, int peer, int tag);

  const RunObservation& run_;
  /// Per rank, for the timestep ([0]) and the init ([1]) skeletons: which
  /// task receives the message (peer, tag). The first task declaring a key
  /// owns it. Each is built at its first use.
  std::vector<std::map<std::pair<int, int>, int>> recv_owner_[2];

  // analyze()'s working storage, reset (not freed) at every call.
  std::vector<Node> nodes_;
  std::vector<std::vector<int>> node_of_;  ///< per rank: task -> node or -1
  std::vector<std::vector<int>> succs_;    ///< per node; the first n in use
  std::vector<std::vector<int>> preds_;    ///< per node; the first n in use
  std::vector<int> indeg_;
  std::vector<int> topo_;
  std::vector<TimePs> into_;   ///< longest chain ending at node (incl.)
  std::vector<TimePs> outof_;  ///< longest chain starting at node (incl.)
  std::vector<int> best_pred_;
};

}  // namespace usw::obs
