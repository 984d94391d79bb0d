#include "runtime/observe.h"

#include <utility>

namespace usw::runtime {

obs::TaskGraphInfo graph_info_of(const task::CompiledGraph& graph) {
  obs::TaskGraphInfo info;
  info.tasks.reserve(graph.tasks.size());
  std::size_t messages = graph.initial_sends.size();
  for (const task::DetailedTask& dt : graph.tasks)
    messages += dt.recvs.size() + dt.sends.size();
  info.messages.resize(messages);
  const auto add_message = [&info](const task::ExtComm& c, int local_patch,
                                   int task, bool send) {
    info.messages.at(static_cast<std::size_t>(c.id)) = obs::MessageInfo{
        c.label->name() + " p" + std::to_string(c.from_patch) + "->p" +
            std::to_string(c.to_patch),
        local_patch, c.peer_rank, c.tag_base, c.bytes(), task, send};
  };
  for (const task::ExtComm& sc : graph.initial_sends)
    add_message(sc, sc.from_patch, -1, true);
  for (std::size_t t = 0; t < graph.tasks.size(); ++t) {
    const task::DetailedTask& dt = graph.tasks[t];
    obs::TaskNodeInfo node;
    node.name = dt.task->name();
    node.label = node.name + " p" + std::to_string(dt.patch_id);
    node.patch = dt.patch_id;
    node.successors = dt.successors;
    const int task = static_cast<int>(t);
    for (const task::ExtComm& rc : dt.recvs) add_message(rc, rc.to_patch, task, false);
    for (const task::ExtComm& sc : dt.sends) add_message(sc, sc.from_patch, task, true);
    info.tasks.push_back(std::move(node));
  }
  for (const task::ReductionInfo& r : graph.reductions)
    info.reductions.push_back(r.task->name());
  return info;
}

obs::RunObservation observe(const RunResult& result) {
  obs::RunObservation run;
  run.nranks = result.nranks;
  run.timesteps = result.timesteps;
  run.first_step = result.first_step;
  run.ranks.reserve(result.ranks.size());
  for (std::size_t i = 0; i < result.ranks.size(); ++i) {
    const RankResult& r = result.ranks[i];
    obs::RankObservation& ro = run.ranks.emplace_back();
    ro.rank = static_cast<int>(i);
    ro.trace = r.trace;
    ro.skeleton = r.graph_info;
    ro.init_skeleton = r.init_graph_info;
    ro.counters = r.counters;
    ro.metrics = r.obs_metrics;
    ro.step_walls = r.step_walls;
    ro.init_wall = r.init_wall;
  }
  return run;
}

}  // namespace usw::runtime
