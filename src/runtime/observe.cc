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
  const auto add_message = [&info](const task::ExtComm& c, int local_patch) {
    info.messages.at(static_cast<std::size_t>(c.id)) = obs::MessageInfo{
        c.label->name() + " p" + std::to_string(c.from_patch) + "->p" +
            std::to_string(c.to_patch),
        local_patch, c.peer_rank, c.tag_base, c.bytes()};
  };
  for (const task::ExtComm& sc : graph.initial_sends) add_message(sc, sc.from_patch);
  for (const task::DetailedTask& dt : graph.tasks) {
    obs::TaskNodeInfo node;
    node.name = dt.task->name();
    node.label = node.name + " p" + std::to_string(dt.patch_id);
    node.patch = dt.patch_id;
    node.successors = dt.successors;
    for (const task::ExtComm& rc : dt.recvs) {
      node.recv_keys.emplace_back(rc.peer_rank, rc.tag_base);
      add_message(rc, rc.to_patch);
    }
    for (const task::ExtComm& sc : dt.sends) {
      node.send_keys.emplace_back(sc.peer_rank, sc.tag_base);
      add_message(sc, sc.from_patch);
    }
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
