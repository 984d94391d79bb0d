#include "obs/critical_path.h"

#include <algorithm>
#include <limits>

namespace usw::obs {

CriticalPathAnalyzer::CriticalPathAnalyzer(const RunObservation& run)
    : run_(run), node_of_(run.ranks.size()) {}

int CriticalPathAnalyzer::recv_owner(bool init, std::size_t rank, int peer, int tag) {
  std::vector<std::map<std::pair<int, int>, int>>& owners = recv_owner_[init ? 1 : 0];
  if (owners.empty()) {
    owners.resize(run_.ranks.size());
    for (std::size_t r = 0; r < run_.ranks.size(); ++r) {
      const TaskGraphInfo& g = graph_of(r, init);
      for (std::size_t t = 0; t < g.tasks.size(); ++t)
        for (const auto& key : g.tasks[t].recv_keys)
          owners[r].emplace(key, static_cast<int>(t));
    }
  }
  const auto it = owners[rank].find({peer, tag});
  return it == owners[rank].end() ? -1 : it->second;
}

const TaskGraphInfo& CriticalPathAnalyzer::graph_of(std::size_t rank, bool init) const {
  const RankObservation& r = run_.ranks[rank];
  return init ? r.init_graph() : r.graph();
}

void StepSpans::add(std::size_t rank_index, std::size_t span_index, const Span& s) {
  lo = std::min(lo, s.begin);
  hi = std::max(hi, s.end);
  if (s.kind() == SpanKind::kTask && s.b >= 0)
    tasks.emplace_back(static_cast<std::uint32_t>(rank_index),
                       static_cast<std::uint32_t>(span_index));
}

CriticalPathReport CriticalPathAnalyzer::analyze(int step,
                                                 const StepSpans& spans) {
  CriticalPathReport report;
  report.step = step;
  // The initialization step's spans resolve against the init skeletons.
  const bool init = step < 0;

  // DAG nodes: one per (rank, task), the first span of each, numbered
  // rank-major in span order.
  nodes_.clear();
  for (std::size_t r = 0; r < node_of_.size(); ++r)
    node_of_[r].assign(graph_of(r, init).tasks.size(), -1);
  for (const auto& [r, i] : spans.tasks) {
    const RankObservation& rank = run_.ranks[r];
    const Span& s = rank.spans()[i];
    const auto t = static_cast<std::size_t>(s.b);
    std::vector<int>& node_of = node_of_[r];
    if (t >= node_of.size() || node_of[t] >= 0) continue;
    node_of[t] = static_cast<int>(nodes_.size());
    // Name nodes by the graph's task name (the patch is a separate field).
    const TaskNodeInfo& task = graph_of(r, init).tasks[t];
    nodes_.push_back(Node{rank.rank, s.b, &task.name, task.patch, s.begin, s.duration()});
  }
  if (nodes_.empty()) return report;
  report.makespan = spans.hi - spans.lo;

  // Dependency edges: internal successors plus cross-rank send->recv pairs
  // matched on (peer, tag). Only edges between executed nodes count.
  const std::size_t n = nodes_.size();
  if (succs_.size() < n) {
    succs_.resize(n);
    preds_.resize(n);
  }
  for (std::size_t i = 0; i < n; ++i) {
    succs_[i].clear();
    preds_[i].clear();
  }
  auto add_edge = [this](int from, int to) {
    succs_[static_cast<std::size_t>(from)].push_back(to);
    preds_[static_cast<std::size_t>(to)].push_back(from);
  };
  for (std::size_t r = 0; r < run_.ranks.size(); ++r) {
    const TaskGraphInfo& g = graph_of(r, init);
    const std::vector<int>& node_of = node_of_[r];
    for (std::size_t t = 0; t < g.tasks.size(); ++t) {
      const int from = node_of[t];
      if (from < 0) continue;
      for (int succ : g.tasks[t].successors) {
        if (succ >= 0 && static_cast<std::size_t>(succ) < node_of.size() &&
            node_of[static_cast<std::size_t>(succ)] >= 0)
          add_edge(from, node_of[static_cast<std::size_t>(succ)]);
      }
      for (const auto& [peer, tag] : g.tasks[t].send_keys) {
        if (peer < 0 || static_cast<std::size_t>(peer) >= run_.ranks.size())
          continue;
        const int owner =
            recv_owner(init, static_cast<std::size_t>(peer), static_cast<int>(r), tag);
        if (owner < 0) continue;
        const int to =
            node_of_[static_cast<std::size_t>(peer)][static_cast<std::size_t>(owner)];
        if (to >= 0) add_edge(from, to);
      }
    }
  }

  // Longest paths into and out of every node, in topological order.
  indeg_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (int s : succs_[i]) indeg_[static_cast<std::size_t>(s)]++;
  topo_.clear();
  for (std::size_t i = 0; i < n; ++i)
    if (indeg_[i] == 0) topo_.push_back(static_cast<int>(i));
  for (std::size_t head = 0; head < topo_.size(); ++head)
    for (int s : succs_[static_cast<std::size_t>(topo_[head])])
      if (--indeg_[static_cast<std::size_t>(s)] == 0) topo_.push_back(s);

  into_.assign(n, 0);
  outof_.assign(n, 0);
  best_pred_.assign(n, -1);
  for (int id : topo_) {
    const auto i = static_cast<std::size_t>(id);
    into_[i] = nodes_[i].duration;
    for (int p : preds_[i]) {
      const auto pi = static_cast<std::size_t>(p);
      if (into_[pi] + nodes_[i].duration > into_[i]) {
        into_[i] = into_[pi] + nodes_[i].duration;
        best_pred_[i] = p;
      }
    }
  }
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    const auto i = static_cast<std::size_t>(*it);
    outof_[i] = nodes_[i].duration;
    for (int s : succs_[i])
      outof_[i] = std::max(outof_[i],
                           nodes_[i].duration + outof_[static_cast<std::size_t>(s)]);
  }

  int tail = 0;
  for (std::size_t i = 1; i < n; ++i)
    if (into_[i] > into_[static_cast<std::size_t>(tail)]) tail = static_cast<int>(i);
  report.total = into_[static_cast<std::size_t>(tail)];

  for (int at = tail; at >= 0; at = best_pred_[static_cast<std::size_t>(at)]) {
    const Node& node = nodes_[static_cast<std::size_t>(at)];
    report.chain.push_back(CriticalPathEntry{node.rank, node.task, *node.name,
                                             node.patch, node.begin,
                                             node.duration});
  }
  std::reverse(report.chain.begin(), report.chain.end());

  for (std::size_t i = 0; i < n; ++i) {
    const TimePs slack = report.total - (into_[i] + outof_[i] - nodes_[i].duration);
    const auto it = report.slack_by_task.find(*nodes_[i].name);
    if (it == report.slack_by_task.end())
      report.slack_by_task.emplace(*nodes_[i].name, slack);
    else
      it->second = std::min(it->second, slack);
  }
  return report;
}

CriticalPathReport analyze_critical_path(const RunObservation& run, int step) {
  StepSpans spans;
  for (std::size_t r = 0; r < run.ranks.size(); ++r) {
    const std::span<const Span> rank_spans = run.ranks[r].spans();
    for (std::size_t i = 0; i < rank_spans.size(); ++i)
      if (rank_spans[i].step == step && !rank_spans[i].rolled_back)
        spans.add(r, i, rank_spans[i]);
  }
  return CriticalPathAnalyzer(run).analyze(step, spans);
}

}  // namespace usw::obs
