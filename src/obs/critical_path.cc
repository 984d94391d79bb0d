#include "obs/critical_path.h"

#include <algorithm>
#include <limits>

namespace usw::obs {

CriticalPathIndex::CriticalPathIndex(const RunObservation& run)
    : recv_owner_(run.ranks.size()) {
  for (std::size_t r = 0; r < run.ranks.size(); ++r) {
    const TaskGraphInfo& g = run.ranks[r].graph;
    for (std::size_t t = 0; t < g.tasks.size(); ++t)
      for (const auto& key : g.tasks[t].recv_keys)
        recv_owner_[r].emplace(key, static_cast<int>(t));
  }
}

int CriticalPathIndex::recv_owner(std::size_t rank, int peer, int tag) const {
  const auto it = recv_owner_[rank].find({peer, tag});
  return it == recv_owner_[rank].end() ? -1 : it->second;
}

void StepSpans::add(std::size_t rank_index, std::size_t span_index, const Span& s) {
  lo = std::min(lo, s.begin);
  hi = std::max(hi, s.end);
  if (s.kind == SpanKind::kTask && s.ids.task >= 0)
    tasks.emplace_back(static_cast<std::uint32_t>(rank_index),
                       static_cast<std::uint32_t>(span_index));
}

CriticalPathReport analyze_step(const RunObservation& run,
                                const CriticalPathIndex& index, int step,
                                const StepSpans& spans) {
  CriticalPathReport report;
  report.step = step;

  struct Node {
    int rank = -1;
    int task = -1;
    const std::string* name = nullptr;
    int patch = -1;
    TimePs begin = 0;
    TimePs duration = 0;
  };

  // DAG nodes: one per (rank, task), the first span of each, numbered
  // rank-major in span order.
  std::vector<Node> nodes;
  std::vector<std::vector<int>> node_of(run.ranks.size());
  for (std::size_t r = 0; r < run.ranks.size(); ++r)
    node_of[r].assign(run.ranks[r].graph.tasks.size(), -1);
  for (const auto& [r, i] : spans.tasks) {
    const RankObservation& rank = run.ranks[r];
    const Span* s = &rank.spans[i];
    const auto t = static_cast<std::size_t>(s->ids.task);
    if (t >= node_of[r].size() || node_of[r][t] >= 0) continue;
    node_of[r][t] = static_cast<int>(nodes.size());
    // Name nodes by the graph's task name (the patch is a separate field).
    nodes.push_back(Node{rank.rank, s->ids.task, &rank.graph.tasks[t].name,
                         s->ids.patch, s->begin, s->duration()});
  }
  if (nodes.empty()) return report;
  report.makespan = spans.hi - spans.lo;

  // Dependency edges: internal successors plus cross-rank send->recv pairs
  // matched on (peer, tag). Only edges between executed nodes count.
  const std::size_t n = nodes.size();
  std::vector<std::vector<int>> succs(n);
  std::vector<std::vector<int>> preds(n);
  auto add_edge = [&](int from, int to) {
    succs[static_cast<std::size_t>(from)].push_back(to);
    preds[static_cast<std::size_t>(to)].push_back(from);
  };
  for (std::size_t r = 0; r < run.ranks.size(); ++r) {
    const TaskGraphInfo& g = run.ranks[r].graph;
    for (std::size_t t = 0; t < g.tasks.size(); ++t) {
      const int from = node_of[r][t];
      if (from < 0) continue;
      for (int succ : g.tasks[t].successors) {
        if (succ >= 0 && static_cast<std::size_t>(succ) < node_of[r].size() &&
            node_of[r][static_cast<std::size_t>(succ)] >= 0)
          add_edge(from, node_of[r][static_cast<std::size_t>(succ)]);
      }
      for (const auto& [peer, tag] : g.tasks[t].send_keys) {
        if (peer < 0 || static_cast<std::size_t>(peer) >= run.ranks.size())
          continue;
        const int owner =
            index.recv_owner(static_cast<std::size_t>(peer), static_cast<int>(r), tag);
        if (owner < 0) continue;
        const int to =
            node_of[static_cast<std::size_t>(peer)][static_cast<std::size_t>(owner)];
        if (to >= 0) add_edge(from, to);
      }
    }
  }

  // Longest paths into and out of every node, in topological order.
  std::vector<int> indeg(n, 0);
  for (std::size_t i = 0; i < n; ++i)
    for (int s : succs[i]) indeg[static_cast<std::size_t>(s)]++;
  std::vector<int> topo;
  topo.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    if (indeg[i] == 0) topo.push_back(static_cast<int>(i));
  for (std::size_t head = 0; head < topo.size(); ++head)
    for (int s : succs[static_cast<std::size_t>(topo[head])])
      if (--indeg[static_cast<std::size_t>(s)] == 0) topo.push_back(s);

  std::vector<TimePs> into(n);   ///< longest chain ending at node (incl.)
  std::vector<TimePs> outof(n);  ///< longest chain starting at node (incl.)
  std::vector<int> best_pred(n, -1);
  for (int id : topo) {
    const auto i = static_cast<std::size_t>(id);
    into[i] = nodes[i].duration;
    for (int p : preds[i]) {
      const auto pi = static_cast<std::size_t>(p);
      if (into[pi] + nodes[i].duration > into[i]) {
        into[i] = into[pi] + nodes[i].duration;
        best_pred[i] = p;
      }
    }
  }
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    const auto i = static_cast<std::size_t>(*it);
    outof[i] = nodes[i].duration;
    for (int s : succs[i])
      outof[i] = std::max(outof[i],
                          nodes[i].duration + outof[static_cast<std::size_t>(s)]);
  }

  int tail = 0;
  for (std::size_t i = 1; i < n; ++i)
    if (into[i] > into[static_cast<std::size_t>(tail)]) tail = static_cast<int>(i);
  report.total = into[static_cast<std::size_t>(tail)];

  for (int at = tail; at >= 0; at = best_pred[static_cast<std::size_t>(at)]) {
    const Node& node = nodes[static_cast<std::size_t>(at)];
    report.chain.push_back(CriticalPathEntry{node.rank, node.task, *node.name,
                                             node.patch, node.begin,
                                             node.duration});
  }
  std::reverse(report.chain.begin(), report.chain.end());

  for (std::size_t i = 0; i < n; ++i) {
    const TimePs slack = report.total - (into[i] + outof[i] - nodes[i].duration);
    const auto it = report.slack_by_task.find(*nodes[i].name);
    if (it == report.slack_by_task.end())
      report.slack_by_task.emplace(*nodes[i].name, slack);
    else
      it->second = std::min(it->second, slack);
  }
  return report;
}

CriticalPathReport analyze_critical_path(const RunObservation& run, int step) {
  StepSpans spans;
  for (std::size_t r = 0; r < run.ranks.size(); ++r) {
    const std::vector<Span>& rank_spans = run.ranks[r].spans;
    for (std::size_t i = 0; i < rank_spans.size(); ++i)
      if (rank_spans[i].ids.step == step) spans.add(r, i, rank_spans[i]);
  }
  return analyze_step(run, CriticalPathIndex(run), step, spans);
}

}  // namespace usw::obs
