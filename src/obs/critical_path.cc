#include "obs/critical_path.h"

#include <algorithm>
#include <numeric>
#include <optional>
#include <string_view>
#include <tuple>
#include <unordered_map>

namespace usw::obs {

CriticalPathAnalyzer::CriticalPathAnalyzer(const RunObservation& run) : run_(run) {
  rank_spans_.reserve(run.ranks.size());
  for (const RankObservation& r : run.ranks) rank_spans_.push_back(r.spans().data());
}

const TaskGraphInfo& CriticalPathAnalyzer::graph_of(std::size_t rank) const {
  return run_.ranks[rank].graph();
}

const CriticalPathAnalyzer::Dag& CriticalPathAnalyzer::dag() {
  Dag& d = dag_;
  if (d.compiled) return d;
  d.compiled = true;
  const std::size_t nranks = run_.ranks.size();
  const auto u32 = [](std::size_t v) { return static_cast<std::uint32_t>(v); };

  d.first.assign(nranks + 1, 0);
  for (std::size_t r = 0; r < nranks; ++r)
    d.first[r + 1] = d.first[r] + u32(graph_of(r).tasks.size());
  const std::uint32_t nslots = d.first[nranks];

  // Who receives each message: per rank, its receives sorted by (peer,
  // tag, task), so the first task receiving a key owns it.
  struct Recv {
    int peer, tag, task;
    bool operator<(const Recv& o) const {
      return std::tie(peer, tag, task) < std::tie(o.peer, o.tag, o.task);
    }
  };
  std::vector<std::uint32_t> recv_at(nranks + 1, 0);
  std::vector<Recv> recvs;
  for (std::size_t r = 0; r < nranks; ++r) {
    const TaskGraphInfo& g = graph_of(r);
    for (const MessageInfo& m : g.messages)
      if (!m.send && m.task >= 0 && static_cast<std::size_t>(m.task) < g.tasks.size())
        recvs.push_back(Recv{m.peer, m.tag, m.task});
    std::sort(recvs.begin() + recv_at[r], recvs.end());
    recv_at[r + 1] = u32(recvs.size());
  }
  const auto owner = [&](std::size_t rank, int peer, int tag) {
    const auto end = recvs.begin() + recv_at[rank + 1];
    const auto it = std::lower_bound(recvs.begin() + recv_at[rank], end,
                                     Recv{peer, tag, std::numeric_limits<int>::min()});
    return it != end && it->peer == peer && it->tag == tag ? it->task : -1;
  };

  // Successors, slot by slot: a task's internal successors, then the
  // receivers of its sends in message order.
  d.succ_at.assign(nslots + 1, 0);
  d.succs.clear();
  std::vector<std::uint32_t> send_at;
  std::vector<std::uint32_t> sends;  ///< message indices, by task
  for (std::size_t r = 0; r < nranks; ++r) {
    const TaskGraphInfo& g = graph_of(r);
    const std::size_t ntasks = g.tasks.size();
    const auto sent_by_task = [ntasks](const MessageInfo& m) {
      return m.send && m.task >= 0 && static_cast<std::size_t>(m.task) < ntasks;
    };
    send_at.assign(ntasks + 1, 0);
    for (const MessageInfo& m : g.messages)
      if (sent_by_task(m)) ++send_at[static_cast<std::size_t>(m.task) + 1];
    std::partial_sum(send_at.begin(), send_at.end(), send_at.begin());
    sends.resize(send_at[ntasks]);
    std::vector<std::uint32_t> at(send_at.begin(), send_at.end() - 1);
    for (std::size_t i = 0; i < g.messages.size(); ++i)
      if (sent_by_task(g.messages[i]))
        sends[at[static_cast<std::size_t>(g.messages[i].task)]++] = u32(i);

    for (std::size_t t = 0; t < ntasks; ++t) {
      for (const int succ : g.tasks[t].successors)
        if (succ >= 0 && static_cast<std::size_t>(succ) < ntasks)
          d.succs.push_back(d.first[r] + static_cast<std::uint32_t>(succ));
      for (std::uint32_t k = send_at[t]; k < send_at[t + 1]; ++k) {
        const MessageInfo& m = g.messages[sends[k]];
        if (m.peer < 0 || static_cast<std::size_t>(m.peer) >= nranks) continue;
        const auto peer = static_cast<std::size_t>(m.peer);
        const int to = owner(peer, static_cast<int>(r), m.tag);
        if (to >= 0) d.succs.push_back(d.first[peer] + static_cast<std::uint32_t>(to));
      }
      d.succ_at[d.first[r] + t + 1] = u32(d.succs.size());
    }
  }

  // Predecessors: the same edges bucketed by target, in source-slot order.
  d.pred_at.assign(nslots + 1, 0);
  for (const std::uint32_t to : d.succs) ++d.pred_at[to + 1];
  std::partial_sum(d.pred_at.begin(), d.pred_at.end(), d.pred_at.begin());
  d.preds.resize(d.succs.size());
  std::vector<std::uint32_t> at(d.pred_at.begin(), d.pred_at.end() - 1);
  for (std::uint32_t from = 0; from < nslots; ++from)
    for (std::uint32_t k = d.succ_at[from]; k < d.succ_at[from + 1]; ++k)
      d.preds[at[d.succs[k]]++] = from;

  // Task names, numbered in ascending order as the slack map orders them.
  std::unordered_map<std::string_view, std::uint32_t> ids;
  d.name.resize(nslots);
  d.names.clear();
  for (std::size_t r = 0; r < nranks; ++r) {
    const std::vector<TaskNodeInfo>& tasks = graph_of(r).tasks;
    for (std::size_t t = 0; t < tasks.size(); ++t) {
      const auto [it, added] = ids.try_emplace(tasks[t].name, u32(d.names.size()));
      if (added) d.names.push_back(&tasks[t].name);
      d.name[d.first[r] + t] = it->second;
    }
  }
  std::vector<std::uint32_t> order(d.names.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&d](std::uint32_t a, std::uint32_t b) { return *d.names[a] < *d.names[b]; });
  std::vector<std::uint32_t> renumber(order.size());
  std::vector<const std::string*> sorted(order.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    renumber[order[i]] = u32(i);
    sorted[i] = d.names[order[i]];
  }
  d.names = std::move(sorted);
  for (std::uint32_t& name : d.name) name = renumber[name];
  return d;
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
  const Dag& d = dag();

  // DAG nodes: one per (rank, task), the first span of each, numbered
  // rank-major in span order. Their begins and durations are copied into
  // the slot array, and the rest of the pass reads only that. A step's
  // task spans lie far apart in every rank's span vector, cold since the
  // rollup pass, so each is fetched a few entries ahead of its turn.
  constexpr std::size_t kFetchAhead = 16;
  const std::uint64_t call = ++calls_;
  if (slots_.size() < d.first.back()) slots_.resize(d.first.back());
  nodes_.clear();
  const std::size_t ntasks = spans.tasks.size();
  for (std::size_t k = 0; k < ntasks; ++k) {
    if (k + kFetchAhead < ntasks) {
      const auto [ahead_rank, ahead_span] = spans.tasks[k + kFetchAhead];
      __builtin_prefetch(rank_spans_[ahead_rank] + ahead_span);
    }
    const auto [r, i] = spans.tasks[k];
    const Span& s = rank_spans_[r][i];
    const auto task = static_cast<std::size_t>(s.b);
    if (task >= d.first[r + 1] - d.first[r]) continue;
    const std::uint32_t slot = d.first[r] + static_cast<std::uint32_t>(task);
    SlotState& node = slots_[slot];
    if (node.call == call) continue;
    node = SlotState{call, s.begin, s.duration(), 0, 0, kNoSlot, 0};
    nodes_.push_back(slot);
  }
  if (nodes_.empty()) return report;
  report.makespan = spans.hi - spans.lo;

  // Only edges between executed nodes count.
  const auto executed = [&](std::uint32_t slot) { return slots_[slot].call == call; };
  const auto each_succ = [&](std::uint32_t slot, auto&& fn) {
    for (std::uint32_t k = d.succ_at[slot]; k < d.succ_at[slot + 1]; ++k)
      if (executed(d.succs[k])) fn(d.succs[k]);
  };

  // Longest paths into and out of every node, in topological order.
  for (const std::uint32_t slot : nodes_)
    each_succ(slot, [this](std::uint32_t j) { slots_[j].indeg++; });
  topo_.clear();
  for (const std::uint32_t slot : nodes_)
    if (slots_[slot].indeg == 0) topo_.push_back(slot);
  for (std::size_t head = 0; head < topo_.size(); ++head)
    each_succ(topo_[head], [this](std::uint32_t j) {
      if (--slots_[j].indeg == 0) topo_.push_back(j);
    });

  for (const std::uint32_t slot : topo_) {
    SlotState& node = slots_[slot];
    node.into = node.duration;
    for (std::uint32_t k = d.pred_at[slot]; k < d.pred_at[slot + 1]; ++k) {
      const std::uint32_t p = d.preds[k];
      if (!executed(p)) continue;
      if (slots_[p].into + node.duration > node.into) {
        node.into = slots_[p].into + node.duration;
        node.best_pred = p;
      }
    }
  }
  for (auto it = topo_.rbegin(); it != topo_.rend(); ++it) {
    SlotState& node = slots_[*it];
    node.outof = node.duration;
    each_succ(*it, [&](std::uint32_t j) {
      node.outof = std::max(node.outof, node.duration + slots_[j].outof);
    });
  }

  std::uint32_t tail = nodes_.front();
  for (const std::uint32_t slot : nodes_)
    if (slots_[slot].into > slots_[tail].into) tail = slot;
  report.total = slots_[tail].into;

  for (std::uint32_t at = tail; at != kNoSlot; at = slots_[at].best_pred) {
    // The slot's rank: the last whose first slot is at or before it.
    const auto rank = static_cast<std::size_t>(
        std::upper_bound(d.first.begin(), d.first.end(), at) - d.first.begin() - 1);
    const std::uint32_t task = at - d.first[rank];
    const TaskNodeInfo& info = graph_of(rank).tasks[task];
    report.chain.push_back(CriticalPathEntry{run_.ranks[rank].rank, static_cast<int>(task),
                                             info.name, info.patch, slots_[at].begin,
                                             slots_[at].duration});
  }
  std::reverse(report.chain.begin(), report.chain.end());

  slack_.assign(d.names.size(), std::nullopt);
  for (const std::uint32_t slot : nodes_) {
    const SlotState& node = slots_[slot];
    const TimePs slack = report.total - (node.into + node.outof - node.duration);
    std::optional<TimePs>& least = slack_[d.name[slot]];
    least = least ? std::min(*least, slack) : slack;
  }
  for (std::size_t k = 0; k < slack_.size(); ++k)
    if (slack_[k])
      report.slack_by_task.emplace_hint(report.slack_by_task.end(), *d.names[k], *slack_[k]);
  return report;
}

}  // namespace usw::obs
