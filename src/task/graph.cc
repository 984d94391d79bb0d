#include "task/graph.h"

#include <algorithm>
#include <map>
#include <set>

#include "support/error.h"

namespace usw::task {

Task& TaskGraph::add(std::unique_ptr<Task> t) {
  USW_ASSERT(t != nullptr);
  tasks_.push_back(std::move(t));
  return *tasks_.back();
}

int TaskGraph::ghost_alloc_depth(const var::VarLabel* label) const {
  int g = 0;
  for (const auto& t : tasks_)
    for (const Requires& req : t->requires_list())
      if (req.label == label) g = std::max(g, req.ghost);
  return g;
}

namespace {

/// Dense per-graph label numbering for the tag space.
class LabelIndex {
 public:
  explicit LabelIndex(const std::vector<std::unique_ptr<Task>>& tasks) {
    for (const auto& t : tasks) {
      for (const Requires& r : t->requires_list()) intern(r.label);
      for (const Computes& c : t->computes_list()) intern(c.label);
      if (t->type() == Task::Type::kReduction) intern(t->reduction_result());
    }
  }
  int of(const var::VarLabel* label) const { return index_.at(label); }
  int count() const { return static_cast<int>(index_.size()); }

 private:
  void intern(const var::VarLabel* label) {
    index_.try_emplace(label, static_cast<int>(index_.size()));
  }
  std::map<const var::VarLabel*, int> index_;
};

/// Tag layout: ((((task * L + label) * 2 + dw) * P) + from) * P + to, which
/// must fit below 2^26 (4 step bits at 2^26 and the collective tag space at
/// 2^30 sit above it; see ExtComm::tag and comm.cc). The span grows with
/// P^2: Burgers (task * L = 6) fits at most 2,364 patches, two-stage heat
/// (task * L = 15) at most 1,495.
void check_tag_span(int ntasks, int nlabels, int num_patches) {
  const long tag_span =
      static_cast<long>(ntasks) * nlabels * 2 * num_patches * num_patches;
  if (tag_span >= (1l << 26))
    throw ConfigError("task graph too large for the MPI tag space (" +
                      std::to_string(tag_span) + " tags needed)");
}

}  // namespace

void TaskGraph::check_tag_space(int num_patches) const {
  check_tag_span(static_cast<int>(tasks_.size()), LabelIndex(tasks_).count(),
                 num_patches);
}

CompiledGraph TaskGraph::compile(const grid::Level& level,
                                 const grid::Partition& part, int rank) const {
  if (tasks_.empty()) throw ConfigError("compiling an empty task graph");
  const int num_patches = level.num_patches();
  const LabelIndex labels(tasks_);
  const int ntasks = static_cast<int>(tasks_.size());

  check_tag_span(ntasks, labels.count(), num_patches);
  auto make_tag = [&](int task_idx, const var::VarLabel* label, WhichDW dw,
                      int from, int to) {
    long tag = task_idx;
    tag = tag * labels.count() + labels.of(label);
    tag = tag * 2 + (dw == WhichDW::kNew ? 1 : 0);
    tag = tag * num_patches + from;
    tag = tag * num_patches + to;
    return static_cast<int>(tag);
  };

  // Writers of each new-DW label, in task order: the task that computes it
  // followed by every task that modifies it. A consumer depends on the
  // *last* writer preceding it.
  std::map<const var::VarLabel*, int> computed_by;
  std::map<const var::VarLabel*, std::vector<int>> writers;
  for (int ti = 0; ti < ntasks; ++ti) {
    for (const Computes& c : tasks_[static_cast<std::size_t>(ti)]->computes_list()) {
      auto [it, inserted] = computed_by.try_emplace(c.label, ti);
      if (!inserted)
        throw ConfigError("variable '" + c.label->name() +
                          "' computed by two tasks ('" +
                          tasks_[static_cast<std::size_t>(it->second)]->name() +
                          "' and '" + tasks_[static_cast<std::size_t>(ti)]->name() +
                          "')");
      writers[c.label].push_back(ti);
    }
    for (const Modifies& m : tasks_[static_cast<std::size_t>(ti)]->modifies_list())
      writers[m.label].push_back(ti);
  }
  // The last writer of `label` strictly before task `ci`; -1 if none.
  auto writer_before = [&writers](const var::VarLabel* label, int ci) {
    auto it = writers.find(label);
    int best = -1;
    if (it != writers.end())
      for (int w : it->second)
        if (w < ci) best = w;
    return best;
  };

  CompiledGraph out;
  const std::vector<int>& local = part.patches_of(rank);

  // Local detailed-task index: (task idx, patch id) -> position in out.tasks.
  std::map<std::pair<int, int>, int> dt_of;
  for (int ti = 0; ti < ntasks; ++ti)
    for (int pid : local) {
      dt_of[{ti, pid}] = static_cast<int>(out.tasks.size());
      DetailedTask dt;
      dt.task = tasks_[static_cast<std::size_t>(ti)].get();
      dt.patch_id = pid;
      out.tasks.push_back(std::move(dt));
    }

  auto add_edge = [&out](int from, int to, std::set<std::pair<int, int>>& seen) {
    if (!seen.insert({from, to}).second) return;
    out.tasks[static_cast<std::size_t>(from)].successors.push_back(to);
    out.tasks[static_cast<std::size_t>(to)].num_internal_preds += 1;
  };
  std::set<std::pair<int, int>> seen_edges;

  for (int ti = 0; ti < ntasks; ++ti) {
    const Task& t = *tasks_[static_cast<std::size_t>(ti)];
    for (int pid : local) {
      const int dti = dt_of.at({ti, pid});
      DetailedTask& dt = out.tasks[static_cast<std::size_t>(dti)];
      const grid::Patch& patch = level.patch(pid);

      for (const Requires& req : t.requires_list()) {
        if (req.dw == WhichDW::kNew) {
          const int writer = writer_before(req.label, ti);
          if (writer < 0)
            throw ConfigError("task '" + t.name() + "' requires new-DW variable '" +
                              req.label->name() +
                              "' that no earlier task computes or modifies");
          add_edge(dt_of.at({writer, pid}), dti, seen_edges);
        }
        if (req.ghost > 0) {
          for (const var::GhostDep& dep :
               var::ghost_requirements(level, patch, req.ghost)) {
            if (part.rank_of(dep.from_patch) == rank) {
              dt.local_copies.push_back(
                  LocalCopy{req.label, req.dw, dep.from_patch, pid, dep.region});
              if (req.dw == WhichDW::kNew)
                add_edge(dt_of.at({writer_before(req.label, ti), dep.from_patch}),
                         dti, seen_edges);
            } else {
              ExtComm rc;
              rc.peer_rank = part.rank_of(dep.from_patch);
              rc.tag_base = make_tag(ti, req.label, req.dw, dep.from_patch, pid);
              rc.label = req.label;
              rc.dw = req.dw;
              rc.from_patch = dep.from_patch;
              rc.to_patch = pid;
              rc.region = dep.region;
              dt.recvs.push_back(std::move(rc));
            }
          }
        }
      }

      // Sends of this task's outputs to remote same-step consumers: this
      // task ships `label` to consumer ci iff it is the last writer of
      // `label` before ci.
      std::vector<const var::VarLabel*> written;
      for (const Computes& comp : t.computes_list()) written.push_back(comp.label);
      for (const Modifies& mod : t.modifies_list()) written.push_back(mod.label);
      for (const var::VarLabel* label : written) {
        for (int ci = ti + 1; ci < ntasks; ++ci) {
          if (writer_before(label, ci) != ti) continue;
          for (const Requires& creq :
               tasks_[static_cast<std::size_t>(ci)]->requires_list()) {
            if (creq.label != label || creq.dw != WhichDW::kNew ||
                creq.ghost == 0)
              continue;
            for (const var::GhostDep& dep :
                 var::ghost_provisions(level, patch, creq.ghost)) {
              if (part.rank_of(dep.to_patch) == rank) continue;
              ExtComm sc;
              sc.peer_rank = part.rank_of(dep.to_patch);
              sc.tag_base = make_tag(ci, label, WhichDW::kNew, pid, dep.to_patch);
              sc.label = label;
              sc.dw = WhichDW::kNew;
              sc.from_patch = pid;
              sc.to_patch = dep.to_patch;
              sc.region = dep.region;
              dt.sends.push_back(std::move(sc));
            }
          }
        }
      }
    }
  }

  // Old-DW ghost data: every consumer's halo is sent at step start.
  for (int ti = 0; ti < ntasks; ++ti) {
    const Task& t = *tasks_[static_cast<std::size_t>(ti)];
    for (const Requires& req : t.requires_list()) {
      if (req.dw != WhichDW::kOld || req.ghost == 0) continue;
      for (int pid : local) {
        for (const var::GhostDep& dep : var::ghost_provisions(
                 level, level.patch(pid), req.ghost)) {
          if (part.rank_of(dep.to_patch) == rank) continue;
          ExtComm sc;
          sc.peer_rank = part.rank_of(dep.to_patch);
          sc.tag_base = make_tag(ti, req.label, WhichDW::kOld, pid, dep.to_patch);
          sc.label = req.label;
          sc.dw = WhichDW::kOld;
          sc.from_patch = pid;
          sc.to_patch = dep.to_patch;
          sc.region = dep.region;
          out.initial_sends.push_back(std::move(sc));
        }
      }
    }
  }

  // New-DW allocations at step start.
  std::set<std::pair<const var::VarLabel*, int>> alloc_seen;
  for (const auto& t : tasks_)
    for (const Computes& comp : t->computes_list())
      for (int pid : local)
        if (alloc_seen.insert({comp.label, pid}).second)
          out.outputs.push_back(
              OutputAlloc{comp.label, pid, ghost_alloc_depth(comp.label)});

  // Reductions, in declaration order.
  for (const auto& t : tasks_)
    if (t->type() == Task::Type::kReduction)
      out.reductions.push_back(
          ReductionInfo{t.get(), static_cast<int>(local.size())});

  int next_id = 0;
  for (ExtComm& sc : out.initial_sends) sc.id = next_id++;
  for (DetailedTask& dt : out.tasks) {
    for (ExtComm& rc : dt.recvs) rc.id = next_id++;
    for (ExtComm& sc : dt.sends) sc.id = next_id++;
  }
  return out;
}

}  // namespace usw::task
