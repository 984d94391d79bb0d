#include "check/check.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>

#include "check/tile_check.h"
#include "support/error.h"

namespace usw::check {

const char* to_string(ViolationKind kind) {
  switch (kind) {
    case ViolationKind::kUndeclaredRead: return "undeclared-read";
    case ViolationKind::kInsufficientGhost: return "insufficient-ghost";
    case ViolationKind::kUndeclaredWrite: return "undeclared-write";
    case ViolationKind::kConcurrentWriteOverlap: return "concurrent-write-overlap";
    case ViolationKind::kTileOverlap: return "tile-overlap";
    case ViolationKind::kTileCoverage: return "tile-coverage";
    case ViolationKind::kTagAmbiguity: return "tag-ambiguity";
    case ViolationKind::kOrphanMessage: return "orphan-message";
    case ViolationKind::kUnorderedAccess: return "unordered-access";
  }
  return "?";
}

std::string Violation::to_string() const {
  return std::string(check::to_string(kind)) + ": " + detail;
}

Violation make_violation(ViolationKind kind, const std::string& task,
                         const std::string& label, int patch_id,
                         const grid::Box& box, const std::string& detail) {
  Violation v;
  v.kind = kind;
  v.task = task;
  v.label = label;
  v.patch_id = patch_id;
  v.box = box;
  std::string full = detail;
  full.append(" [");
  if (!task.empty()) full.append("task=").append(task).append(" ");
  if (!label.empty()) full.append("label=").append(label).append(" ");
  if (patch_id >= 0) full.append("patch=").append(std::to_string(patch_id)).append(" ");
  if (!box.empty()) full.append("box=").append(box.to_string()).append(" ");
  full.back() = ']';
  v.detail = std::move(full);
  return v;
}

AccessChecker::AccessChecker(const grid::Level& level,
                             const task::CompiledGraph& graph)
    : level_(level), graph_(graph) {
  const std::size_t n = graph_.tasks.size();
  decls_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const task::Task& t = *graph_.tasks[i].task;
    Decl& d = decls_[i];
    for (const task::Requires& r : t.requires_list()) {
      std::map<int, int>& ghost =
          r.dw == task::WhichDW::kOld ? d.old_ghost : d.new_ghost;
      auto [it, inserted] = ghost.try_emplace(r.label->id(), r.ghost);
      if (!inserted) it->second = std::max(it->second, r.ghost);
    }
    for (const task::Computes& c : t.computes_list()) d.writes.insert(c.label->id());
    for (const task::Modifies& m : t.modifies_list()) d.writes.insert(m.label->id());
  }

  // Transitive closure over the compiled happens-before order. The graph
  // compiler only emits forward edges (a writer always precedes its
  // consumers in detailed-task order), so one reverse sweep suffices.
  const std::size_t words = (n + 63) / 64;
  closure_.assign(n, std::vector<std::uint64_t>(words, 0));
  for (std::size_t i = n; i-- > 0;) {
    for (int s : graph_.tasks[i].successors) {
      const auto si = static_cast<std::size_t>(s);
      USW_ASSERT_MSG(si > i, "compiled graph has a backward edge");
      closure_[i][si / 64] |= std::uint64_t{1} << (si % 64);
      for (std::size_t w = 0; w < words; ++w) closure_[i][w] |= closure_[si][w];
    }
  }
  tiles_checked_.assign(n, false);
}

void AccessChecker::bind_warehouses(const var::DataWarehouse* old_dw,
                                    const var::DataWarehouse* new_dw) {
  old_dw_ = old_dw;
  new_dw_ = new_dw;
}

void AccessChecker::begin_step() {
  writes_.clear();
  current_task_ = -1;
}

void AccessChecker::begin_task(int dt_index) {
  USW_ASSERT(dt_index >= 0 &&
             static_cast<std::size_t>(dt_index) < graph_.tasks.size());
  current_task_ = dt_index;
}

void AccessChecker::end_task() { current_task_ = -1; }

int AccessChecker::declared_ghost(int dt_index, const var::VarLabel* label,
                                  task::WhichDW dw) const {
  const Decl& d = decls_[static_cast<std::size_t>(dt_index)];
  const std::map<int, int>& ghost =
      dw == task::WhichDW::kOld ? d.old_ghost : d.new_ghost;
  auto it = ghost.find(label->id());
  return it == ghost.end() ? -1 : it->second;
}

bool AccessChecker::declares_write(int dt_index, const var::VarLabel* label) const {
  return decls_[static_cast<std::size_t>(dt_index)].writes.count(label->id()) > 0;
}

bool AccessChecker::unordered(int a, int b) const {
  if (a == b) return false;
  const auto lo = static_cast<std::size_t>(std::min(a, b));
  const auto hi = static_cast<std::size_t>(std::max(a, b));
  return (closure_[lo][hi / 64] & (std::uint64_t{1} << (hi % 64))) == 0;
}

int AccessChecker::role_of(const var::DataWarehouse& dw) const {
  if (&dw == old_dw_) return -1;
  if (&dw == new_dw_) return +1;
  return 0;
}

void AccessChecker::report(Violation v) {
  const auto key = std::make_tuple(static_cast<int>(v.kind), v.task, v.label,
                                   v.patch_id);
  if (!seen_.insert(key).second) return;
  std::fprintf(stderr, "[usw W] validation: %s\n", v.to_string().c_str());
  violations_.push_back(std::move(v));
}

void AccessChecker::record_stencil_read(int dt_index, const var::VarLabel* label,
                                        task::WhichDW dw,
                                        const grid::Box& region) {
  const int g = declared_ghost(dt_index, label, dw);
  const int pid = dt(dt_index).patch_id;
  if (g < 0) {
    report(make_violation(
        ViolationKind::kUndeclaredRead, task_name(dt_index), label->name(), pid,
        region,
        std::string("stencil reads a variable with no Requires in the ") +
            (dw == task::WhichDW::kOld ? "old" : "new") + " warehouse"));
    return;
  }
  const grid::Box allowed = level_.patch(pid).ghosted(g);
  if (!allowed.contains(region))
    report(make_violation(ViolationKind::kInsufficientGhost, task_name(dt_index),
                          label->name(), pid, region,
                          "stencil reads " + region.to_string() +
                              " but the declared ghost depth " +
                              std::to_string(g) + " only covers " +
                              allowed.to_string()));
}

void AccessChecker::record_write(int dt_index, const var::VarLabel* label,
                                 const grid::Box& region) {
  const int pid = dt(dt_index).patch_id;
  if (!declares_write(dt_index, label))
    report(make_violation(ViolationKind::kUndeclaredWrite, task_name(dt_index),
                          label->name(), pid, region,
                          "write outside the task's Computes/Modifies"));
  std::vector<WriteRec>& log = writes_[{label->id(), pid}];
  for (const WriteRec& prev : log) {
    if (prev.dt_index == dt_index || !prev.box.overlaps(region)) continue;
    if (unordered(prev.dt_index, dt_index))
      report(make_violation(
          ViolationKind::kConcurrentWriteOverlap, task_name(dt_index),
          label->name(), pid, prev.box.intersect(region),
          "unordered tasks '" + task_name(prev.dt_index) + "' and '" +
              task_name(dt_index) + "' both write " +
              prev.box.intersect(region).to_string()));
  }
  log.push_back(WriteRec{dt_index, region});
}

void AccessChecker::record_recv_unpack(int dt_index, const task::ExtComm& rc) {
  const int g = declared_ghost(dt_index, rc.label, rc.dw);
  if (g < 0) {
    report(make_violation(ViolationKind::kUndeclaredRead, task_name(dt_index),
                          rc.label->name(), rc.to_patch, rc.region,
                          "received halo data for a variable the task never "
                          "Requires"));
    return;
  }
  const grid::Box allowed = level_.patch(rc.to_patch).ghosted(g);
  if (!allowed.contains(rc.region))
    report(make_violation(ViolationKind::kInsufficientGhost, task_name(dt_index),
                          rc.label->name(), rc.to_patch, rc.region,
                          "received halo " + rc.region.to_string() +
                              " exceeds the declared ghost depth " +
                              std::to_string(g)));
}

void AccessChecker::record_local_copy(int dt_index, const task::LocalCopy& lc) {
  const int g = declared_ghost(dt_index, lc.label, lc.dw);
  if (g < 0) {
    report(make_violation(ViolationKind::kUndeclaredRead, task_name(dt_index),
                          lc.label->name(), lc.to_patch, lc.region,
                          "local ghost copy for a variable the task never "
                          "Requires"));
    return;
  }
  const grid::Box allowed = level_.patch(lc.to_patch).ghosted(g);
  if (!allowed.contains(lc.region))
    report(make_violation(ViolationKind::kInsufficientGhost, task_name(dt_index),
                          lc.label->name(), lc.to_patch, lc.region,
                          "local ghost copy " + lc.region.to_string() +
                              " exceeds the declared ghost depth " +
                              std::to_string(g)));
}

void AccessChecker::record_tile_partition(
    int dt_index, const grid::Box& patch_cells,
    const std::vector<std::pair<int, grid::Box>>& tiles) {
  auto checked = tiles_checked_[static_cast<std::size_t>(dt_index)];
  if (checked) return;
  tiles_checked_[static_cast<std::size_t>(dt_index)] = true;
  for (Violation& v : check_tile_partition(patch_cells, tiles,
                                           task_name(dt_index))) {
    v.patch_id = dt(dt_index).patch_id;
    report(std::move(v));
  }
}

void AccessChecker::on_get(const var::DataWarehouse& dw,
                           const var::VarLabel* label, int patch_id) {
  if (current_task_ < 0) return;
  const int role = role_of(dw);
  if (role == 0) return;
  const task::WhichDW which =
      role < 0 ? task::WhichDW::kOld : task::WhichDW::kNew;
  if (role > 0 && declares_write(current_task_, label)) return;
  if (declared_ghost(current_task_, label, which) >= 0) return;
  report(make_violation(
      ViolationKind::kUndeclaredRead, task_name(current_task_), label->name(),
      patch_id, grid::Box{},
      std::string("task reads the ") + (role < 0 ? "old" : "new") +
          "-warehouse variable without a Requires"));
}

void AccessChecker::on_write(const var::DataWarehouse& dw,
                             const var::VarLabel* label, int patch_id) {
  if (current_task_ < 0) return;
  const int role = role_of(dw);
  if (role == 0) return;
  if (role > 0 && declares_write(current_task_, label)) return;
  report(make_violation(
      ViolationKind::kUndeclaredWrite, task_name(current_task_), label->name(),
      patch_id, grid::Box{},
      role < 0 ? std::string("task writes the old warehouse (previous step's "
                             "results are read-only)")
               : std::string("task writes a new-warehouse variable outside "
                             "its Computes/Modifies")));
}

void AccessChecker::on_allocate(const var::DataWarehouse& dw,
                                const var::VarLabel* label, int patch_id) {
  if (current_task_ < 0) return;
  const int role = role_of(dw);
  if (role == 0) return;
  if (role > 0 && declares_write(current_task_, label)) return;
  report(make_violation(ViolationKind::kUndeclaredWrite,
                        task_name(current_task_), label->name(), patch_id,
                        grid::Box{},
                        "task allocates a variable it does not Compute"));
}

}  // namespace usw::check
