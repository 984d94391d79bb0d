#include "var/datawarehouse.h"

#include <algorithm>
#include <utility>

#include "support/error.h"

namespace usw::var {

CCVariable<double>& DataWarehouse::allocate(const VarLabel* label,
                                            const grid::Patch& patch, int ghost) {
  USW_ASSERT(label != nullptr && ghost >= 0);
  const Key key{label->id(), patch.id()};
  const Map::iterator hint = grid_vars_.lower_bound(key);
  if (hint != grid_vars_.end() && hint->first == key)
    throw StateError("variable '" + label->name() + "' already exists on patch " +
                     std::to_string(patch.id()));
  const grid::Box box = patch.ghosted(ghost);
  Map::node_type node = take_retired(static_cast<std::size_t>(box.volume()));
  Map::iterator it;
  if (node.empty()) {
    it = grid_vars_.emplace_hint(hint, key, Entry{});
  } else {
    node.key() = key;
    it = grid_vars_.insert(hint, std::move(node));
  }
  Entry& e = it->second;
  e.box = box;
  e.ghost = ghost;
  if (e.data == nullptr) e.data = std::make_unique<CCVariable<double>>();
  if (functional()) e.data->allocate(e.box);
  if (observer_ != nullptr) observer_->on_allocate(*this, label, patch.id());
  return *e.data;
}

CCVariable<double>& DataWarehouse::get(const VarLabel* label, int patch_id) {
  CCVariable<double>* v = find(label, patch_id);
  if (v == nullptr)
    throw StateError("variable '" + label->name() + "' missing on patch " +
                     std::to_string(patch_id) + " in DW step " + std::to_string(step_));
  if (observer_ != nullptr) observer_->on_get(*this, label, patch_id);
  return *v;
}

CCVariable<double>& DataWarehouse::get_writable(const VarLabel* label,
                                                int patch_id) {
  CCVariable<double>* v = find(label, patch_id);
  if (v == nullptr)
    throw StateError("variable '" + label->name() + "' missing on patch " +
                     std::to_string(patch_id) + " in DW step " + std::to_string(step_));
  if (observer_ != nullptr) observer_->on_write(*this, label, patch_id);
  return *v;
}

const CCVariable<double>& DataWarehouse::get(const VarLabel* label,
                                             int patch_id) const {
  return const_cast<DataWarehouse*>(this)->get(label, patch_id);
}

CCVariable<double>* DataWarehouse::find(const VarLabel* label, int patch_id) {
  USW_ASSERT(label != nullptr);
  auto it = grid_vars_.find(Key{label->id(), patch_id});
  return it == grid_vars_.end() ? nullptr : it->second.data.get();
}

bool DataWarehouse::exists(const VarLabel* label, int patch_id) const {
  return grid_vars_.count(Key{label->id(), patch_id}) > 0;
}

int DataWarehouse::ghost_of(const VarLabel* label, int patch_id) const {
  auto it = grid_vars_.find(Key{label->id(), patch_id});
  if (it == grid_vars_.end())
    throw StateError("ghost_of: variable '" + label->name() + "' missing on patch " +
                     std::to_string(patch_id));
  return it->second.ghost;
}

void DataWarehouse::adopt(const VarLabel* label, int patch_id, int ghost,
                          std::unique_ptr<CCVariable<double>> data) {
  USW_ASSERT(label != nullptr && data != nullptr);
  Entry e;
  e.box = data->allocated() ? data->box() : grid::Box{};
  e.ghost = ghost;
  e.data = std::move(data);
  grid_vars_[Key{label->id(), patch_id}] = std::move(e);
}

void DataWarehouse::put_reduction(const VarLabel* label, double value) {
  USW_ASSERT(label != nullptr);
  for (auto& [id, slot] : reductions_)
    if (id == label->id()) {
      slot = value;
      return;
    }
  reductions_.emplace_back(label->id(), value);
}

double DataWarehouse::get_reduction(const VarLabel* label) const {
  for (const auto& [id, value] : reductions_)
    if (id == label->id()) return value;
  throw StateError("reduction '" + label->name() + "' missing in DW step " +
                   std::to_string(step_));
}

bool DataWarehouse::has_reduction(const VarLabel* label) const {
  return std::any_of(reductions_.begin(), reductions_.end(),
                     [&](const auto& r) { return r.first == label->id(); });
}

DataWarehouse::Map::node_type DataWarehouse::take_retired(std::size_t cells) {
  for (Map::node_type& node : retired_) {
    const CCVariable<double>* var = node.mapped().data.get();
    if (functional() && (var == nullptr || var->capacity() < cells)) continue;
    std::swap(node, retired_.back());
    Map::node_type taken = std::move(retired_.back());
    retired_.pop_back();
    return taken;
  }
  return {};
}

void DataWarehouse::clear() {
  grid_vars_.clear();
  reductions_.clear();
  retired_.clear();
}

void DataWarehouse::swap_in(DataWarehouse& newer) {
  // Every container changes hands by swap or node extraction, so each
  // keeps the storage it grew in earlier steps.
  newer.retired_.clear();
  while (!grid_vars_.empty())
    newer.retired_.push_back(grid_vars_.extract(grid_vars_.begin()));
  grid_vars_.swap(newer.grid_vars_);
  reductions_.swap(newer.reductions_);
  newer.reductions_.clear();
  step_ = newer.step_;
}

}  // namespace usw::var
