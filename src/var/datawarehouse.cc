#include "var/datawarehouse.h"

#include <utility>

#include "support/error.h"

namespace usw::var {

CCVariable<double>& DataWarehouse::allocate(const VarLabel* label,
                                            const grid::Patch& patch, int ghost) {
  USW_ASSERT(label != nullptr && ghost >= 0);
  const Key key{label->id(), patch.id()};
  auto [it, inserted] = grid_vars_.try_emplace(key);
  if (!inserted)
    throw StateError("variable '" + label->name() + "' already exists on patch " +
                     std::to_string(patch.id()));
  Entry& e = it->second;
  e.box = patch.ghosted(ghost);
  e.ghost = ghost;
  e.data = reuse_or_make(static_cast<std::size_t>(e.box.volume()));
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
  reductions_[label->id()] = value;
}

double DataWarehouse::get_reduction(const VarLabel* label) const {
  auto it = reductions_.find(label->id());
  if (it == reductions_.end())
    throw StateError("reduction '" + label->name() + "' missing in DW step " +
                     std::to_string(step_));
  return it->second;
}

bool DataWarehouse::has_reduction(const VarLabel* label) const {
  return reductions_.count(label->id()) > 0;
}

std::unique_ptr<CCVariable<double>> DataWarehouse::reuse_or_make(
    std::size_t cells) {
  for (std::unique_ptr<CCVariable<double>>& var : retired_) {
    if (var->capacity() < cells) continue;
    std::swap(var, retired_.back());
    std::unique_ptr<CCVariable<double>> reused = std::move(retired_.back());
    retired_.pop_back();
    return reused;
  }
  return std::make_unique<CCVariable<double>>();
}

void DataWarehouse::clear() {
  grid_vars_.clear();
  reductions_.clear();
  retired_.clear();
}

void DataWarehouse::swap_in(DataWarehouse& newer) {
  std::vector<std::unique_ptr<CCVariable<double>>> retired;
  if (functional())
    for (auto& [key, e] : grid_vars_)
      if (e.data != nullptr && e.data->allocated())
        retired.push_back(std::move(e.data));
  grid_vars_ = std::move(newer.grid_vars_);
  reductions_ = std::move(newer.reductions_);
  step_ = newer.step_;
  newer.clear();
  newer.retired_ = std::move(retired);
}

}  // namespace usw::var
