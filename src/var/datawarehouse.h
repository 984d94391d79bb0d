#pragma once

// The Uintah data warehouse (Sec II): a per-timestep container mapping
// (variable label, patch) to grid data, plus named reduction scalars.
//
// Two warehouses exist at any time: tasks read their inputs from the *old*
// warehouse (previous timestep's results) and write their outputs to the
// *new* one. After a timestep completes, the controller swaps them.
//
// The warehouse supports a timing-only mode in which grid variables are
// tracked (box, ghost extent) but never allocated: the benchmark harness
// uses this to simulate the paper's largest problems (up to 1024^3 cells,
// 16 GB of field data) without materializing them.
//
// Functional storage is recycled across the swap: the old warehouse's
// retired fields go to the new one, whose next step allocates the same
// fields again, and allocate() reuses a retired field's storage before it
// allocates. Reused storage is zero-filled like fresh storage, so every
// field (ghost cells included) starts exactly as a fresh one; the step
// only saves freeing it and faulting new pages in.

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "grid/level.h"
#include "var/ccvariable.h"
#include "var/varlabel.h"

namespace usw::var {

enum class StorageMode {
  kFunctional,  ///< variables hold real data
  kTimingOnly,  ///< variables track extents only
};

class DataWarehouse;

/// Observes grid-variable accesses for the opt-in runtime validator
/// (src/check). One observer may be installed per warehouse; calls happen
/// on the owning rank's thread only. The warehouse reference identifies
/// which warehouse (old or new) was touched — the warehouse itself does
/// not know its role.
class AccessObserver {
 public:
  virtual ~AccessObserver() = default;
  /// A variable was looked up via get()/get_writable's read path.
  virtual void on_get(const DataWarehouse& dw, const VarLabel* label,
                      int patch_id) = 0;
  /// A variable was handed out with declared write intent.
  virtual void on_write(const DataWarehouse& dw, const VarLabel* label,
                        int patch_id) = 0;
  /// A variable was allocated.
  virtual void on_allocate(const DataWarehouse& dw, const VarLabel* label,
                           int patch_id) = 0;
};

class DataWarehouse {
 public:
  explicit DataWarehouse(StorageMode mode, int step = 0)
      : mode_(mode), step_(step) {}

  StorageMode mode() const { return mode_; }
  bool functional() const { return mode_ == StorageMode::kFunctional; }
  int step() const { return step_; }
  void set_step(int step) { step_ = step; }

  // ---- Grid variables ----

  /// Allocates `label` on `patch` with `ghost` halo layers and registers
  /// it, zero-filled, in storage retired by the last swap_in() when one is
  /// large enough. In timing-only mode, only the extent is recorded.
  /// Throws StateError if already present.
  CCVariable<double>& allocate(const VarLabel* label, const grid::Patch& patch,
                               int ghost);

  /// The variable, which must exist (throws StateError otherwise). The
  /// access checker treats a plain get as a *read*; use get_writable for
  /// mutation so undeclared writes are detectable.
  CCVariable<double>& get(const VarLabel* label, int patch_id);
  const CCVariable<double>& get(const VarLabel* label, int patch_id) const;

  /// Same lookup as get(), but declares write intent to the observer.
  CCVariable<double>& get_writable(const VarLabel* label, int patch_id);

  /// The variable or nullptr.
  CCVariable<double>* find(const VarLabel* label, int patch_id);

  bool exists(const VarLabel* label, int patch_id) const;

  /// Ghost halo layers the variable was allocated with.
  int ghost_of(const VarLabel* label, int patch_id) const;

  /// Moves a variable in from another warehouse (timestep swap helper).
  void adopt(const VarLabel* label, int patch_id, int ghost,
             std::unique_ptr<CCVariable<double>> data);

  // ---- Reduction scalars ----

  void put_reduction(const VarLabel* label, double value);
  double get_reduction(const VarLabel* label) const;
  bool has_reduction(const VarLabel* label) const;

  /// Discards everything, retired storage included.
  void clear();

  /// Number of grid variables held (test hygiene).
  std::size_t num_variables() const { return grid_vars_.size(); }

  /// Transfers all contents of `newer` into this warehouse, replacing it
  /// (the "new DW becomes the old DW" swap, Sec II). The replaced fields'
  /// storage becomes `newer`'s retired storage for its next allocate()s.
  void swap_in(DataWarehouse& newer);

  /// Installs (or, with nullptr, removes) the access observer. The
  /// observer must outlive its installation; when none is installed the
  /// only overhead per access is one null-pointer test.
  void set_observer(AccessObserver* observer) { observer_ = observer; }
  AccessObserver* observer() const { return observer_; }

 private:
  struct Entry {
    std::unique_ptr<CCVariable<double>> data;  ///< null in timing-only mode
    grid::Box box;
    int ghost = 0;
  };
  using Key = std::pair<int, int>;  ///< (label id, patch id)

  /// A retired variable whose storage holds `cells`, or a fresh one.
  std::unique_ptr<CCVariable<double>> reuse_or_make(std::size_t cells);

  StorageMode mode_;
  int step_;
  std::map<Key, Entry> grid_vars_;
  std::map<int, double> reductions_;
  /// Functional storage retired by the last swap_in(), for allocate().
  std::vector<std::unique_ptr<CCVariable<double>>> retired_;
  AccessObserver* observer_ = nullptr;
};

}  // namespace usw::var
