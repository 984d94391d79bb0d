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
// Entries are recycled across the swap: the old warehouse's retired
// entries (their map nodes, variables and functional storage) go to the
// new one, whose next step allocates the same fields again, and allocate()
// reuses a retired entry before it allocates. Reused storage is
// zero-filled like fresh storage, so every field (ghost cells included)
// starts exactly as a fresh one; the step only saves freeing it and
// faulting new pages in. Reduction scalars keep their slots the same way,
// so a steady timestep allocates nothing here.

#include <map>
#include <memory>
#include <string>
#include <utility>
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

  bool functional() const { return mode_ == StorageMode::kFunctional; }
  void set_step(int step) { step_ = step; }

  // ---- Grid variables ----

  /// Allocates `label` on `patch` with `ghost` halo layers and registers
  /// it, zero-filled, in an entry retired by the last swap_in() when one's
  /// storage is large enough. In timing-only mode, only the extent is
  /// recorded, in any retired entry. Throws StateError if already present.
  CCVariable<double>& allocate(const VarLabel* label, const grid::Patch& patch,
                               int ghost);

  /// The variable, which must exist (throws StateError otherwise). The
  /// access checker treats a plain get as a *read*; use get_writable for
  /// mutation so undeclared writes are detectable.
  CCVariable<double>& get(const VarLabel* label, int patch_id);

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

  /// Transfers all contents of `newer` into this warehouse, replacing it
  /// (the "new DW becomes the old DW" swap, Sec II). The replaced entries
  /// become `newer`'s retired entries for its next allocate()s, and the
  /// ones `newer` left unused are dropped.
  void swap_in(DataWarehouse& newer);

  /// Installs (or, with nullptr, removes) the access observer. The
  /// observer must outlive its installation; when none is installed the
  /// only overhead per access is one null-pointer test.
  void set_observer(AccessObserver* observer) { observer_ = observer; }

 private:
  struct Entry {
    /// Never allocated in timing-only mode.
    std::unique_ptr<CCVariable<double>> data;
    grid::Box box;
    int ghost = 0;
  };
  using Key = std::pair<int, int>;  ///< (label id, patch id)
  using Map = std::map<Key, Entry>;

  /// A retired entry whose storage holds `cells` (any one in timing-only
  /// mode), or an empty node handle.
  Map::node_type take_retired(std::size_t cells);

  StorageMode mode_;
  int step_;
  Map grid_vars_;
  /// (label id, value) per reduction scalar, in first-put order.
  std::vector<std::pair<int, double>> reductions_;
  /// Entries retired by the last swap_in(), for allocate().
  std::vector<Map::node_type> retired_;
  AccessObserver* observer_ = nullptr;
};

}  // namespace usw::var
