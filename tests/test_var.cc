// Tests for variables and the data warehouse: labels, cell-centered
// storage, pack/unpack, ghost geometry, and the old/new swap discipline.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "grid/level.h"
#include "support/rng.h"
#include "var/ccvariable.h"
#include "var/datawarehouse.h"
#include "var/ghost.h"
#include "var/varlabel.h"

namespace usw::var {
namespace {

TEST(VarLabel, InternsByName) {
  const VarLabel* a = VarLabel::create("test_var_a");
  const VarLabel* a2 = VarLabel::create("test_var_a");
  const VarLabel* b = VarLabel::create("test_var_b");
  EXPECT_EQ(a, a2);
  EXPECT_NE(a, b);
  EXPECT_NE(a->id(), b->id());
  EXPECT_EQ(a->name(), "test_var_a");
}

TEST(CCVariable, IndexingIsXFastestWithGlobalIndices) {
  CCVariable<double> v(grid::Box{{10, 20, 30}, {14, 24, 34}});
  EXPECT_EQ(v.index(10, 20, 30), 0u);
  EXPECT_EQ(v.index(11, 20, 30), 1u);
  EXPECT_EQ(v.index(10, 21, 30), 4u);
  EXPECT_EQ(v.index(10, 20, 31), 16u);
  v(12, 22, 32) = 5.5;
  EXPECT_DOUBLE_EQ(v(12, 22, 32), 5.5);
}

TEST(CCVariable, OutOfBoxAccessAborts) {
  CCVariable<double> v(grid::Box{{0, 0, 0}, {4, 4, 4}});
  EXPECT_DEATH(v(4, 0, 0), "outside");
  EXPECT_DEATH(v(-1, 0, 0), "outside");
}

TEST(CCVariable, FillAndCopyRegion) {
  CCVariable<double> src(grid::Box{{0, 0, 0}, {8, 8, 8}});
  CCVariable<double> dst(grid::Box{{4, 4, 4}, {12, 12, 12}});
  std::ranges::fill(src.data(), 3.0);
  const grid::Box overlap{{4, 4, 4}, {8, 8, 8}};
  dst.copy_region(src, overlap);
  EXPECT_DOUBLE_EQ(dst(4, 4, 4), 3.0);
  EXPECT_DOUBLE_EQ(dst(7, 7, 7), 3.0);
  EXPECT_DOUBLE_EQ(dst(8, 8, 8), 0.0);  // outside the copied region
}

TEST(CCVariable, PackUnpackRoundtrip) {
  SplitMix64 rng(5);
  CCVariable<double> src(grid::Box{{0, 0, 0}, {6, 5, 4}});
  for (double& x : src.data()) x = rng.next_double();
  const grid::Box region{{1, 1, 1}, {5, 4, 3}};
  const auto bytes = src.pack(region);
  EXPECT_EQ(bytes.size(), static_cast<std::size_t>(region.volume()) * 8);

  CCVariable<double> dst(grid::Box{{0, 0, 0}, {6, 5, 4}});
  dst.unpack(region, bytes);
  for (int k = region.lo.z; k < region.hi.z; ++k)
    for (int j = region.lo.y; j < region.hi.y; ++j)
      for (int i = region.lo.x; i < region.hi.x; ++i)
        EXPECT_DOUBLE_EQ(dst(i, j, k), src(i, j, k));
  // Outside the region dst stays untouched.
  EXPECT_DOUBLE_EQ(dst(0, 0, 0), 0.0);
}

TEST(CCVariable, UnpackSizeMismatchAborts) {
  CCVariable<double> v(grid::Box{{0, 0, 0}, {4, 4, 4}});
  std::vector<std::byte> wrong(17);
  EXPECT_DEATH(v.unpack(grid::Box{{0, 0, 0}, {2, 2, 2}}, wrong), "size mismatch");
}

TEST(DataWarehouse, AllocateGetAndDuplicates) {
  const grid::Level level({2, 1, 1}, {4, 4, 4});
  DataWarehouse dw(StorageMode::kFunctional);
  const VarLabel* u = VarLabel::create("dw_test_u");
  CCVariable<double>& v = dw.allocate(u, level.patch(0), 1);
  EXPECT_TRUE(v.allocated());
  EXPECT_EQ(v.box(), level.patch(0).ghosted(1));
  EXPECT_EQ(dw.ghost_of(u, 0), 1);
  EXPECT_TRUE(dw.exists(u, 0));
  EXPECT_FALSE(dw.exists(u, 1));
  EXPECT_THROW(dw.allocate(u, level.patch(0), 1), StateError);
  EXPECT_THROW(dw.get(u, 1), StateError);
  EXPECT_EQ(&dw.get(u, 0), &v);
}

TEST(DataWarehouse, TimingOnlyTracksExtentsWithoutData) {
  const grid::Level level({1, 1, 1}, {64, 64, 64});
  DataWarehouse dw(StorageMode::kTimingOnly);
  const VarLabel* u = VarLabel::create("dw_timing_u");
  CCVariable<double>& v = dw.allocate(u, level.patch(0), 2);
  EXPECT_FALSE(v.allocated());
  EXPECT_EQ(dw.ghost_of(u, 0), 2);
  EXPECT_FALSE(dw.functional());
}

TEST(DataWarehouse, Reductions) {
  DataWarehouse dw(StorageMode::kFunctional);
  const VarLabel* r = VarLabel::create("dw_test_reduction");
  EXPECT_FALSE(dw.has_reduction(r));
  EXPECT_THROW(dw.get_reduction(r), StateError);
  dw.put_reduction(r, 2.5);
  EXPECT_TRUE(dw.has_reduction(r));
  EXPECT_DOUBLE_EQ(dw.get_reduction(r), 2.5);
  dw.put_reduction(r, 3.5);  // overwrite is allowed
  EXPECT_DOUBLE_EQ(dw.get_reduction(r), 3.5);
}

TEST(DataWarehouse, SwapInMovesEverything) {
  const grid::Level level({1, 1, 1}, {4, 4, 4});
  const VarLabel* u = VarLabel::create("dw_swap_u");
  const VarLabel* r = VarLabel::create("dw_swap_r");
  DataWarehouse old_dw(StorageMode::kFunctional, 0);
  DataWarehouse new_dw(StorageMode::kFunctional, 1);
  new_dw.allocate(u, level.patch(0), 1)(0, 0, 0) = 9.0;
  new_dw.put_reduction(r, 4.0);

  old_dw.swap_in(new_dw);
  EXPECT_DOUBLE_EQ(old_dw.get(u, 0)(0, 0, 0), 9.0);
  EXPECT_DOUBLE_EQ(old_dw.get_reduction(r), 4.0);
  EXPECT_FALSE(new_dw.exists(u, 0));
  EXPECT_FALSE(new_dw.has_reduction(r));
  // The step number moves too; a lookup error names it.
  try {
    old_dw.get(u, 1);
    ADD_FAILURE() << "a missing variable was found";
  } catch (const StateError& e) {
    EXPECT_NE(std::string(e.what()).find("DW step 1"), std::string::npos) << e.what();
  }
}

TEST(DataWarehouse, RecycledStorageStartsZeroed) {
  // The first swap moves the field to the old DW; the second retires it
  // and hands its storage to the new DW, whose next allocate of the same
  // field reuses it — zero-filled, ghost cells included, like fresh storage.
  const grid::Level level({1, 1, 1}, {6, 5, 4});
  const VarLabel* u = VarLabel::create("dw_recycle_u");
  DataWarehouse old_dw(StorageMode::kFunctional, 0);
  DataWarehouse new_dw(StorageMode::kFunctional, 1);
  CCVariable<double>& field = new_dw.allocate(u, level.patch(0), 2);
  std::ranges::fill(field.data(), -123.25);
  const double* storage = field.data().data();

  old_dw.swap_in(new_dw);
  old_dw.swap_in(new_dw);
  EXPECT_FALSE(old_dw.exists(u, 0));

  const CCVariable<double>& reused = new_dw.allocate(u, level.patch(0), 2);
  EXPECT_EQ(reused.data().data(), storage);
  EXPECT_EQ(reused.box(), level.patch(0).ghosted(2));
  ASSERT_EQ(reused.data().size(),
            static_cast<std::size_t>(level.patch(0).ghosted(2).volume()));
  for (const double x : reused.data()) ASSERT_EQ(x, 0.0);
  EXPECT_FALSE(std::signbit(reused.data()[0]));
}

TEST(GhostGeometry, InteriorPatchNeedsSixFaceRegions) {
  const grid::Level level({3, 3, 3}, {8, 8, 8});
  const grid::Patch& center = *level.patch_at({1, 1, 1});
  const auto deps = ghost_requirements(level, center, 1);
  ASSERT_EQ(deps.size(), 6u);
  for (const GhostDep& d : deps) {
    EXPECT_EQ(d.to_patch, center.id());
    EXPECT_EQ(d.region.volume(), 64);  // 8x8 face, 1 deep
    // Each region lies in the source patch's interior and the consumer's halo.
    EXPECT_TRUE(level.patch(d.from_patch).cells().contains(d.region));
    EXPECT_TRUE(center.ghosted(1).contains(d.region));
    EXPECT_TRUE(center.cells().intersect(d.region).empty());
  }
}

TEST(GhostGeometry, ZeroGhostNeedsNothing) {
  const grid::Level level({2, 2, 2}, {4, 4, 4});
  EXPECT_TRUE(ghost_requirements(level, level.patch(0), 0).empty());
}

TEST(GhostGeometry, ProvisionsMirrorRequirements) {
  const grid::Level level({3, 2, 2}, {8, 8, 8});
  // Everything some patch requires from P must appear in P's provisions.
  for (const grid::Patch& p : level.patches()) {
    const auto prov = ghost_provisions(level, p, 1);
    for (const GhostDep& d : prov) {
      const auto reqs = ghost_requirements(level, level.patch(d.to_patch), 1);
      bool found = false;
      for (const GhostDep& r : reqs)
        if (r.from_patch == p.id() && r.region == d.region) found = true;
      EXPECT_TRUE(found) << "provision " << d.region.to_string()
                         << " has no matching requirement";
    }
  }
}

TEST(GhostGeometry, DeeperGhostLayers) {
  const grid::Level level({2, 1, 1}, {8, 8, 8});
  const auto deps = ghost_requirements(level, level.patch(0), 2);
  ASSERT_EQ(deps.size(), 1u);
  EXPECT_EQ(deps[0].region.volume(), 2 * 8 * 8);
}

}  // namespace
}  // namespace usw::var

namespace usw::var {
namespace {

TEST(DataWarehouse, AdoptTransfersOwnership) {
  DataWarehouse dw(StorageMode::kFunctional, 3);
  const VarLabel* u = VarLabel::create("dw_adopt_u");
  auto field = std::make_unique<CCVariable<double>>(grid::Box{{-1, -1, -1}, {5, 5, 5}});
  (*field)(2, 2, 2) = 7.5;
  dw.adopt(u, 4, 1, std::move(field));
  EXPECT_TRUE(dw.exists(u, 4));
  EXPECT_EQ(dw.ghost_of(u, 4), 1);
  EXPECT_DOUBLE_EQ(dw.get(u, 4)(2, 2, 2), 7.5);
}

TEST(DataWarehouse, ClearDropsEverything) {
  const grid::Level level({1, 1, 1}, {4, 4, 4});
  DataWarehouse dw(StorageMode::kFunctional);
  const VarLabel* u = VarLabel::create("dw_clear_u");
  const VarLabel* r = VarLabel::create("dw_clear_r");
  dw.allocate(u, level.patch(0), 0);
  dw.put_reduction(r, 1.0);
  EXPECT_TRUE(dw.exists(u, 0));
  dw.clear();
  EXPECT_FALSE(dw.exists(u, 0));
  EXPECT_FALSE(dw.has_reduction(r));
  // Re-allocation after clear works.
  EXPECT_NO_THROW(dw.allocate(u, level.patch(0), 0));
}

}  // namespace
}  // namespace usw::var
