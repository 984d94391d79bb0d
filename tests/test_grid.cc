// Tests for the structured-grid library: index vectors, boxes, levels,
// neighbor enumeration, partitioning, and TiDA tiling.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "grid/box.h"
#include "grid/intvec.h"
#include "grid/level.h"
#include "grid/partition.h"
#include "grid/tiling.h"
#include "support/rng.h"
#include "support/test_helpers.h"

namespace usw::grid {
namespace {

TEST(IntVec, Arithmetic) {
  const IntVec a{1, 2, 3}, b{4, 5, 6};
  EXPECT_EQ(a + b, (IntVec{5, 7, 9}));
  EXPECT_EQ(b - a, (IntVec{3, 3, 3}));
  EXPECT_EQ(a * b, (IntVec{4, 10, 18}));
  EXPECT_EQ(a * 2, (IntVec{2, 4, 6}));
  EXPECT_EQ(b / a, (IntVec{4, 2, 2}));
  EXPECT_EQ(IntVec::min(a, b), a);
  EXPECT_EQ(IntVec::max(a, b), b);
}

TEST(IntVec, VolumeDoesNotOverflowInt) {
  const IntVec big{1024, 1024, 1024};
  EXPECT_EQ(big.volume(), 1073741824ll);
  const IntVec bigger{2048, 2048, 2048};
  EXPECT_EQ(bigger.volume(), 8589934592ll);
}

TEST(IntVec, IndexingAndOrdering) {
  IntVec v{7, 8, 9};
  EXPECT_EQ(v[0], 7);
  EXPECT_EQ(v[1], 8);
  EXPECT_EQ(v[2], 9);
  v[1] = 0;
  EXPECT_EQ(v.y, 0);
  EXPECT_EQ(v.to_string(), "7x0x9");
}

TEST(Box, VolumeAndEmptiness) {
  const Box b{{0, 0, 0}, {2, 3, 4}};
  EXPECT_EQ(b.volume(), 24);
  EXPECT_FALSE(b.empty());
  EXPECT_TRUE((Box{{1, 1, 1}, {1, 5, 5}}).empty());
  EXPECT_TRUE((Box{{2, 0, 0}, {1, 5, 5}}).empty());  // inverted
}

TEST(Box, Contains) {
  const Box b{{0, 0, 0}, {4, 4, 4}};
  EXPECT_TRUE(b.contains(IntVec{0, 0, 0}));
  EXPECT_TRUE(b.contains(IntVec{3, 3, 3}));
  EXPECT_FALSE(b.contains(IntVec{4, 0, 0}));  // hi is exclusive
  EXPECT_TRUE(b.contains(Box{{1, 1, 1}, {3, 3, 3}}));
  EXPECT_FALSE(b.contains(Box{{1, 1, 1}, {5, 3, 3}}));
  EXPECT_TRUE(b.contains(Box{{9, 9, 9}, {9, 9, 9}}));  // empty box anywhere
}

TEST(Box, GrownAndIntersect) {
  const Box b{{2, 2, 2}, {4, 4, 4}};
  EXPECT_EQ(b.grown(1), (Box{{1, 1, 1}, {5, 5, 5}}));
  const Box other{{3, 3, 3}, {8, 8, 8}};
  EXPECT_EQ(b.intersect(other), (Box{{3, 3, 3}, {4, 4, 4}}));
  EXPECT_TRUE(b.intersect(Box{{9, 9, 9}, {10, 10, 10}}).empty());
  EXPECT_TRUE(b.overlaps(other));
}

TEST(Box, IntersectionProperties) {
  // Property sweep: intersection is commutative, contained in both
  // operands, and idempotent.
  SplitMix64 rng(21);
  for (int trial = 0; trial < 200; ++trial) {
    auto rand_box = [&rng] {
      const IntVec lo{static_cast<int>(rng.next_u64() % 10),
                      static_cast<int>(rng.next_u64() % 10),
                      static_cast<int>(rng.next_u64() % 10)};
      const IntVec size{static_cast<int>(rng.next_u64() % 8) + 1,
                        static_cast<int>(rng.next_u64() % 8) + 1,
                        static_cast<int>(rng.next_u64() % 8) + 1};
      return Box{lo, lo + size};
    };
    const Box a = rand_box(), b = rand_box();
    const Box ab = a.intersect(b);
    EXPECT_EQ(ab.volume(), b.intersect(a).volume());
    EXPECT_TRUE(a.contains(ab));
    EXPECT_TRUE(b.contains(ab));
    EXPECT_EQ(ab.intersect(a), ab);
  }
}

TEST(Level, BuildsPatchesInXFastestOrder) {
  const Level level({2, 3, 2}, {8, 8, 8});
  EXPECT_EQ(level.num_patches(), 12);
  EXPECT_EQ(level.total_cells(), (IntVec{16, 24, 16}));
  EXPECT_EQ(level.patch(0).layout_pos(), (IntVec{0, 0, 0}));
  EXPECT_EQ(level.patch(1).layout_pos(), (IntVec{1, 0, 0}));
  EXPECT_EQ(level.patch(2).layout_pos(), (IntVec{0, 1, 0}));
  EXPECT_EQ(level.patch(6).layout_pos(), (IntVec{0, 0, 1}));
  EXPECT_EQ(level.patch(1).cells(), (Box{{8, 0, 0}, {16, 8, 8}}));
}

TEST(Level, PatchAtAndBounds) {
  const Level level({2, 2, 2}, {4, 4, 4});
  EXPECT_EQ(level.patch_at({0, 0, 0})->id(), 0);
  EXPECT_EQ(level.patch_at({1, 1, 1})->id(), 7);
  EXPECT_EQ(level.patch_at({2, 0, 0}), nullptr);
  EXPECT_EQ(level.patch_at({-1, 0, 0}), nullptr);
}

TEST(Level, FaceNeighbors) {
  const Level level({3, 3, 3}, {4, 4, 4});
  const Patch& center = *level.patch_at({1, 1, 1});
  const auto n = level.neighbors(center);
  EXPECT_EQ(n.size(), 6u);
  const Patch& corner = *level.patch_at({0, 0, 0});
  EXPECT_EQ(level.neighbors(corner).size(), 3u);
}

TEST(Level, SpacingOnUnitDomain) {
  const Level level({8, 8, 2}, {16, 16, 512});
  EXPECT_DOUBLE_EQ(level.dx(), 1.0 / 128);
  EXPECT_DOUBLE_EQ(level.dy(), 1.0 / 128);
  EXPECT_DOUBLE_EQ(level.dz(), 1.0 / 1024);
}

TEST(Level, RejectsBadShapes) {
  EXPECT_THROW(Level({0, 1, 1}, {4, 4, 4}), ConfigError);
  EXPECT_THROW(Level({1, 1, 1}, {0, 4, 4}), ConfigError);
}

class PartitionCoverage : public ::testing::TestWithParam<int> {};

TEST_P(PartitionCoverage, EveryPatchOwnedExactlyOnce) {
  const int nranks = GetParam();
  const Level level({8, 8, 2}, {4, 4, 4});
  for (const auto policy : {PartitionPolicy::kBlock, PartitionPolicy::kRoundRobin}) {
    const Partition part(level, nranks, policy, test::equal_costs(level));
    std::vector<int> count(static_cast<std::size_t>(level.num_patches()), 0);
    int total = 0;
    for (int r = 0; r < nranks; ++r)
      for (int pid : part.patches_of(r)) {
        EXPECT_EQ(part.rank_of(pid), r);
        ++count[static_cast<std::size_t>(pid)];
        ++total;
      }
    EXPECT_EQ(total, level.num_patches());
    for (int c : count) EXPECT_EQ(c, 1);
  }
}

TEST_P(PartitionCoverage, BlockIsBalanced) {
  const int nranks = GetParam();
  const Level level({8, 8, 2}, {4, 4, 4});
  const Partition part(level, nranks, PartitionPolicy::kBlock, test::equal_costs(level));
  const int expected = level.num_patches() / nranks;
  for (int r = 0; r < nranks; ++r)
    EXPECT_EQ(part.patches_of(r).size(), static_cast<std::size_t>(expected));
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, PartitionCoverage,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128));

TEST(Partition, ChoosesDividingRankGrid) {
  EXPECT_EQ(Partition::choose_rank_grid({8, 8, 2}, 128), (IntVec{8, 8, 2}));
  const IntVec g16 = Partition::choose_rank_grid({8, 8, 2}, 16);
  EXPECT_EQ(g16.volume(), 16);
  EXPECT_EQ(8 % g16.x, 0);
  EXPECT_EQ(8 % g16.y, 0);
  EXPECT_EQ(2 % g16.z, 0);
  // No dividing factorization for 3 ranks over 8x8x2... actually 1x1x... no:
  // 3 divides none of 8,8,2 except via rx=1,ry=1,rz=3 (2%3!=0) -> none.
  EXPECT_EQ(Partition::choose_rank_grid({8, 8, 2}, 3), (IntVec{0, 0, 0}));
}

TEST(Partition, FallbackChunksAreContiguous) {
  const Level level({8, 8, 2}, {4, 4, 4});
  const Partition part(level, 3, PartitionPolicy::kBlock, test::equal_costs(level));
  for (int r = 0; r < 3; ++r) {
    const auto& ids = part.patches_of(r);
    ASSERT_FALSE(ids.empty());
    for (std::size_t i = 1; i < ids.size(); ++i)
      EXPECT_EQ(ids[i], ids[i - 1] + 1);
  }
}

TEST(Partition, Validation) {
  const Level level({2, 2, 1}, {4, 4, 4});
  const std::vector<double> costs = test::equal_costs(level);
  EXPECT_THROW(Partition(level, 0, PartitionPolicy::kBlock, costs), ConfigError);
  EXPECT_THROW(Partition(level, 5, PartitionPolicy::kBlock, costs), ConfigError);
}

TEST(Tiling, CoversPatchExactlyOnce) {
  const Box patch{{0, 0, 0}, {16, 16, 512}};
  const Tiling tiling(patch, {16, 16, 8});
  EXPECT_EQ(tiling.num_tiles(), 64);
  std::int64_t total = 0;
  for (int i = 0; i < tiling.num_tiles(); ++i) {
    const Box t = tiling.tile(i);
    total += t.volume();
    EXPECT_TRUE(patch.contains(t));
  }
  EXPECT_EQ(total, patch.volume());
}

TEST(Tiling, ClipsBoundaryTiles) {
  const Box patch{{0, 0, 0}, {20, 10, 10}};
  const Tiling tiling(patch, {16, 16, 8});
  EXPECT_EQ(tiling.tile_grid(), (IntVec{2, 1, 2}));
  std::int64_t total = 0;
  for (int i = 0; i < tiling.num_tiles(); ++i) total += tiling.tile(i).volume();
  EXPECT_EQ(total, patch.volume());
  EXPECT_EQ(tiling.tile(1).size(), (IntVec{4, 10, 8}));  // clipped in x
}

TEST(Tiling, TileBoxesMatchEnumeration) {
  // tile(t) is computed from the index; it must equal the x-fastest, then
  // y, then z enumeration of clipped boxes, on patches clipped on each axis
  // in turn, on all three, and on none, with an offset origin.
  const IntVec shape{16, 16, 8};
  const IntVec lo{-3, 5, 7};
  for (const IntVec size : {IntVec{20, 32, 16}, IntVec{32, 20, 16},
                            IntVec{32, 32, 13}, IntVec{21, 9, 5},
                            IntVec{32, 32, 16}}) {
    const Box patch{lo, lo + size};
    const Tiling tiling(patch, shape);
    std::vector<Box> enumerated;
    for (int z = patch.lo.z; z < patch.hi.z; z += shape.z)
      for (int y = patch.lo.y; y < patch.hi.y; y += shape.y)
        for (int x = patch.lo.x; x < patch.hi.x; x += shape.x) {
          const IntVec tlo{x, y, z};
          enumerated.push_back(Box{tlo, IntVec::min(tlo + shape, patch.hi)});
        }
    ASSERT_EQ(tiling.num_tiles(), static_cast<int>(enumerated.size()))
        << size.to_string();
    for (int t = 0; t < tiling.num_tiles(); ++t)
      EXPECT_EQ(tiling.tile(t), enumerated[static_cast<std::size_t>(t)])
          << size.to_string() << " tile " << t;
  }
}

TEST(Tiling, ZPartitionAssignsAllTilesOnce) {
  const Box patch{{0, 0, 0}, {128, 128, 512}};
  const Tiling tiling(patch, {16, 16, 8});  // 8x8x64 tiles
  std::set<int> seen;
  for (int cpe = 0; cpe < 64; ++cpe) {
    const auto mine = tiling.tiles_for_cpe(cpe, 64);
    EXPECT_EQ(mine.size(), 64u);  // one z-slab of 8x8 tiles each
    for (int t : mine) EXPECT_TRUE(seen.insert(t).second);
  }
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(tiling.num_tiles()));
}

TEST(Tiling, ZPartitionMatchesSlabRule) {
  // tiles_for_cpe against the per-slab rule it must implement: slab s goes
  // to CPE s * n / nz, carrying its x-y tiles (two per slab here) in tile
  // order. Every slab count up to 300 against every group size up to 64.
  for (int nz = 1; nz <= 300; ++nz) {
    const Tiling tiling(Box{{0, 0, 0}, {2, 1, nz}}, {1, 1, 1});
    for (int n = 1; n <= 64; ++n) {
      std::vector<std::vector<int>> expected(static_cast<std::size_t>(n));
      for (int s = 0; s < nz; ++s) {
        std::vector<int>& owned = expected[static_cast<std::size_t>(s * n / nz)];
        owned.push_back(2 * s);
        owned.push_back(2 * s + 1);
      }
      std::vector<int> times_assigned(
          static_cast<std::size_t>(tiling.num_tiles()), 0);
      for (int c = 0; c < n; ++c) {
        const std::vector<int> mine = tiling.tiles_for_cpe(c, n);
        ASSERT_EQ(mine, expected[static_cast<std::size_t>(c)])
            << "nz=" << nz << " n=" << n << " c=" << c;
        for (int t : mine) ++times_assigned[static_cast<std::size_t>(t)];
      }
      ASSERT_EQ(std::count(times_assigned.begin(), times_assigned.end(), 1),
                tiling.num_tiles())
          << "nz=" << nz << " n=" << n;
    }
  }
}

TEST(Tiling, FewSlabsLeaveCpesIdle) {
  // A patch with only 2 z-slabs of tiles can use at most 2 of 64 CPEs —
  // the behavior the paper's static z-partition implies.
  const Box patch{{0, 0, 0}, {16, 16, 16}};
  const Tiling tiling(patch, {16, 16, 8});
  int busy = 0;
  for (int cpe = 0; cpe < 64; ++cpe)
    if (!tiling.tiles_for_cpe(cpe, 64).empty()) ++busy;
  EXPECT_EQ(busy, 2);
}

TEST(Tiling, WorkingSetMatchesPaper) {
  // Sec VI-A: tile 16x16x8 with one ghost layer, u in and u_new out, needs
  // ~41.3 KB of the 64 KB LDM.
  const std::uint64_t ws = Tiling::working_set_bytes({16, 16, 8}, 1, 8, 1, 1);
  EXPECT_EQ(ws, (18u * 18 * 10 + 16u * 16 * 8) * 8);
  EXPECT_GT(ws, 41u * 1024);
  EXPECT_LT(ws, 43u * 1024);
  EXPECT_LT(ws, 64u * 1024);
}

TEST(Tiling, RejectsBadShapes) {
  EXPECT_THROW(Tiling(Box{{0, 0, 0}, {8, 8, 8}}, {0, 4, 4}), ConfigError);
}

}  // namespace
}  // namespace usw::grid
