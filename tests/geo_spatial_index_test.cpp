// Property tests pinning Atlas to its oracle: a brute-force scan in
// ascending-id order with the same predicates. Whatever the cell size, the
// point cloud, or the query, the grid must return byte-for-byte what the
// scan returns — that equality is what every indexed hot path in the system
// leans on.
#include "geo/spatial_index.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <limits>
#include <map>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "util/rng.h"

namespace mm::geo {
namespace {

using Id = SpatialIndex::Id;

std::vector<Id> brute_disc(const std::vector<Vec2>& points, Vec2 center, double radius) {
  std::vector<Id> out;
  if (!(radius >= 0.0)) return out;  // NaN/negative: empty, like the index
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (points[i].distance_to(center) <= radius) out.push_back(i);
  }
  return out;
}

std::vector<Id> brute_range(const std::vector<Vec2>& points, Vec2 lo, Vec2 hi) {
  std::vector<Id> out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Vec2& p = points[i];
    if (p.x >= lo.x && p.x <= hi.x && p.y >= lo.y && p.y <= hi.y) out.push_back(i);
  }
  return out;
}

std::vector<Id> brute_nearest(const std::vector<Vec2>& points, Vec2 center,
                              std::size_t k) {
  std::vector<std::pair<double, Id>> ranked;
  for (std::size_t i = 0; i < points.size(); ++i) {
    ranked.emplace_back(points[i].distance_to(center), i);
  }
  std::sort(ranked.begin(), ranked.end());
  std::vector<Id> out;
  for (std::size_t i = 0; i < std::min(k, ranked.size()); ++i) out.push_back(ranked[i].second);
  return out;
}

TEST(SpatialIndex, RejectsBadCellSize) {
  EXPECT_THROW(SpatialIndex(0.0), std::invalid_argument);
  EXPECT_THROW(SpatialIndex(-3.0), std::invalid_argument);
  EXPECT_THROW(SpatialIndex(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(SpatialIndex(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(SpatialIndex, EmptyIndexReturnsEmpty) {
  const SpatialIndex index(10.0);
  EXPECT_TRUE(index.empty());
  EXPECT_TRUE(index.query_disc({0.0, 0.0}, 1e9).empty());
  EXPECT_TRUE(index.query_range({-1e9, -1e9}, {1e9, 1e9}).empty());
  EXPECT_TRUE(index.nearest_k({0.0, 0.0}, 5).empty());
}

TEST(SpatialIndex, DuplicateIdThrows) {
  SpatialIndex index(10.0);
  index.insert(7, {1.0, 2.0});
  EXPECT_THROW(index.insert(7, {3.0, 4.0}), std::invalid_argument);
  EXPECT_EQ(index.size(), 1u);
}

TEST(SpatialIndex, CoincidentPointsAllReturnedAscending) {
  SpatialIndex index(5.0);
  const Vec2 p{12.5, -3.25};
  for (Id id : {9, 2, 5, 0, 7}) index.insert(id, p);  // insertion order scrambled
  const std::vector<Id> expect{0, 2, 5, 7, 9};
  EXPECT_EQ(index.query_disc(p, 0.0), expect);
  EXPECT_EQ(index.nearest_k(p, 5), expect);
  EXPECT_EQ(index.nearest_k({100.0, 100.0}, 3), (std::vector<Id>{0, 2, 5}));
}

TEST(SpatialIndex, ZeroRadiusHitsExactPointOnly) {
  SpatialIndex index(1.0);
  index.insert(0, {0.0, 0.0});
  index.insert(1, {0.0, 1e-12});
  EXPECT_EQ(index.query_disc({0.0, 0.0}, 0.0), (std::vector<Id>{0}));
}

TEST(SpatialIndex, PointsOnCellBoundaries) {
  // Points exactly on cell-grid lines (x or y a multiple of the cell size)
  // are the classic off-by-one-cell bug; the closed-disc predicate must win.
  const double cell = 10.0;
  SpatialIndex index(cell);
  std::vector<Vec2> points;
  Id id = 0;
  for (int ix = -3; ix <= 3; ++ix) {
    for (int iy = -3; iy <= 3; ++iy) {
      points.push_back({ix * cell, iy * cell});
      index.insert(id++, points.back());
    }
  }
  for (double radius : {0.0, 10.0, 14.142135623730951, 20.0, 35.0}) {
    EXPECT_EQ(index.query_disc({0.0, 0.0}, radius), brute_disc(points, {0.0, 0.0}, radius))
        << "radius " << radius;
  }
  EXPECT_EQ(index.query_range({-10.0, -10.0}, {10.0, 10.0}),
            brute_range(points, {-10.0, -10.0}, {10.0, 10.0}));
}

TEST(SpatialIndex, NegativeAndNanRadiusEmpty) {
  SpatialIndex index(10.0);
  index.insert(0, {0.0, 0.0});
  EXPECT_TRUE(index.query_disc({0.0, 0.0}, -1.0).empty());
  EXPECT_TRUE(index.query_disc({0.0, 0.0}, std::numeric_limits<double>::quiet_NaN()).empty());
}

TEST(SpatialIndex, EraseRemovesFromQueries) {
  SpatialIndex index(10.0);
  index.insert(0, {1.0, 1.0});
  index.insert(1, {2.0, 2.0});
  EXPECT_TRUE(index.erase(0));
  EXPECT_FALSE(index.erase(0));
  EXPECT_FALSE(index.contains(0));
  EXPECT_EQ(index.query_disc({0.0, 0.0}, 100.0), (std::vector<Id>{1}));
  EXPECT_EQ(index.nearest_k({0.0, 0.0}, 2), (std::vector<Id>{1}));
}

TEST(SpatialIndex, RandomizedAgainstBruteForce) {
  util::Rng rng(0xA71A5);
  for (int round = 0; round < 30; ++round) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(0, 200));
    const double extent = rng.uniform(5.0, 2000.0);
    const double cell = rng.uniform(0.5, 300.0);
    std::vector<Vec2> points;
    points.reserve(n);
    SpatialIndex index(cell);
    for (std::size_t i = 0; i < n; ++i) {
      Vec2 p{rng.uniform(-extent, extent), rng.uniform(-extent, extent)};
      if (!points.empty() && rng.bernoulli(0.1)) p = points.back();  // coincident
      points.push_back(p);
      index.insert(i, p);
    }
    for (int q = 0; q < 20; ++q) {
      const Vec2 center{rng.uniform(-extent, extent), rng.uniform(-extent, extent)};
      const double radius = rng.uniform(0.0, extent);
      EXPECT_EQ(index.query_disc(center, radius), brute_disc(points, center, radius))
          << "round " << round << " disc query " << q;
      const Vec2 a{rng.uniform(-extent, extent), rng.uniform(-extent, extent)};
      const Vec2 b{rng.uniform(-extent, extent), rng.uniform(-extent, extent)};
      const Vec2 lo{std::min(a.x, b.x), std::min(a.y, b.y)};
      const Vec2 hi{std::max(a.x, b.x), std::max(a.y, b.y)};
      EXPECT_EQ(index.query_range(lo, hi), brute_range(points, lo, hi))
          << "round " << round << " range query " << q;
      const std::size_t k = static_cast<std::size_t>(rng.uniform_int(0, 12));
      EXPECT_EQ(index.nearest_k(center, k), brute_nearest(points, center, k))
          << "round " << round << " nearest query " << q;
    }
  }
}

TEST(SpatialIndex, RandomizedEraseKeepsOracle) {
  util::Rng rng(0xE7A5E);
  std::vector<Vec2> points;
  std::vector<char> alive;
  SpatialIndex index(25.0);
  for (std::size_t i = 0; i < 150; ++i) {
    points.push_back({rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)});
    alive.push_back(1);
    index.insert(i, points.back());
  }
  for (int step = 0; step < 100; ++step) {
    const std::size_t victim = static_cast<std::size_t>(rng.uniform_int(0, 149));
    EXPECT_EQ(index.erase(victim), alive[victim] != 0);
    alive[victim] = 0;
    const Vec2 center{rng.uniform(-500.0, 500.0), rng.uniform(-500.0, 500.0)};
    const double radius = rng.uniform(0.0, 400.0);
    std::vector<Id> expect;
    for (std::size_t i = 0; i < points.size(); ++i) {
      if (alive[i] != 0 && points[i].distance_to(center) <= radius) expect.push_back(i);
    }
    EXPECT_EQ(index.query_disc(center, radius), expect) << "step " << step;
  }
}

TEST(SpatialIndex, BuildFromMatchesIncrementalInsert) {
  util::Rng rng(0xB01D);
  std::vector<Vec2> points;
  for (int i = 0; i < 300; ++i) {
    points.push_back({rng.uniform(-1000.0, 1000.0), rng.uniform(-1000.0, 1000.0)});
  }
  const SpatialIndex built = SpatialIndex::build_from(points);
  SpatialIndex manual(built.cell_size_m());
  for (std::size_t i = 0; i < points.size(); ++i) manual.insert(i, points[i]);
  for (int q = 0; q < 25; ++q) {
    const Vec2 center{rng.uniform(-1000.0, 1000.0), rng.uniform(-1000.0, 1000.0)};
    const double radius = rng.uniform(0.0, 800.0);
    EXPECT_EQ(built.query_disc(center, radius), manual.query_disc(center, radius));
    EXPECT_EQ(built.query_disc(center, radius), brute_disc(points, center, radius));
  }
  EXPECT_TRUE(SpatialIndex::build_from({}).empty());
}

// build_from applies the self-sizing formula once:
// clamp(sqrt(max(1, area) / n), 1, 1000) over the input's bounding box.
TEST(SpatialIndex, BuildFromPicksDensityCell) {
  EXPECT_EQ(SpatialIndex().cell_size_m(), 100.0);
  EXPECT_EQ(SpatialIndex::build_from({}).cell_size_m(), 100.0);  // the default start
  const std::vector<Vec2> single{{12.5, -7.0}};
  EXPECT_EQ(SpatialIndex::build_from(single).cell_size_m(), 1.0);
  const std::vector<Vec2> coincident(50, Vec2{3.0, 4.0});
  EXPECT_EQ(SpatialIndex::build_from(coincident).cell_size_m(), 1.0);
  std::vector<Vec2> grid;  // 10x10 lattice over a 1 km square: 100 m cells
  for (int i = 0; i < 100; ++i) {
    grid.push_back({(i % 10) * 1000.0 / 9.0, (i / 10) * 1000.0 / 9.0});
  }
  EXPECT_DOUBLE_EQ(SpatialIndex::build_from(grid).cell_size_m(), 100.0);
  const std::vector<Vec2> vast{{0.0, 0.0}, {1.0e6, 1.0e6}};
  EXPECT_EQ(SpatialIndex::build_from(vast).cell_size_m(), 1000.0);
}

// Self-sizing: seeded insert/erase walks that cross every resize threshold
// from 32 to 1024 points. Resizing is performance only, so after every step
// every query must still equal the brute scan over the live points, and the
// cell may only move at a threshold, to a value outside 0.5-2x of the old
// one, inside [1, 1000] m.
TEST(SpatialIndex, SelfSizingKeepsOracleAcrossResizes) {
  enum class Cloud { kClustered, kSpread, kCoincident };
  for (const Cloud cloud : {Cloud::kClustered, Cloud::kSpread, Cloud::kCoincident}) {
    util::Rng rng(0x5E1F5 + static_cast<std::uint64_t>(cloud));
    const std::vector<Vec2> blobs{{-1500.0, 800.0}, {0.0, 0.0}, {1900.0, -1200.0}};
    const auto draw = [&]() -> Vec2 {
      switch (cloud) {
        case Cloud::kClustered: {
          const Vec2 c = blobs[static_cast<std::size_t>(rng.uniform_int(0, 2))];
          return {c.x + rng.gaussian(0.0, 3.0), c.y + rng.gaussian(0.0, 3.0)};
        }
        case Cloud::kSpread:
          return {rng.uniform(-5000.0, 5000.0), rng.uniform(-5000.0, 5000.0)};
        case Cloud::kCoincident:
          return {42.0, -17.0};
      }
      return {};
    };
    SpatialIndex index;
    std::map<Id, Vec2> live;  // ascending ids: the brute scan's order
    Id next_id = 0;
    int resizes = 0;
    for (int step = 0; live.size() <= 1100; ++step) {
      const double cell_before = index.cell_size_m();
      const bool erase = !live.empty() && rng.bernoulli(0.25);
      if (erase) {
        auto victim = live.begin();
        const auto last = static_cast<std::int64_t>(live.size()) - 1;
        std::advance(victim, rng.uniform_int(0, last));
        ASSERT_TRUE(index.erase(victim->first));
        live.erase(victim);
      } else {
        const Vec2 p = draw();
        index.insert(next_id, p);
        live.emplace(next_id++, p);
      }
      const double cell = index.cell_size_m();
      ASSERT_GE(cell, 1.0);
      ASSERT_LE(cell, 1000.0);
      if (cell != cell_before) {
        ++resizes;
        const std::size_t n = index.size();
        ASSERT_FALSE(erase) << "step " << step;
        ASSERT_TRUE(n >= 32 && (n & (n - 1)) == 0) << "step " << step << " size " << n;
        ASSERT_FALSE(cell > cell_before * 0.5 && cell < cell_before * 2.0)
            << "step " << step << ": " << cell_before << " -> " << cell;
      }

      std::vector<Id> ids;
      std::vector<Vec2> pts;
      for (const auto& [id, p] : live) {
        ids.push_back(id);
        pts.push_back(p);
      }
      const auto as_ids = [&](const std::vector<Id>& ranks) {
        std::vector<Id> out;
        for (const Id r : ranks) out.push_back(ids[r]);
        return out;
      };
      // Centers near the cloud or anywhere; radii tight or wide.
      Vec2 center{rng.uniform(-6000.0, 6000.0), rng.uniform(-6000.0, 6000.0)};
      if (rng.bernoulli(0.7)) center = draw();
      const double radius = rng.uniform(0.0, rng.bernoulli(0.5) ? 20.0 : 3000.0);
      ASSERT_EQ(index.query_disc(center, radius), as_ids(brute_disc(pts, center, radius)))
          << "step " << step;
      const Vec2 lo{center.x - radius, center.y - radius * 0.5};
      const Vec2 hi{center.x + radius * 0.5, center.y + radius};
      ASSERT_EQ(index.query_range(lo, hi), as_ids(brute_range(pts, lo, hi)))
          << "step " << step;
      const std::size_t k = static_cast<std::size_t>(rng.uniform_int(0, 40));
      ASSERT_EQ(index.nearest_k(center, k), as_ids(brute_nearest(pts, center, k)))
          << "step " << step;
    }
    // Every cloud moves the cell off its 100 m start at least once.
    EXPECT_GT(resizes, 0) << "cloud " << static_cast<int>(cloud);
  }
}

// The best-first nearest_k rewrite earns its keep on clustered clouds: tight
// blobs separated by wide empty gulfs, queried with large k and from centers
// far outside the occupied bounding box. The oracle stays the same brute
// (distance, id) sort — the traversal must never change a single bit.
TEST(SpatialIndex, NearestKClusteredOracle) {
  util::Rng rng(0xC1057E2);
  for (int round = 0; round < 8; ++round) {
    std::vector<Vec2> points;
    const int clusters = static_cast<int>(rng.uniform_int(2, 6));
    std::vector<Vec2> centers;
    for (int c = 0; c < clusters; ++c) {
      centers.push_back({rng.uniform(-50000.0, 50000.0), rng.uniform(-50000.0, 50000.0)});
    }
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(300, 900));
    for (std::size_t i = 0; i < n; ++i) {
      const Vec2 c = centers[i % centers.size()];
      points.push_back({c.x + rng.gaussian(0.0, 40.0), c.y + rng.gaussian(0.0, 40.0)});
    }
    // A fine cell size recreates the pathological many-empty-cells regime.
    SpatialIndex index(rng.uniform(2.0, 30.0));
    for (std::size_t i = 0; i < n; ++i) index.insert(i, points[i]);
    for (const std::size_t k : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                n / 2, n - 1, n, n + 10}) {
      // From inside a cluster, between clusters, and far outside everything.
      const Vec2 inside = points[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(n) - 1))];
      const Vec2 between = (centers[0] + centers[clusters - 1]) * 0.5;
      const Vec2 far{rng.uniform(1.0e8, 1.0e9), rng.uniform(-1.0e9, -1.0e8)};
      for (const Vec2& center : {inside, between, far}) {
        EXPECT_EQ(index.nearest_k(center, k), brute_nearest(points, center, k))
            << "round " << round << " k " << k;
      }
    }
  }
}

// Equidistant points across cell boundaries: the k-th distance ties exactly,
// and the tie must resolve by ascending id whether the contenders share a
// cell, a frontier ring, or neither.
TEST(SpatialIndex, NearestKExactTiesResolveById) {
  SpatialIndex index(10.0);
  std::vector<Vec2> points;
  const double r = 100.0;
  for (Id id = 0; id < 8; ++id) {
    // Points spread over an axis-aligned square of "radius" 100 around the
    // origin — edge midpoints, corners, and the center — in different cells,
    // with distances tied in groups (three at 100, four at 100*sqrt(2)).
    const double sx = (id % 3 == 0) ? 0.0 : (id % 3 == 1 ? r : -r);
    const double sy = (id < 3) ? r : (id < 6 ? -r : 0.0);
    points.push_back({sx, sy});
    index.insert(id, points.back());
  }
  for (std::size_t k = 1; k <= points.size(); ++k) {
    EXPECT_EQ(index.nearest_k({0.0, 0.0}, k), brute_nearest(points, {0.0, 0.0}, k))
        << "k " << k;
  }
}

// Erase leaves the cached cell bounding box loose; nearest_k from far away
// must still clamp into it and return the survivors.
TEST(SpatialIndex, NearestKAfterEraseFromFarAway) {
  SpatialIndex index(5.0);
  std::vector<Vec2> points;
  util::Rng rng(0xE2A5E2);
  for (Id id = 0; id < 120; ++id) {
    points.push_back({rng.uniform(-300.0, 300.0), rng.uniform(-300.0, 300.0)});
    index.insert(id, points.back());
  }
  std::vector<char> alive(points.size(), 1);
  for (Id id = 0; id < 120; id += 3) {
    index.erase(id);
    alive[id] = 0;
  }
  const Vec2 far{-4.0e7, 9.0e7};
  const auto got = index.nearest_k(far, 10);
  std::vector<std::pair<double, Id>> ranked;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (alive[i] != 0) ranked.emplace_back(points[i].distance_to(far), i);
  }
  std::sort(ranked.begin(), ranked.end());
  ranked.resize(10);
  std::vector<Id> expect;
  for (const auto& [d, id] : ranked) expect.push_back(id);
  EXPECT_EQ(got, expect);
}

TEST(SpatialIndex, ExtremeCoordinatesDoNotOverflow) {
  SpatialIndex index(1.0);  // huge coordinate / tiny cell: saturated cells
  const double big = 1e18;
  index.insert(0, {big, big});
  index.insert(1, {-big, -big});
  index.insert(2, {0.0, 0.0});
  EXPECT_EQ(index.query_disc({big, big}, 1.0), (std::vector<Id>{0}));
  EXPECT_EQ(index.query_range({-2e18, -2e18}, {2e18, 2e18}), (std::vector<Id>{0, 1, 2}));
  EXPECT_EQ(index.nearest_k({0.0, 0.0}, 1), (std::vector<Id>{2}));
}

// Const queries are pure reads: many threads may hit one index concurrently
// (this is what locate_all's workers do through ApDatabase). Run under TSan
// in CI to make the claim checkable, not just asserted.
TEST(SpatialIndex, ConcurrentReadsAreSafe) {
  util::Rng rng(0xC0C0);
  std::vector<Vec2> points;
  SpatialIndex index(50.0);
  for (std::size_t i = 0; i < 500; ++i) {
    points.push_back({rng.uniform(-1000.0, 1000.0), rng.uniform(-1000.0, 1000.0)});
    index.insert(i, points.back());
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&, t] {
      util::Rng local(0xBEEF + static_cast<std::uint64_t>(t));
      for (int q = 0; q < 200; ++q) {
        const Vec2 center{local.uniform(-1000.0, 1000.0), local.uniform(-1000.0, 1000.0)};
        const double radius = local.uniform(0.0, 600.0);
        if (index.query_disc(center, radius) != brute_disc(points, center, radius)) {
          mismatches.fetch_add(1);
        }
        if (index.nearest_k(center, 5) != brute_nearest(points, center, 5)) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace mm::geo
