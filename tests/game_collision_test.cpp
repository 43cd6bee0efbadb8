//===- tests/game_collision_test.cpp - Collision pipeline tests ------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "game/Collision.h"

#include "dmacheck/DmaRaceChecker.h"
#include "offload/Offload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

using namespace omm;
using namespace omm::game;
using namespace omm::sim;

TEST(CollisionResponse, NonOverlappingPairsUntouched) {
  GameEntity A{}, B{};
  A.Position = Vec3(0, 0, 0);
  A.Radius = 1.0f;
  B.Position = Vec3(10, 0, 0);
  B.Radius = 1.0f;
  GameEntity A0 = A, B0 = B;
  EXPECT_FALSE(respondToCollision(A, B));
  EXPECT_EQ(A.mixInto(1), A0.mixInto(1));
  EXPECT_EQ(B.mixInto(1), B0.mixInto(1));
}

TEST(CollisionResponse, OverlappingPairsSeparate) {
  GameEntity A{}, B{};
  A.Position = Vec3(0, 0, 0);
  A.Radius = 1.0f;
  B.Position = Vec3(1, 0, 0); // Overlap of 1 unit.
  B.Radius = 1.0f;
  EXPECT_TRUE(respondToCollision(A, B));
  float Dist = (B.Position - A.Position).length();
  EXPECT_NEAR(Dist, A.Radius + B.Radius, 1e-4f);
  EXPECT_EQ(A.HitCount, 1u);
  EXPECT_EQ(B.HitCount, 1u);
  EXPECT_LT(A.Health, 0.01f); // Damage applied (started at 0).
}

TEST(CollisionResponse, MomentumExchangeIsSymmetric) {
  GameEntity A{}, B{};
  A.Position = Vec3(0, 0, 0);
  A.Radius = 1.0f;
  A.Velocity = Vec3(2, 0, 0);
  B.Position = Vec3(1.5f, 0, 0);
  B.Radius = 1.0f;
  B.Velocity = Vec3(-2, 0, 0);
  Vec3 TotalBefore = A.Velocity + B.Velocity;
  EXPECT_TRUE(respondToCollision(A, B));
  Vec3 TotalAfter = A.Velocity + B.Velocity;
  // Equal masses, equal-and-opposite impulse: total momentum conserved.
  EXPECT_NEAR(TotalBefore.X, TotalAfter.X, 1e-4f);
  EXPECT_NEAR(TotalBefore.Y, TotalAfter.Y, 1e-4f);
  // The approach speed decreased.
  EXPECT_LT(std::abs((B.Velocity - A.Velocity).X),
            std::abs(4.0f));
}

TEST(CollisionResponse, CoincidentCentersStillSeparate) {
  GameEntity A{}, B{};
  A.Position = B.Position = Vec3(5, 5, 5);
  A.Radius = B.Radius = 1.0f;
  EXPECT_TRUE(respondToCollision(A, B));
  EXPECT_GT((B.Position - A.Position).length(), 1.0f);
}

namespace {

/// A world with two known overlapping entities and the rest far away.
struct PairedWorld {
  PairedWorld() : Store(M, 64, 99, 400.0f) {
    GameEntity A = Store.peek(0);
    A.Position = Vec3(0, 0, 0);
    A.Radius = 2.0f;
    Store.poke(0, A);
    GameEntity B = Store.peek(1);
    B.Position = Vec3(1, 0, 0);
    B.Radius = 2.0f;
    Store.poke(1, B);
  }

  Machine M;
  EntityStore Store;
};

} // namespace

TEST(Broadphase, FindsKnownOverlap) {
  PairedWorld World;
  auto Pairs = broadphaseHost(World.Store, CollisionParams());
  bool Found = false;
  for (const CollisionPair &Pair : Pairs)
    if (Pair.FirstId == 0 && Pair.SecondId == 1)
      Found = true;
  EXPECT_TRUE(Found);
}

TEST(Broadphase, PairsAreCanonicalAndUnique) {
  Machine M;
  EntityStore Store(M, 300, 5, 30.0f); // Dense world: many pairs.
  auto Pairs = broadphaseHost(Store, CollisionParams());
  ASSERT_FALSE(Pairs.empty());
  std::set<std::pair<uint32_t, uint32_t>> Seen;
  for (const CollisionPair &Pair : Pairs) {
    EXPECT_LT(Pair.FirstId, Pair.SecondId);
    EXPECT_TRUE(Seen.insert({Pair.FirstId, Pair.SecondId}).second)
        << "duplicate pair";
  }
}

namespace {

using IdPair = std::pair<uint32_t, uint32_t>;

/// Brute-force reference for broadphaseHost: every entity pair, O(n^2),
/// through the same coarse sphere test, ordered the way the grid walk
/// visits them. The walk takes occupied cells in (X, Y, Z) order; in
/// each cell it visits same-cell pairs first, then each of the 13
/// forward neighbour offsets in turn, with entities in index order
/// inside a cell.
std::vector<IdPair> referencePairs(const EntityStore &Store) {
  static constexpr int32_t Forward[13][3] = {
      {1, 0, 0},  {0, 1, 0},  {0, 0, 1},  {1, 1, 0},  {1, -1, 0},
      {1, 0, 1},  {1, 0, -1}, {0, 1, 1},  {0, 1, -1}, {1, 1, 1},
      {1, 1, -1}, {1, -1, 1}, {1, -1, -1}};
  using Cell = std::tuple<int32_t, int32_t, int32_t>;
  const float InvCell = 1.0f / CollisionParams::CellSize;
  std::vector<GameEntity> Es;
  std::vector<Cell> Cells;
  for (uint32_t I = 0; I != Store.size(); ++I) {
    Es.push_back(Store.peek(I));
    const Vec3 &P = Es.back().Position;
    Cells.emplace_back(static_cast<int32_t>(std::floor(P.X * InvCell)),
                       static_cast<int32_t>(std::floor(P.Y * InvCell)),
                       static_cast<int32_t>(std::floor(P.Z * InvCell)));
  }
  auto ForwardIndex = [&](const Cell &From, const Cell &To) -> int {
    for (int K = 0; K != 13; ++K)
      if (To == Cell(std::get<0>(From) + Forward[K][0],
                     std::get<1>(From) + Forward[K][1],
                     std::get<2>(From) + Forward[K][2]))
        return K;
    return -1;
  };
  // (walk cell, 0 for same-cell or 1 + forward offset, walk-cell entity,
  // neighbour entity).
  using Key = std::tuple<Cell, int, uint32_t, uint32_t>;
  std::vector<Key> Keys;
  for (uint32_t I = 0; I != Store.size(); ++I)
    for (uint32_t J = I + 1; J != Store.size(); ++J) {
      if (!spheresOverlap(Es[I].Position, Es[I].Radius * 1.2f,
                          Es[J].Position, Es[J].Radius * 1.2f))
        continue;
      if (Cells[I] == Cells[J]) {
        Keys.emplace_back(Cells[I], 0, I, J);
      } else if (int K = ForwardIndex(Cells[I], Cells[J]); K >= 0) {
        Keys.emplace_back(Cells[I], 1 + K, I, J);
      } else if (int K = ForwardIndex(Cells[J], Cells[I]); K >= 0) {
        Keys.emplace_back(Cells[J], 1 + K, J, I);
      } else {
        ADD_FAILURE() << "overlap between non-adjacent cells: " << I
                      << ", " << J;
      }
    }
  std::sort(Keys.begin(), Keys.end());
  std::vector<IdPair> Pairs;
  for (const auto &[C, Phase, A, B] : Keys)
    Pairs.emplace_back(std::min(A, B), std::max(A, B));
  return Pairs;
}

/// Moves the first entities onto the walls, corners and edges of the
/// world, where the physics clamp leaves them, two per spot: one on
/// the wall and one a unit further in, so pairs overlap across it.
void clampSomeToWalls(EntityStore &Store) {
  const float H = Store.worldHalfExtent();
  const Vec3 Spots[] = {Vec3(H, H, H),   Vec3(-H, -H, -H), Vec3(H, -H, 0),
                        Vec3(-H, H, H),  Vec3(0, 0, H),    Vec3(0, -H, 0),
                        Vec3(H, 0.5f, -H)};
  auto Inward = [](float C) { return C > 0 ? C - 1 : (C < 0 ? C + 1 : C); };
  uint32_t I = 0;
  for (const Vec3 &Spot : Spots) {
    GameEntity E = Store.peek(I);
    E.Position = Spot;
    Store.poke(I++, E);
    E = Store.peek(I);
    E.Position = Vec3(Inward(Spot.X), Inward(Spot.Y), Inward(Spot.Z));
    Store.poke(I++, E);
  }
}

/// Places one overlapping pair straddling the boundary of cell (0, 0, 0)
/// toward each of the 13 forward neighbours, using entities from
/// \p First on, so every neighbour offset of the walk has a pair to find.
void straddleEveryForwardOffset(EntityStore &Store, uint32_t First) {
  uint32_t I = First;
  auto Near = [](int D) { return D > 0 ? 7.6f : (D < 0 ? 0.4f : 4.0f); };
  for (int DX = -1; DX <= 1; ++DX)
    for (int DY = -1; DY <= 1; ++DY)
      for (int DZ = -1; DZ <= 1; ++DZ) {
        // Forward offsets are the ones whose first non-zero step is +1.
        int Lead = DX != 0 ? DX : (DY != 0 ? DY : DZ);
        if (Lead != 1)
          continue;
        GameEntity E = Store.peek(I);
        E.Position = Vec3(Near(DX), Near(DY), Near(DZ));
        E.Radius = 1.0f;
        Store.poke(I++, E);
        Vec3 Across = E.Position + Vec3(DX * 0.8f, DY * 0.8f, DZ * 0.8f);
        E = Store.peek(I);
        E.Position = Across;
        E.Radius = 1.0f;
        Store.poke(I++, E);
      }
  ASSERT_EQ(I, First + 26);
}

} // namespace

TEST(Broadphase, MatchesBruteForceReferenceInOrder) {
  struct World {
    uint32_t Count;
    uint64_t Seed;
    float HalfExtent;
  };
  // Sparse to dense, and 32 puts the +H wall exactly on a cell boundary.
  const World Worlds[] = {
      {300, 5, 30.0f}, {500, 11, 60.0f}, {250, 17, 12.0f}, {400, 23, 32.0f}};
  for (const World &W : Worlds) {
    Machine M;
    EntityStore Store(M, W.Count, W.Seed, W.HalfExtent);
    clampSomeToWalls(Store);
    straddleEveryForwardOffset(Store, 14);
    std::vector<CollisionPair> Pairs =
        broadphaseHost(Store, CollisionParams());
    std::vector<IdPair> Got;
    for (const CollisionPair &Pair : Pairs) {
      Got.emplace_back(Pair.FirstId, Pair.SecondId);
      EXPECT_EQ(Pair.FirstAddr, Store.entity(Pair.FirstId).addr().Value);
      EXPECT_EQ(Pair.SecondAddr, Store.entity(Pair.SecondId).addr().Value);
    }
    std::vector<IdPair> Want = referencePairs(Store);
    ASSERT_FALSE(Want.empty()) << "seed " << W.Seed;
    EXPECT_EQ(Got, Want) << "seed " << W.Seed << " extent " << W.HalfExtent;
  }
}

TEST(Broadphase, ChargesHostTime) {
  Machine M;
  EntityStore Store(M, 100, 5, 30.0f);
  uint64_t Before = M.hostClock().now();
  broadphaseHost(Store, CollisionParams());
  EXPECT_GT(M.hostClock().now(), Before);
}

TEST(DetectContacts, FiltersToExactOverlaps) {
  PairedWorld World;
  CollisionParams Params;
  auto Candidates = broadphaseHost(World.Store, Params);
  auto Contacts = detectContactsHost(World.Store, Candidates, Params);
  EXPECT_LE(Contacts.size(), Candidates.size());
  bool Found = false;
  for (const CollisionPair &Pair : Contacts)
    if (Pair.FirstId == 0 && Pair.SecondId == 1)
      Found = true;
  EXPECT_TRUE(Found);
}

namespace {

/// Runs narrowphase on two identical worlds, host vs offload style, and
/// expects identical final state.
void compareHostAndOffloadNarrowphase(DmaStyle Style) {
  CollisionParams Params;

  Machine MHost;
  EntityStore HostStore(MHost, 200, 17, 25.0f);
  auto Pairs = broadphaseHost(HostStore, Params);
  ASSERT_FALSE(Pairs.empty());
  uint32_t HostContacts = narrowphaseHost(HostStore, Pairs, Params);
  uint64_t HostChecksum = HostStore.checksum();

  Machine MAccel;
  EntityStore AccelStore(MAccel, 200, 17, 25.0f);
  auto AccelPairs = broadphaseHost(AccelStore, Params);
  ASSERT_EQ(AccelPairs.size(), Pairs.size());
  GlobalAddr PairsAddr = materializePairs(MAccel, AccelPairs);
  uint32_t AccelContacts = 0;
  offload::offloadSync(MAccel, [&](offload::OffloadContext &Ctx) {
    AccelContacts = narrowphaseOffload(
        Ctx, PairsAddr, static_cast<uint32_t>(AccelPairs.size()), Params,
        Style);
  });

  EXPECT_EQ(HostContacts, AccelContacts);
  EXPECT_EQ(HostChecksum, AccelStore.checksum());
}

} // namespace

TEST(Narrowphase, OffloadOverlappedMatchesHost) {
  compareHostAndOffloadNarrowphase(DmaStyle::OverlappedTags);
}

TEST(Narrowphase, OffloadSerialisedMatchesHost) {
  compareHostAndOffloadNarrowphase(DmaStyle::Serialised);
}

TEST(Narrowphase, OffloadDmaListMatchesHost) {
  compareHostAndOffloadNarrowphase(DmaStyle::DmaList);
}

TEST(Narrowphase, DmaListBeatsOverlappedTags) {
  // One getl command per pair: a single startup latency where the
  // overlapped idiom pipelines two.
  CollisionParams Params;
  uint64_t Times[2];
  for (int Case = 0; Case != 2; ++Case) {
    Machine M;
    EntityStore Store(M, 200, 17, 25.0f);
    auto Pairs = broadphaseHost(Store, Params);
    GlobalAddr PairsAddr = materializePairs(M, Pairs);
    offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
      uint64_t Start = Ctx.clock().now();
      narrowphaseOffload(Ctx, PairsAddr,
                         static_cast<uint32_t>(Pairs.size()), Params,
                         Case == 0 ? DmaStyle::DmaList
                                   : DmaStyle::OverlappedTags);
      Times[Case] = Ctx.clock().now() - Start;
    });
  }
  EXPECT_LT(Times[0], Times[1]);
}

TEST(Narrowphase, OverlappedTagsAreFasterThanSerialised) {
  CollisionParams Params;
  uint64_t Times[2];
  for (int Case = 0; Case != 2; ++Case) {
    Machine M;
    EntityStore Store(M, 200, 17, 25.0f);
    auto Pairs = broadphaseHost(Store, Params);
    GlobalAddr PairsAddr = materializePairs(M, Pairs);
    offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
      uint64_t Start = Ctx.clock().now();
      narrowphaseOffload(Ctx, PairsAddr,
                         static_cast<uint32_t>(Pairs.size()), Params,
                         Case == 0 ? DmaStyle::OverlappedTags
                                   : DmaStyle::Serialised);
      Times[Case] = Ctx.clock().now() - Start;
    });
  }
  EXPECT_LT(Times[0], Times[1]);
}

TEST(Narrowphase, MissingWaitIsCaughtByChecker) {
  // Figure 1 with the dma_wait omitted: the functional result is still
  // produced (the simulator copies eagerly) but the race checker reports
  // the read-before-wait on e1/e2.
  Machine M;
  DiagSink Diags;
  dmacheck::DmaRaceChecker Checker(Diags);
  M.addObserver(&Checker);

  EntityStore Store(M, 64, 23, 10.0f);
  CollisionParams Params;
  auto Pairs = broadphaseHost(Store, Params);
  ASSERT_FALSE(Pairs.empty());
  GlobalAddr PairsAddr = materializePairs(M, Pairs);
  offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
    narrowphaseOffload(Ctx, PairsAddr,
                       static_cast<uint32_t>(Pairs.size()), Params,
                       DmaStyle::MissingWait);
  });
  EXPECT_GT(Checker.raceCount(dmacheck::RaceKind::CoreAccessDuringGet), 0u);
  EXPECT_TRUE(Diags.containsMessage("missing dma_wait"));
}

TEST(Narrowphase, CorrectStylesAreCheckerClean) {
  Machine M;
  DiagSink Diags;
  dmacheck::DmaRaceChecker Checker(Diags);
  M.addObserver(&Checker);

  EntityStore Store(M, 64, 23, 10.0f);
  CollisionParams Params;
  auto Pairs = broadphaseHost(Store, Params);
  GlobalAddr PairsAddr = materializePairs(M, Pairs);
  offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
    narrowphaseOffload(Ctx, PairsAddr,
                       static_cast<uint32_t>(Pairs.size()), Params,
                       DmaStyle::OverlappedTags);
  });
  EXPECT_EQ(Checker.raceCount(), 0u) << "Figure 1 idiom must be race-free";
}
