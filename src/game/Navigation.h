//===- game/Navigation.h - Grid pathfinding --------------------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A navigation subsystem: A* over a weighted terrain grid that lives in
/// main memory. Pathfinding is one of the game tasks the paper's
/// Section 4 inventory implies (AI decision making consumes navigation
/// queries), and it is the archetypal *irregular-read* offload: the
/// search wanders the grid data unpredictably, so the terrain reads are
/// exactly what the software caches exist for, while the search's own
/// working set (g-scores, parents, open list) is small enough to live
/// in the 256 KB local store.
///
/// Both drivers run the same deterministic A* (strict tie-breaking), so
/// host and offloaded searches expand identical node sequences and find
/// identical paths — only the time differs.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_GAME_NAVIGATION_H
#define OMM_GAME_NAVIGATION_H

#include "offload/OffloadContext.h"
#include "sim/Machine.h"

#include <cstdint>
#include <vector>

namespace omm::game {

/// Terrain movement costs, resident in main memory, row-major uint16.
/// Wall cells are impassable.
class NavGrid {
public:
  static constexpr uint16_t Wall = 0xFFFF;

  /// Generates a Width x Height grid with seeded terrain weights (1..9)
  /// and obstacle blobs. Start/goal corners are kept clear.
  NavGrid(sim::Machine &M, uint32_t Width, uint32_t Height, uint64_t Seed);
  ~NavGrid();

  NavGrid(const NavGrid &) = delete;
  NavGrid &operator=(const NavGrid &) = delete;

  uint32_t width() const { return Width; }
  uint32_t height() const { return Height; }
  uint32_t numCells() const { return Width * Height; }
  sim::GlobalAddr base() const { return Base; }

  /// Address of the cost record for \p Cell.
  sim::GlobalAddr cellAddr(uint32_t Cell) const {
    return Base + uint64_t(Cell) * sizeof(uint16_t);
  }

  /// Uncosted accessors for setup/verification.
  uint16_t peek(uint32_t Cell) const;
  void poke(uint32_t Cell, uint16_t Cost);

  uint32_t cellOf(uint32_t X, uint32_t Y) const { return Y * Width + X; }

  sim::Machine &machine() const { return M; }

private:
  sim::Machine &M;
  uint32_t Width;
  uint32_t Height;
  sim::GlobalAddr Base;
};

/// Cost model for the search itself.
struct NavParams {
  /// Heap pop + bookkeeping.
  static constexpr uint64_t CyclesPerExpand = 40;
  /// Per edge relaxation.
  static constexpr uint64_t CyclesPerNeighbour = 12;
};

/// Outcome of one A* query.
struct PathResult {
  bool Found = false;
  uint32_t PathLength = 0;   ///< Cells on the path including endpoints.
  uint32_t TotalCost = 0;    ///< Sum of entered cells' terrain costs.
  uint64_t CellsExpanded = 0;
  std::vector<uint32_t> Path; ///< Goal -> start order.

  /// Equality of the *search result* (used by host/offload parity
  /// tests).
  bool operator==(const PathResult &O) const {
    return Found == O.Found && PathLength == O.PathLength &&
           TotalCost == O.TotalCost && CellsExpanded == O.CellsExpanded &&
           Path == O.Path;
  }
};

/// A* on the host: terrain reads are ordinary (costed) host loads.
PathResult findPathHost(const NavGrid &Grid, uint32_t Start, uint32_t Goal,
                        const NavParams &Params);

/// A* on an accelerator: the search state lives in (modelled) local
/// store; terrain reads go through the context's bound cache if any,
/// else direct DMA. Bind a cache first — that is the experiment.
PathResult findPathOffload(offload::OffloadContext &Ctx, const NavGrid &Grid,
                           uint32_t Start, uint32_t Goal,
                           const NavParams &Params);

} // namespace omm::game

#endif // OMM_GAME_NAVIGATION_H
