//===- examples/pathfinding.cpp - Offloaded A* with software caches -------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// Navigation queries are the archetypal irregular-read offload: A*
// wanders a terrain grid unpredictably, re-reading neighbourhoods as
// the frontier expands. This example runs the same deterministic search
// on the host and on an accelerator with each software cache, printing
// the profile the paper says drives the cache choice.
//
//   $ ./pathfinding [grid_size]
//
//===----------------------------------------------------------------------===//

#include "game/Navigation.h"
#include "offload/Offload.h"
#include "offload/SetAssociativeCache.h"
#include "offload/StreamBuffer.h"
#include "support/Diag.h"
#include "support/OStream.h"

#include <memory>

using namespace omm;
using namespace omm::game;
using namespace omm::sim;

int main(int Argc, char **Argv) {
  uint32_t Size = parseCountArg(Argc, Argv, 1, 48, "pathfinding [grid_size]");
  OStream &OS = outs();

  Machine M;
  NavGrid Grid(M, Size, Size, 0x9A7);
  uint32_t Start = Grid.cellOf(0, 0);
  uint32_t Goal = Grid.cellOf(Size - 1, Size - 1);
  NavParams Params;

  OS << "A* over a " << Size << "x" << Size
     << " terrain grid in outer memory\n\n";

  PathResult Host = findPathHost(Grid, Start, Goal, Params);
  OS << "host search: "
     << (Host.Found ? "path found" : "no path") << ", cost "
     << Host.TotalCost << ", " << Host.CellsExpanded
     << " cells expanded\n\n";

  OS.padded("accelerator terrain access", 30);
  OS.padded("cycles", 12);
  OS.padded("hit rate", 10);
  OS << "search identical\n";

  for (int Variant = 0; Variant != 3; ++Variant) {
    uint64_t Cycles = 0;
    double HitRate = 0.0;
    PathResult Accel;
    offload::offloadSync(M, [&](offload::OffloadContext &Ctx) {
      std::unique_ptr<offload::SoftwareCacheBase> Cache;
      if (Variant == 1)
        Cache = std::make_unique<offload::SetAssociativeCache>(
            Ctx, offload::SetAssociativeCache::Params{128, 16, 4, 16});
      else if (Variant == 2)
        Cache = std::make_unique<offload::StreamBuffer>(
            Ctx, offload::StreamBuffer::Params{2048, 6});
      Ctx.bindCache(Cache.get());
      uint64_t T0 = Ctx.clock().now();
      Accel = findPathOffload(Ctx, Grid, Start, Goal, Params);
      Cycles = Ctx.clock().now() - T0;
      if (Cache)
        HitRate = Cache->stats().hitRate();
      Ctx.bindCache(nullptr);
    });

    const char *Names[] = {"uncached DMA per read",
                           "set-associative cache", "stream buffer"};
    OS.padded(Names[Variant], 30);
    OS.paddedInt(static_cast<int64_t>(Cycles), 10);
    OS << "  ";
    OS.paddedFixed(HitRate, 8, 3);
    OS << "  " << (Accel == Host ? "yes" : "NO!") << '\n';
  }

  OS << "\nThe associative cache fits A*'s neighbourhood re-reads; the "
        "stream\nbuffer does not (the frontier is not sequential) — "
        "\"the programmer\nmust decide, based on profiling, which cache "
        "is most suitable\".\n";
  return 0;
}
