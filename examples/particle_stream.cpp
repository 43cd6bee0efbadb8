//===- examples/particle_stream.cpp - Double-buffered streaming -----------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// "Processing objects in groups of uniform type permits prefetching and
// double buffered transfers, for further performance increases"
// (Section 4.1). A particle system is the canonical uniform-type
// workload: this example integrates 50k particles on an accelerator
// three ways — per-particle outer access, bulk accessor batches, and
// the double-buffered stream — and shows the transfers disappearing
// behind compute.
//
//   $ ./particle_stream [num_particles]
//
//===----------------------------------------------------------------------===//

#include "offload/Accessors.h"
#include "offload/DoubleBuffer.h"
#include "offload/Offload.h"
#include "offload/ParallelFor.h"
#include "support/Diag.h"
#include "support/OStream.h"
#include "support/Random.h"

using namespace omm;
using namespace omm::offload;
using namespace omm::sim;

namespace {

struct Particle {
  float Position[3];
  float Age;
  float Velocity[3];
  float Energy;
};
static_assert(sizeof(Particle) == 32);

constexpr uint64_t ComputePerParticle = 60;

void stepParticle(Particle &P, float Dt) {
  for (int I = 0; I != 3; ++I)
    P.Position[I] += P.Velocity[I] * Dt;
  P.Velocity[1] -= 9.81f * Dt; // Gravity.
  P.Age += Dt;
  P.Energy *= 0.999f;
}

OuterPtr<Particle> spawn(Machine &M, uint32_t Count) {
  OuterPtr<Particle> Particles = allocOuterArray<Particle>(M, Count);
  SplitMix64 Rng(0x9A27);
  for (uint32_t I = 0; I != Count; ++I) {
    Particle P{};
    for (int J = 0; J != 3; ++J) {
      P.Position[J] = Rng.nextFloatInRange(-1, 1);
      P.Velocity[J] = Rng.nextFloatInRange(-5, 5);
    }
    P.Energy = 1.0f;
    M.mainMemory().writeValue((Particles + I).addr(), P);
  }
  return Particles;
}

uint64_t runVariant(int Variant, uint32_t Count, uint64_t *DmaStall) {
  Machine M;
  OuterPtr<Particle> Particles = spawn(M, Count);
  uint64_t Cycles = 0;
  if (Variant == 3) {
    // All six accelerators, each double-buffering its own slice.
    uint64_t Start = M.globalTime();
    parallelTransform<Particle>(
        M, Particles, Count, 256,
        [](OffloadContext &Ctx, uint32_t, Particle &P) {
          stepParticle(P, 0.016f);
          Ctx.compute(ComputePerParticle);
        });
    *DmaStall = M.totalCounters().DmaStallCycles;
    return M.globalTime() - Start;
  }
  offloadSync(M, [&](OffloadContext &Ctx) {
    uint64_t Start = Ctx.clock().now();
    switch (Variant) {
    case 0: // Per-particle outer round trips.
      for (uint32_t I = 0; I != Count; ++I) {
        Particle P = (Particles + I).read(Ctx);
        stepParticle(P, 0.016f);
        Ctx.compute(ComputePerParticle);
        (Particles + I).write(Ctx, P);
      }
      break;
    case 1: // Accessor batches (bulk in, bulk out, no overlap).
      for (uint32_t First = 0; First < Count; First += 256) {
        uint32_t Batch = std::min(256u, Count - First);
        // Each iteration's staging buffer dies with the scope, as a
        // block-local variable would in Offload C++.
        OffloadContext::LocalScope Scope(Ctx);
        ArrayAccessor<Particle> Local(Ctx, Particles + First, Batch);
        for (uint32_t I = 0; I != Batch; ++I) {
          Local.update(I, [](Particle &P) { stepParticle(P, 0.016f); });
          Ctx.compute(ComputePerParticle);
        }
        Local.commit();
      }
      break;
    case 2: // Double-buffered stream: transfers hide behind compute.
      transformDoubleBuffered<Particle>(
          Ctx, Particles, Count, 256, [&](ChunkView<Particle> &Chunk) {
            for (uint32_t I = 0, E = Chunk.size(); I != E; ++I) {
              Chunk.update(I,
                           [](Particle &P) { stepParticle(P, 0.016f); });
              Ctx.compute(ComputePerParticle);
            }
          });
      break;
    }
    Cycles = Ctx.clock().now() - Start;
    *DmaStall = Ctx.accel().Counters.DmaStallCycles;
  });
  return Cycles;
}

} // namespace

int main(int Argc, char **Argv) {
  uint32_t Count =
      parseCountArg(Argc, Argv, 1, 50000, "particle_stream [num_particles]");
  OStream &OS = outs();
  OS << "Particle integration on one accelerator, " << Count
     << " particles\n\n";
  OS.padded("variant", 30);
  OS.padded("cycles", 12);
  OS.padded("cycles/particle", 17);
  OS << "dma stall\n";

  const char *Names[] = {"per-particle outer access",
                         "bulk accessor batches",
                         "double-buffered stream",
                         "parallel streams (6 accels)"};
  for (int Variant = 0; Variant != 4; ++Variant) {
    uint64_t Stall = 0;
    uint64_t Cycles = runVariant(Variant, Count, &Stall);
    OS.padded(Names[Variant], 30);
    OS.paddedInt(static_cast<int64_t>(Cycles), 10);
    OS << "  ";
    OS.paddedFixed(static_cast<double>(Cycles) / Count, 15, 1);
    OS << "  ";
    OS.paddedInt(static_cast<int64_t>(Stall), 9);
    OS << '\n';
  }

  OS << "\nWith double buffering the DMA stall approaches zero: chunk "
        "i+1 is in\nflight while chunk i is computed, exactly the "
        "paper's prescription.\n";
  return 0;
}
