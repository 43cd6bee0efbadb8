//===- tests/sim_dma_property_test.cpp - Randomised DMA properties ---------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// Property tests over randomly generated DMA programs:
//   - functional results are independent of the timing parameters
//     (latency/bandwidth change *time*, never *data*);
//   - completion times are monotone in latency and anti-monotone in
//     bandwidth;
//   - waits establish happens-before: after waitTag(t), every transfer
//     on t has CompleteCycle <= now.
//
//===----------------------------------------------------------------------===//

#include "sim/Machine.h"
#include "support/Random.h"

#include <gtest/gtest.h>

#include <vector>

using namespace omm;
using namespace omm::sim;

namespace {

/// One step of a random (race-free, by construction) DMA program: each
/// op uses a private 256-byte local slot and a private global slot per
/// tag, so transfers never overlap each other.
struct ProgramStep {
  enum Kind { Get, Put, WaitTag, Compute } Op;
  unsigned Tag;     // 0..7
  uint32_t Size;    // Legal DMA size.
  uint64_t Cycles;  // For Compute.
};

std::vector<ProgramStep> makeProgram(uint64_t Seed, unsigned Steps) {
  SplitMix64 Rng(Seed);
  std::vector<ProgramStep> Program;
  for (unsigned I = 0; I != Steps; ++I) {
    ProgramStep Step{};
    switch (Rng.nextBelow(4)) {
    case 0:
      Step.Op = ProgramStep::Get;
      break;
    case 1:
      Step.Op = ProgramStep::Put;
      break;
    case 2:
      Step.Op = ProgramStep::WaitTag;
      break;
    case 3:
      Step.Op = ProgramStep::Compute;
      break;
    }
    Step.Tag = static_cast<unsigned>(Rng.nextBelow(8));
    static const uint32_t Sizes[] = {16, 64, 128, 256};
    Step.Size = Sizes[Rng.nextBelow(4)];
    Step.Cycles = Rng.nextBelow(500);
    Program.push_back(Step);
  }
  return Program;
}

/// Runs the program; returns the accelerator's final clock. The global
/// memory contents after a full drain are written into *StateOut.
uint64_t runProgram(const MachineConfig &Config,
                    const std::vector<ProgramStep> &Program,
                    std::vector<uint8_t> *StateOut) {
  Machine M(Config);
  Accelerator &A = M.accel(0);
  // Per-tag disjoint buffers; gets and puts on one tag use separate
  // global slots so get/put pairs cannot conflict.
  GlobalAddr GetSrc = M.allocGlobal(8 * 256);
  GlobalAddr PutDst = M.allocGlobal(8 * 256);
  LocalAddr GetLocal = A.Store.alloc(8 * 256);
  LocalAddr PutLocal = A.Store.alloc(8 * 256);
  for (uint32_t I = 0; I != 8 * 256 / 8; ++I) {
    M.mainMemory().writeValue<uint64_t>(GetSrc + I * 8, I * 0x1234567ull);
    A.Store.writeValue<uint64_t>(PutLocal + I * 8, I * 0x89ABCDEull);
  }

  for (const ProgramStep &Step : Program) {
    switch (Step.Op) {
    case ProgramStep::Get:
      // A fresh get on a tag may overlap an earlier un-waited get on
      // the same slot; wait the tag first to stay race-free.
      A.Dma.waitTag(Step.Tag);
      A.Dma.get(GetLocal + Step.Tag * 256, GetSrc + Step.Tag * 256,
                Step.Size, Step.Tag);
      break;
    case ProgramStep::Put:
      A.Dma.waitTag(Step.Tag);
      A.Dma.put(PutDst + Step.Tag * 256, PutLocal + Step.Tag * 256,
                Step.Size, Step.Tag);
      break;
    case ProgramStep::WaitTag:
      A.Dma.waitTag(Step.Tag);
      break;
    case ProgramStep::Compute:
      A.Clock.advance(Step.Cycles);
      break;
    }
  }
  A.Dma.waitAll();

  if (StateOut) {
    StateOut->resize(8 * 256);
    M.mainMemory().read(StateOut->data(), PutDst, 8 * 256);
  }
  return A.Clock.now();
}

} // namespace

TEST(DmaProperties, FunctionalResultIndependentOfTiming) {
  for (uint64_t Seed = 1; Seed != 20; ++Seed) {
    auto Program = makeProgram(Seed, 60);
    MachineConfig Fast = MachineConfig::cellLike();
    MachineConfig Slow = MachineConfig::cellLike();
    Slow.DmaLatencyCycles = 3000;
    Slow.DmaBytesPerCycle = 1;
    std::vector<uint8_t> FastState, SlowState;
    runProgram(Fast, Program, &FastState);
    runProgram(Slow, Program, &SlowState);
    ASSERT_EQ(FastState, SlowState) << "seed " << Seed;
  }
}

TEST(DmaProperties, TimeIsMonotoneInLatency) {
  for (uint64_t Seed = 1; Seed != 20; ++Seed) {
    auto Program = makeProgram(Seed, 60);
    uint64_t Prev = 0;
    for (uint64_t Latency : {0ull, 50ull, 200ull, 1000ull}) {
      MachineConfig Config = MachineConfig::cellLike();
      Config.DmaLatencyCycles = Latency;
      uint64_t Time = runProgram(Config, Program, nullptr);
      ASSERT_GE(Time, Prev) << "seed " << Seed << " latency " << Latency;
      Prev = Time;
    }
  }
}

TEST(DmaProperties, TimeIsAntiMonotoneInBandwidth) {
  for (uint64_t Seed = 1; Seed != 20; ++Seed) {
    auto Program = makeProgram(Seed, 60);
    uint64_t Prev = UINT64_MAX;
    for (uint64_t Bandwidth : {1ull, 4ull, 16ull, 64ull}) {
      MachineConfig Config = MachineConfig::cellLike();
      Config.DmaBytesPerCycle = Bandwidth;
      uint64_t Time = runProgram(Config, Program, nullptr);
      ASSERT_LE(Time, Prev) << "seed " << Seed << " bw " << Bandwidth;
      Prev = Time;
    }
  }
}

TEST(DmaProperties, WaitEstablishesHappensBefore) {
  SplitMix64 Rng(0x4A11);
  Machine M;
  Accelerator &A = M.accel(0);
  GlobalAddr G = M.allocGlobal(8 * 256);
  LocalAddr L = A.Store.alloc(8 * 256);
  for (int Round = 0; Round != 200; ++Round) {
    unsigned Tag = static_cast<unsigned>(Rng.nextBelow(8));
    A.Dma.waitTag(Tag);
    A.Dma.get(L + Tag * 256, G + Tag * 256, 128, Tag);
    uint64_t Target = A.Dma.lastCompletionForTag(Tag);
    A.Dma.waitTag(Tag);
    ASSERT_GE(A.Clock.now(), Target);
    ASSERT_EQ(A.Dma.lastCompletionForTag(Tag), 0u);
  }
}

TEST(DmaProperties, QueueDepthNeverExceeded) {
  // At most DmaQueueDepth transfers are ever in flight at the issuing
  // core's current time. Bursts longer than the queue between random
  // waits, on a narrow link that serialises the data phases, outrun it.
  constexpr unsigned Depth = MachineConfig::DmaQueueDepth;
  constexpr uint32_t Size = 128;
  MachineConfig Config = MachineConfig::cellLike();
  Config.DmaBytesPerCycle = 1;
  Machine M(Config);
  Accelerator &A = M.accel(0);
  GlobalAddr G = M.allocGlobal(64 * Size);
  LocalAddr L = A.Store.alloc(64 * Size);
  SplitMix64 Rng(0xDEE9);
  // Data phases serialise in issue order, so a transfer's completion is
  // its tag's latest completion right after it is issued.
  std::vector<uint64_t> Completions;
  uint64_t BurstLeft = Depth + 1 + Rng.nextBelow(Depth);
  for (unsigned I = 0; I != 64; ++I) {
    unsigned Tag = I % 8;
    A.Dma.get(L + I * Size, G + I * Size, Size, Tag);
    Completions.push_back(A.Dma.lastCompletionForTag(Tag));
    unsigned InFlight = 0;
    for (uint64_t Done : Completions)
      InFlight += Done > A.Clock.now() ? 1 : 0;
    ASSERT_LE(InFlight, Depth) << "transfer " << I;
    if (--BurstLeft == 0) {
      A.Dma.waitTag(static_cast<unsigned>(Rng.nextBelow(8)));
      BurstLeft = Depth + 1 + Rng.nextBelow(Depth);
    }
  }
  A.Dma.waitAll();
  EXPECT_GT(A.Counters.DmaQueueFullStallCycles, 0u);
}
