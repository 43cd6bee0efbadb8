//===- examples/frame_schedule.cpp - A full frame as a task graph ---------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// "Computation is specified as parallel, distinct tasks with well
// defined synchronisation points executing in a pre-defined and fixed
// schedule each frame" (Section 4). This example expresses a full game
// frame as such a graph — AI, animation and particle tasks on
// accelerators beside host collision detection — runs it, and prints a
// Gantt chart plus the critical path that tells the team what to
// offload or restructure next.
//
//   $ ./frame_schedule [num_entities]
//
//===----------------------------------------------------------------------===//

#include "game/Animation.h"
#include "game/Collision.h"
#include "game/GameWorld.h"
#include "game/Physics.h"
#include "game/Render.h"
#include "offload/DoubleBuffer.h"
#include "offload/SetAssociativeCache.h"
#include "offload/TaskSchedule.h"
#include "support/Diag.h"
#include "support/OStream.h"

#include <algorithm>

using namespace omm;
using namespace omm::game;
using namespace omm::offload;
using namespace omm::sim;

int main(int Argc, char **Argv) {
  uint32_t NumEntities =
      parseCountArg(Argc, Argv, 1, 800, "frame_schedule [num_entities]");
  OStream &OS = outs();

  Machine M;
  EntityStore Entities(M, NumEntities, 0x5C4ED, 40.0f);
  AnimationSystem Anim(M, NumEntities);
  RenderQueue Queue(M, NumEntities);
  GlobalAddr Snapshot =
      M.allocGlobal(uint64_t(NumEntities) * sizeof(TargetInfo));

  AiParams Ai;
  CollisionParams Collision;
  PhysicsParams Physics;
  AnimationParams Animation;
  RenderParams Render;

  std::vector<CollisionPair> Contacts;
  uint32_t CommandCount = 0;

  TaskSchedule Schedule;
  auto SnapshotTask =
      Schedule.addHostTask("snapshotTargets", [&](Machine &Mach) {
        for (uint32_t I = 0; I != NumEntities; ++I) {
          TargetInfo Info;
          Info.Position = Entities.entity(I)
                              .field<Vec3>(offsetof(GameEntity, Position))
                              .hostRead(Mach);
          Info.Id = I;
          Mach.hostWrite(Snapshot + uint64_t(I) * sizeof(TargetInfo),
                         Info);
        }
      });

  auto AiTask = Schedule.addAccelTask("calculateStrategy", [&](
                                          OffloadContext &Ctx) {
    offload::SetAssociativeCache Cache(Ctx, {128, 32, 4, 16});
    Ctx.bindCache(&Cache);
    OuterPtr<TargetInfo> Targets(Snapshot);
    transformDoubleBuffered<GameEntity>(
        Ctx, Entities.base(), NumEntities, 32,
        [&](ChunkView<GameEntity> &Chunk) {
          for (uint32_t I = 0, E = Chunk.size(); I != E; ++I) {
            GameEntity Self = Chunk.get(I);
            TargetInfo Target =
                (Targets + defaultTargetFor(Self.Id, NumEntities))
                    .read(Ctx);
            AiDecision Decision =
                calculateStrategy(Self, Target, 0.033f, Ai);
            Ctx.compute(uint64_t(Decision.NodesEvaluated) *
                        Ai.CyclesPerNode);
            Chunk.set(I, Self);
          }
        });
    Ctx.bindCache(nullptr);
  });

  auto AnimTask = Schedule.addAccelTask(
      "blendPoses", [&](OffloadContext &Ctx) {
        Anim.blendPassOffload(Ctx, 1, Animation);
      });

  auto CollisionTask =
      Schedule.addHostTask("detectCollisions", [&](Machine &) {
        auto Candidates = broadphaseHost(Entities, Collision);
        Contacts = detectContactsHost(Entities, Candidates, Collision);
      });

  auto ResponseTask =
      Schedule.addHostTask("resolveContacts", [&](Machine &) {
        narrowphaseHost(Entities, Contacts, Collision);
      });

  auto PhysicsTask = Schedule.addAccelTask(
      "integrate", [&](OffloadContext &Ctx) {
        physicsPassOffload(Ctx, Entities, 0.033f, Physics);
      });

  auto RenderTask = Schedule.addAccelTask(
      "buildRenderCommands", [&](OffloadContext &Ctx) {
        CommandCount = Queue.buildOffload(Ctx, Entities, Render);
      });

  auto SubmitTask = Schedule.addHostTask("submitToGpu", [&](Machine &Mach) {
    Mach.hostCompute(uint64_t(CommandCount) * 40);
  });

  // The synchronisation points.
  Schedule.addDependency(SnapshotTask, AiTask);
  Schedule.addDependency(SnapshotTask, CollisionTask);
  Schedule.addDependency(AiTask, ResponseTask);
  Schedule.addDependency(CollisionTask, ResponseTask);
  Schedule.addDependency(ResponseTask, PhysicsTask);
  Schedule.addDependency(PhysicsTask, RenderTask);
  Schedule.addDependency(AnimTask, RenderTask);
  Schedule.addDependency(RenderTask, SubmitTask);

  TaskSchedule::RunReport Report = Schedule.run(M);

  OS << "One frame, " << NumEntities << " entities, makespan "
     << Report.MakespanCycles << " cycles\n\n";

  // Gantt chart: 60 columns across the makespan.
  constexpr int Columns = 60;
  for (TaskSchedule::TaskId Task = 0; Task != Schedule.numTasks();
       ++Task) {
    const auto &Timing = Report.Timings[Task];
    OS.padded(Schedule.taskName(Task), 22);
    OS << (Timing.Where == TaskSchedule::Target::Host
               ? "host  "
               : "SPE   ");
    int Start = static_cast<int>(Timing.StartCycle * Columns /
                                 std::max<uint64_t>(Report.MakespanCycles, 1));
    int End = static_cast<int>(Timing.FinishCycle * Columns /
                               std::max<uint64_t>(Report.MakespanCycles, 1));
    End = std::max(End, Start + 1);
    for (int Col = 0; Col != Columns; ++Col)
      OS << (Col >= Start && Col < End ? '#' : '.');
    OS << '\n';
  }

  OS << "\ncritical path: ";
  for (size_t I = 0; I != Report.CriticalPath.size(); ++I) {
    if (I != 0)
      OS << " -> ";
    OS << Schedule.taskName(Report.CriticalPath[I]);
  }
  OS << "\nhost busy " << Report.HostBusyCycles << " cycles, accel busy "
     << Report.AccelBusyCycles << " cycles over "
     << M.numAccelerators() << " cores\n";

  M.freeGlobal(Snapshot);
  return 0;
}
