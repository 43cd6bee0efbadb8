//===- game/Physics.h - Entity integration ---------------------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The updateEntities stage of Figure 2's frame: integrate velocities,
/// damp, and bounce off the world bounds. Pure per-entity function plus
/// host / offloaded drivers; the offloaded driver is the canonical
/// uniform-type double-buffered streaming pass of Section 4.1.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_GAME_PHYSICS_H
#define OMM_GAME_PHYSICS_H

#include "game/EntityStore.h"
#include "offload/OffloadContext.h"

namespace omm::game {

/// Tuning for the integrator.
struct PhysicsParams {
  static constexpr float Damping = 0.995f;
  uint64_t CyclesPerIntegrate = 80;
};

/// Pure single-entity integration step.
void integrateEntity(GameEntity &E, float Dt, float WorldHalfExtent,
                     const PhysicsParams &Params);

/// Host pass over all entities.
void physicsPassHost(EntityStore &Entities, float Dt,
                     const PhysicsParams &Params);

/// Offloaded pass: double-buffered read-modify-write stream over the
/// entity array in chunks of \p ChunkElems.
void physicsPassOffload(offload::OffloadContext &Ctx, EntityStore &Entities,
                        float Dt, const PhysicsParams &Params,
                        uint32_t ChunkElems = 64);

} // namespace omm::game

#endif // OMM_GAME_PHYSICS_H
