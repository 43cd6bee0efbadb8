//===- game/AI.h - Behaviour-tree strategy calculation ---------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The calculateStrategy task of the paper's Figure 2: per-entity AI
/// decision making ("during game AI, specific checks used in decision
/// making involve virtual invocations", Section 4.1). The decision logic
/// is a pure function over entity snapshots so the host path and every
/// offloaded path produce bit-identical results; drivers charge the
/// decision cost (evaluated nodes x cycles per node) to whichever core
/// ran it. This is the task the paper offloaded in two months for a
/// ~50% frame-time improvement — experiment E2.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_GAME_AI_H
#define OMM_GAME_AI_H

#include "game/Entity.h"

#include <cstdint>

namespace omm::game {

/// Tuning for the AI behaviour tree and its cost model.
struct AiParams {
  /// Start seeking targets inside this.
  static constexpr float SeekRadius = 40.0f;
  static constexpr float AttackRadius = 6.0f; ///< Close enough to attack.
  /// Flee below this health fraction.
  static constexpr float FleeHealthFraction = 0.25f;
  /// Seconds between full re-plans.
  static constexpr float ReplanInterval = 0.5f;
  uint64_t CyclesPerNode = 60; ///< Cost of one behaviour-tree node.
};

/// Result of one strategy evaluation.
struct AiDecision {
  uint32_t NodesEvaluated = 0; ///< Behaviour-tree nodes visited.
};

/// The immutable per-frame view of a potential target. Game frames
/// snapshot transform data before fanning tasks out; AI reads snapshots
/// so the offloaded strategy pass shares nothing writable with the
/// host's concurrent collision detection.
struct TargetInfo {
  Vec3 Position;
  uint32_t Id = NoTarget;
};
static_assert(sizeof(TargetInfo) == 16);

/// Evaluates the behaviour tree for \p Self against a snapshot of its
/// current target, updating Self's state, velocity, cooldown and target.
/// Pure: no memory-space access, no global state; deterministic floats.
AiDecision calculateStrategy(GameEntity &Self, const TargetInfo &Target,
                             float Dt, const AiParams &Params);

/// Deterministic target assignment: entity \p Id tracks this entity.
/// (The full game would query spatial structures; the fixed pseudo-random
/// pairing keeps every execution path identical while still producing
/// random-access reads of other entities — the access pattern that makes
/// AI hard to offload.)
constexpr uint32_t defaultTargetFor(uint32_t Id, uint32_t Count) {
  return Count <= 1 ? 0 : (Id * 2654435761u + 17u) % Count;
}

} // namespace omm::game

#endif // OMM_GAME_AI_H
