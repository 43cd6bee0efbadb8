//===- game/Animation.h - Pose blending -----------------------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A skeletal-animation-shaped workload ("tasks ... for purposes ranging
/// from animation, AI, collision detection, physics, and rendering",
/// Section 4): each entity owns a fixed-size pose (8 joints x 4 floats)
/// in its own main-memory array, blended toward a procedurally derived
/// key pose every frame. Perfectly sequential and uniform — the ideal
/// client for the StreamBuffer cache and double-buffered transfers.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_GAME_ANIMATION_H
#define OMM_GAME_ANIMATION_H

#include "offload/OffloadContext.h"
#include "sim/Machine.h"

#include <cstdint>

namespace omm::game {

/// One entity's pose: 8 joints, 4 floats each (quaternion-ish), 128 B.
struct Pose {
  static constexpr unsigned NumJoints = 8;
  float Joints[NumJoints][4];

  uint64_t mixInto(uint64_t Hash) const;
};
static_assert(sizeof(Pose) == 128 && sizeof(Pose) % 16 == 0);

/// Tuning for pose blending.
struct AnimationParams {
  /// Fraction moved toward the key.
  static constexpr float BlendRate = 0.2f;
  uint64_t CyclesPerJoint = 24;    ///< Blend cost per joint.
};

/// The pose array for all entities, resident in main memory.
class AnimationSystem {
public:
  AnimationSystem(sim::Machine &M, uint32_t Count);
  ~AnimationSystem();

  AnimationSystem(const AnimationSystem &) = delete;
  AnimationSystem &operator=(const AnimationSystem &) = delete;

  uint32_t size() const { return Count; }
  sim::GlobalAddr base() const { return Base; }

  /// Pure key-pose generator for entity \p Id at frame \p Frame.
  static Pose keyPose(uint32_t Id, uint32_t Frame);

  /// Pure blend of \p Current toward \p Key.
  static void blendPose(Pose &Current, const Pose &Key, float Rate);

  /// Host pass over all poses.
  void blendPassHost(uint32_t Frame, const AnimationParams &Params);

  /// Host pass over poses [\p Begin, \p End) only — the graceful-
  /// degradation path blends a prefix and lets the tail hold its last
  /// pose for a frame (GameWorld's frame-budget shedding).
  void blendPassHost(uint32_t Frame, const AnimationParams &Params,
                     uint32_t Begin, uint32_t End);

  /// Offloaded pass: double-buffered stream over the pose array.
  void blendPassOffload(offload::OffloadContext &Ctx, uint32_t Frame,
                        const AnimationParams &Params,
                        uint32_t ChunkElems = 32);

  /// Bit-exact checksum over all poses (uncosted; verification only).
  uint64_t checksum() const;

private:
  sim::Machine &M;
  uint32_t Count;
  sim::GlobalAddr Base;
};

} // namespace omm::game

#endif // OMM_GAME_ANIMATION_H
