//===- game/Render.h - Render command generation ---------------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The renderFrame task's data side: walking the entities and emitting a
/// render command per visible entity into a command buffer in main
/// memory. This is the canonical streaming-*output* workload — sequential
/// reads, sequential writes of freshly produced records — i.e. the
/// WriteCombiner cache's home ground and a second integration client for
/// the double-buffered entity stream. Host and offloaded builders emit
/// bit-identical command buffers.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_GAME_RENDER_H
#define OMM_GAME_RENDER_H

#include "game/EntityStore.h"
#include "offload/OffloadContext.h"

#include <cstdint>

namespace omm::game {

/// One draw command, 32 bytes.
struct RenderCommand {
  uint32_t EntityId;
  uint32_t MaterialId; ///< Derived from the entity kind.
  float Depth;         ///< View-space depth for sorting.
  float Scale;
  float Position[3];
  uint32_t SortKey;

  uint64_t mixInto(uint64_t Hash) const;
};
static_assert(sizeof(RenderCommand) == 32 &&
              sizeof(RenderCommand) % 16 == 0);

/// Cost model for command generation.
struct RenderParams {
  /// Cull test + command encoding.
  static constexpr uint64_t CyclesPerCommand = 60;
  float ViewDir[3] = {0.577f, 0.577f, 0.577f}; ///< For depth keys.
  float CullRadius = 1000.0f; ///< Entities beyond this emit nothing.
};

/// Pure: derives the command for one entity; \returns false if culled.
bool encodeRenderCommand(const GameEntity &Entity,
                         const RenderParams &Params, RenderCommand &Out);

/// A fixed-capacity command buffer in main memory.
class RenderQueue {
public:
  RenderQueue(sim::Machine &M, uint32_t Capacity);
  ~RenderQueue();

  RenderQueue(const RenderQueue &) = delete;
  RenderQueue &operator=(const RenderQueue &) = delete;

  uint32_t capacity() const { return Capacity; }
  sim::GlobalAddr base() const { return Base; }

  /// Builds commands for every non-culled entity on the host;
  /// \returns the number of commands emitted.
  uint32_t buildHost(const EntityStore &Entities,
                     const RenderParams &Params);

  /// Builds the same commands on an accelerator: entities stream in
  /// double-buffered, commands stream out through a write-combining
  /// cache. \returns the number of commands emitted.
  uint32_t buildOffload(offload::OffloadContext &Ctx,
                        const EntityStore &Entities,
                        const RenderParams &Params,
                        uint32_t ChunkElems = 64);

  /// Bit-exact checksum over the first \p Count commands (uncosted).
  uint64_t checksum(uint32_t Count) const;

private:
  sim::Machine &M;
  uint32_t Capacity;
  sim::GlobalAddr Base;
};

} // namespace omm::game

#endif // OMM_GAME_RENDER_H
