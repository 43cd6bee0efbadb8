//===- sim/LocalStore.h - Accelerator scratch-pad memory -------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One accelerator's private, explicitly managed scratch-pad memory
/// (256 KB on the Cell SPE). Allocation is a stack: "data declared inside
/// the offload block should be allocated in scratch-pad memory"
/// (Section 3), and block-scoped data dies with the block, so the offload
/// runtime takes a mark on entry and resets to it on exit. Capacity is a
/// hard limit — exceeding it is the local-store pressure the paper's
/// restructuring advice (uniform-type batching) exists to manage.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_SIM_LOCALSTORE_H
#define OMM_SIM_LOCALSTORE_H

#include "sim/Address.h"
#include "sim/ZeroedStorage.h"

#include <cstdint>
#include <cstring>
#include <type_traits>

namespace omm::sim {

/// A single accelerator's scratch-pad with stack allocation.
class LocalStore {
public:
  explicit LocalStore(uint32_t SizeBytes);

  uint32_t size() const { return static_cast<uint32_t>(Storage.size()); }

  /// \returns bytes still available for allocation.
  uint32_t bytesFree() const { return size() - Top; }

  /// Allocates \p Size bytes aligned to max(\p Align, 16) from the stack.
  /// Aborts on exhaustion: on real hardware blowing the local store is an
  /// unrecoverable fault, and we want tests to see it loudly.
  LocalAddr alloc(uint32_t Size, uint32_t Align = 16);

  /// A position in the allocation stack.
  using Mark = uint32_t;

  /// \returns the current stack position.
  Mark mark() const { return Top; }

  /// Pops every allocation made since \p M was taken.
  void reset(Mark M);

  /// Raw bounds-checked access (functional layer; timing is charged by
  /// the owning Machine/OffloadContext).
  void read(void *Dst, LocalAddr Src, uint32_t Size) const;
  void write(LocalAddr Dst, const void *Src, uint32_t Size);

  template <typename T> T readValue(LocalAddr Addr) const {
    static_assert(std::is_trivially_copyable_v<T>,
                  "simulated memory holds trivially copyable data only");
    T Value;
    read(&Value, Addr, sizeof(T));
    return Value;
  }

  template <typename T> void writeValue(LocalAddr Addr, const T &Value) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "simulated memory holds trivially copyable data only");
    write(Addr, &Value, sizeof(T));
  }

  /// Direct pointer into backing storage for the DMA engine's copies.
  uint8_t *rawPtr(LocalAddr Addr, uint32_t Size);
  const uint8_t *rawPtr(LocalAddr Addr, uint32_t Size) const;

  /// \returns true if [Addr, Addr+Size) lies within the store.
  bool contains(LocalAddr Addr, uint32_t Size) const {
    return !Addr.isNull() &&
           static_cast<uint64_t>(Addr.Value) + Size <= Storage.size();
  }

  /// High-water mark of stack usage, for capacity-pressure reporting.
  uint32_t peakUsage() const { return Peak; }

private:
  ZeroedStorage Storage;
  uint32_t Top = 16; // Offset zero reserved as the null local address.
  uint32_t Peak = 16;
};

} // namespace omm::sim

#endif // OMM_SIM_LOCALSTORE_H
