//===- sim/ZeroedStorage.h - Lazily zeroed host bytes -----------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The host bytes behind a simulated memory (MainMemory, LocalStore).
/// Simulated memory reads as zero until written, so the block comes from
/// calloc: a large block is a fresh anonymous mapping whose pages the OS
/// zeroes on first touch, and the simulator pays host memory and time
/// only for the simulated bytes a program actually uses, not for the
/// capacity it models.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_SIM_ZEROEDSTORAGE_H
#define OMM_SIM_ZEROEDSTORAGE_H

#include <cstdint>
#include <cstdlib>
#include <memory>

namespace omm::sim {

/// An owned, zero-initialised, fixed-size byte block. A failed host
/// allocation leaves data() null and size() zero; the owner reports it.
class ZeroedStorage {
public:
  explicit ZeroedStorage(uint64_t SizeBytes)
      : Bytes(static_cast<uint8_t *>(std::calloc(SizeBytes, 1))),
        Size(Bytes ? SizeBytes : 0) {}

  uint8_t *data() { return Bytes.get(); }
  const uint8_t *data() const { return Bytes.get(); }
  uint64_t size() const { return Size; }

private:
  struct Free {
    void operator()(uint8_t *P) const { std::free(P); }
  };

  std::unique_ptr<uint8_t[], Free> Bytes;
  uint64_t Size;
};

} // namespace omm::sim

#endif // OMM_SIM_ZEROEDSTORAGE_H
