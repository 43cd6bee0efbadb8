//===- sim/PerfCounters.h - Machine performance counters -------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hardware-style event counters maintained by the simulated machine.
/// The paper's engineering loop is profile-driven; every experiment reads
/// these counters to explain *why* one code structure beats another
/// (transfers issued, bytes moved, cycles stalled on the MFC).
///
//===----------------------------------------------------------------------===//

#ifndef OMM_SIM_PERFCOUNTERS_H
#define OMM_SIM_PERFCOUNTERS_H

#include <cstdint>

namespace omm {
class OStream;
} // namespace omm

namespace omm::sim {

/// Every counter once, as X(Field, "print label"), in print order. The
/// fields of PerfCounters and PerfCounterFields (which drives merge,
/// subtract, print and field-wise test comparisons) both expand this
/// list, so a new counter is one line here.
#define OMM_PERF_COUNTERS(X)                                                \
  X(DmaGetsIssued, "dma gets issued")                                       \
  X(DmaPutsIssued, "dma puts issued")                                       \
  /* Main memory -> local store. */                                         \
  X(DmaBytesRead, "dma bytes read")                                         \
  /* Local store -> main memory. */                                         \
  X(DmaBytesWritten, "dma bytes written")                                   \
  /* Core cycles blocked in waits. */                                       \
  X(DmaStallCycles, "dma stall cycles")                                     \
  /* Blocked on a full MFC queue. */                                        \
  X(DmaQueueFullStallCycles, "dma queue-full stall cycles")                 \
  X(LocalLoads, "local loads")                                              \
  X(LocalStores, "local stores")                                            \
  X(HostLoads, "host loads")                                                \
  X(HostStores, "host stores")                                              \
  /* Explicitly charged computation. */                                     \
  X(ComputeCycles, "compute cycles")                                        \
  /* Host cycles blocked in offload joins. */                               \
  X(JoinStallCycles, "join stall cycles")                                   \
  /* Transient DMA rejections retried. */                                   \
  X(DmaRetries, "dma retries")                                              \
  /* Core cycles in retry backoff. */                                       \
  X(DmaRetryStallCycles, "dma retry stall cycles")                          \
  /* Transfers with injected latency. */                                    \
  X(DmaDelayedTransfers, "dma delayed transfers")                           \
  /* Injected latency total. */                                             \
  X(DmaInjectedDelayCycles, "dma injected delay cycles")                    \
  /* Offload launches that failed. */                                       \
  X(LaunchFaults, "launch faults")                                          \
  /* Cores that died. */                                                    \
  X(AcceleratorsLost, "accelerators lost")                                  \
  /* Dead cores restarted by a supervisor (tenant server). */               \
  X(AcceleratorsRecycled, "accelerators recycled")                          \
  /* Chunks/slices re-run on another core. */                               \
  X(FailoverChunks, "failover chunks")                                      \
  /* Chunks/slices the host ran instead. */                                 \
  X(HostFallbackChunks, "host fallback chunks")                             \
  /* Mailbox descriptors pushed to this core's resident worker. */          \
  X(DescriptorsDispatched, "descriptors dispatched")                        \
  /* Host cycles ringing worker doorbells. */                               \
  X(DoorbellCycles, "doorbell cycles")                                      \
  /* Worker cycles polling empty mailboxes. */                              \
  X(IdlePollCycles, "idle-poll cycles")                                     \
  /* Wedged kernels flagged by the watchdog. */                             \
  X(HangsDetected, "hangs detected")                                        \
  /* Deadline-missing slow kernels. */                                      \
  X(StragglersDetected, "stragglers detected")                              \
  /* Cooperative cancel requests raised. */                                 \
  X(CancelsIssued, "cancels issued")                                        \
  /* Backup copies raced. */                                                \
  X(SpeculativeRedispatches, "speculative redispatches")                    \
  /* Frames over their cycle budget. */                                     \
  X(DeadlineMissedFrames, "deadline-missed frames")                         \
  /* Steal probes by this core's worker. */                                 \
  X(StealsAttempted, "steals attempted")                                    \
  /* Probes that claimed a victim's tail. */                                \
  X(StealsSucceeded, "steals succeeded")                                    \
  /* Descriptors gathered by steals. */                                     \
  X(DescriptorsStolen, "descriptors stolen")                                \
  /* Thief cycles in probes + handshakes + list-form descriptor gathers. */ \
  X(StealCycles, "steal cycles")                                            \
  /* Continuation parcels this core's worker pushed to peers. */            \
  X(ParcelsSpawned, "parcels spawned")                                      \
  /* Spawner cycles in peer doorbells + descriptor copies. */               \
  X(PeerDoorbellCycles, "peer doorbell cycles")

/// Event counters for one accelerator's memory traffic plus host traffic.
struct PerfCounters {
#define OMM_PERF_COUNTER_DECL(Field, Label) uint64_t Field = 0;
  OMM_PERF_COUNTERS(OMM_PERF_COUNTER_DECL)
#undef OMM_PERF_COUNTER_DECL

  /// \returns total DMA transfers issued.
  uint64_t dmaTransfers() const { return DmaGetsIssued + DmaPutsIssued; }

  /// \returns total bytes moved by DMA in either direction.
  uint64_t dmaBytes() const { return DmaBytesRead + DmaBytesWritten; }

  /// Accumulates \p Other into this set of counters.
  void merge(const PerfCounters &Other);

  /// Subtracts \p Other from this set of counters. With a snapshot taken
  /// before a region of work, `after.subtract(before)` attributes the
  /// region's events — the tenant server uses this for per-tenant
  /// accounting. Counters are monotonic, so the subtraction never wraps
  /// when \p Other really is an earlier snapshot of the same counters.
  void subtract(const PerfCounters &Other);

  /// Field-wise equality: the multi-tenant determinism contract compares
  /// whole counter sets, not just checksums.
  bool operator==(const PerfCounters &Other) const = default;

  /// Prints the counters as a small table.
  void print(OStream &OS) const;
};

/// One counter of the field table: its member and its print label.
struct PerfCounterField {
  uint64_t PerfCounters::*Member;
  const char *Label;
};

/// Every PerfCounters field, in declaration and print order.
inline constexpr PerfCounterField PerfCounterFields[] = {
#define OMM_PERF_COUNTER_ENTRY(Field, Label) {&PerfCounters::Field, Label},
    OMM_PERF_COUNTERS(OMM_PERF_COUNTER_ENTRY)
#undef OMM_PERF_COUNTER_ENTRY
};

inline void PerfCounters::merge(const PerfCounters &Other) {
  for (const PerfCounterField &F : PerfCounterFields)
    this->*F.Member += Other.*F.Member;
}

inline void PerfCounters::subtract(const PerfCounters &Other) {
  for (const PerfCounterField &F : PerfCounterFields)
    this->*F.Member -= Other.*F.Member;
}

} // namespace omm::sim

#endif // OMM_SIM_PERFCOUNTERS_H
