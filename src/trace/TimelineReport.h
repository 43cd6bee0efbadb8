//===- trace/TimelineReport.h - Textual timeline summary -------*- C++ -*-===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A terminal-friendly rendering of a recorded machine timeline: a
/// per-core utilisation table (busy / stalled / idle, bytes moved,
/// local-store pressure), an ASCII occupancy chart, and the block list.
/// The profile-reading counterpart of ChromeTrace.h for when a browser
/// is out of reach.
///
//===----------------------------------------------------------------------===//

#ifndef OMM_TRACE_TIMELINEREPORT_H
#define OMM_TRACE_TIMELINEREPORT_H

#include "trace/TraceRecorder.h"

namespace omm {
class OStream;
} // namespace omm

namespace omm::trace {

/// Prints the per-core summary, occupancy chart and block list to \p OS.
void printTimelineReport(OStream &OS, const TraceRecorder &Recorder);

} // namespace omm::trace

#endif // OMM_TRACE_TIMELINEREPORT_H
