//===- trace/ChromeTrace.cpp - Chrome trace-event JSON export -------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//

#include "trace/ChromeTrace.h"

#include "trace/Json.h"
#include "support/OStream.h"

#include <cstdio>
#include <string>

using namespace omm;
using namespace omm::sim;
using namespace omm::trace;

namespace {

/// Track layout: one process, the host on thread 0, accelerator i on
/// thread i+1.
constexpr int MachinePid = 1;
constexpr int HostTid = 0;

int accelTid(unsigned AccelId) { return static_cast<int>(AccelId) + 1; }

/// Streams the event array, inserting commas between events.
class EventSink {
public:
  explicit EventSink(OStream &OS) : OS(OS) {}

  /// Emits one event object given its pre-rendered fields (the part
  /// between the braces).
  void event(const std::string &Fields) {
    OS << (First ? "\n  {" : ",\n  {") << Fields << '}';
    First = false;
  }

private:
  OStream &OS;
  bool First = true;
};

std::string commonFields(const char *Name, const char *Cat, char Phase,
                         int Tid, uint64_t Ts) {
  std::string S;
  S += "\"name\":";
  S += jsonQuote(Name);
  S += ",\"cat\":";
  S += jsonQuote(Cat);
  S += ",\"ph\":\"";
  S += Phase;
  S += "\",\"pid\":" + std::to_string(MachinePid);
  S += ",\"tid\":" + std::to_string(Tid);
  S += ",\"ts\":" + std::to_string(Ts);
  return S;
}

void emitMetadata(EventSink &Sink, const TraceRecorder &Rec) {
  auto NameThread = [&](int Tid, const std::string &Name, int SortIndex) {
    std::string S = commonFields("thread_name", "__metadata", 'M', Tid, 0);
    S += ",\"args\":{\"name\":" + jsonQuote(Name) + "}";
    Sink.event(S);
    std::string Sort =
        commonFields("thread_sort_index", "__metadata", 'M', Tid, 0);
    Sort += ",\"args\":{\"sort_index\":" + std::to_string(SortIndex) + "}";
    Sink.event(Sort);
  };
  std::string Proc = commonFields("process_name", "__metadata", 'M', 0, 0);
  Proc += ",\"args\":{\"name\":\"offload-mm simulated machine\"}";
  Sink.event(Proc);
  NameThread(HostTid, "host", 0);
  for (unsigned I = 0, E = Rec.machine().numAccelerators(); I != E; ++I)
    NameThread(accelTid(I), "accel " + std::to_string(I),
               static_cast<int>(I) + 1);
}

void emitBlocks(EventSink &Sink, const TraceRecorder &Rec) {
  for (const OffloadSpan &B : Rec.blocks()) {
    std::string Name = "offload #" + std::to_string(B.BlockId);
    std::string S = commonFields(Name.c_str(), "offload", 'X',
                                 accelTid(B.AccelId), B.BeginCycle);
    S += ",\"dur\":" + std::to_string(B.cycles());
    S += ",\"args\":{\"block\":" + std::to_string(B.BlockId);
    S += ",\"bytes_in\":" + std::to_string(B.BytesIn);
    S += ",\"bytes_out\":" + std::to_string(B.BytesOut);
    S += ",\"transfers\":" + std::to_string(B.Transfers);
    S += ",\"local_accesses\":" + std::to_string(B.LocalAccesses);
    S += ",\"local_store_peak\":" + std::to_string(B.LocalStorePeak) + "}";
    Sink.event(S);

    // The launch on the host track, with a flow arrow into the span.
    std::string Launch = "launch #" + std::to_string(B.BlockId);
    std::string I = commonFields(Launch.c_str(), "offload", 'i', HostTid,
                                 B.BeginCycle);
    I += ",\"s\":\"t\",\"args\":{\"accel\":" + std::to_string(B.AccelId) +
         "}";
    Sink.event(I);
    std::string Start = commonFields("launch", "offload_flow", 's', HostTid,
                                     B.BeginCycle);
    Start += ",\"id\":" + std::to_string(B.BlockId);
    Sink.event(Start);
    std::string Finish = commonFields("launch", "offload_flow", 'f',
                                      accelTid(B.AccelId), B.BeginCycle);
    Finish += ",\"bp\":\"e\",\"id\":" + std::to_string(B.BlockId);
    Sink.event(Finish);
  }
}

void emitWaits(EventSink &Sink, const TraceRecorder &Rec) {
  for (const WaitSpan &W : Rec.waits()) {
    if (W.stallCycles() == 0)
      continue; // Zero-stall waits would only be visual noise.
    std::string S = commonFields("dma_wait", "stall", 'X',
                                 accelTid(W.AccelId), W.BeginCycle);
    S += ",\"dur\":" + std::to_string(W.stallCycles());
    char Mask[16];
    std::snprintf(Mask, sizeof(Mask), "0x%08x", W.TagMask);
    S += ",\"args\":{\"tag_mask\":\"" + std::string(Mask) + "\"";
    S += ",\"block\":" + std::to_string(W.BlockId) + "}";
    Sink.event(S);
  }
}

void emitTransfers(EventSink &Sink, const TraceRecorder &Rec) {
  for (const DmaTransfer &T : Rec.transfers()) {
    std::string Name = std::string("dma ") +
                       (T.Dir == DmaDir::Get ? "get" : "put") + " tag " +
                       std::to_string(T.Tag);
    // Async begin/end pair tied by the transfer id; both ends live on
    // the issuing accelerator's track.
    std::string B = commonFields(Name.c_str(), "dma", 'b',
                                 accelTid(T.AccelId), T.IssueCycle);
    B += ",\"id\":" + std::to_string(T.Id);
    B += ",\"args\":{\"tag\":" + std::to_string(T.Tag);
    B += ",\"size\":" + std::to_string(T.Size);
    B += ",\"local\":" + std::to_string(T.Local.Value);
    B += ",\"global\":" + std::to_string(T.Global.Value);
    B += std::string(",\"fenced\":") + (T.Fenced ? "true" : "false");
    B += std::string(",\"barriered\":") + (T.Barriered ? "true" : "false") +
         "}";
    Sink.event(B);
    std::string E = commonFields(Name.c_str(), "dma", 'e',
                                 accelTid(T.AccelId), T.CompleteCycle);
    E += ",\"id\":" + std::to_string(T.Id);
    Sink.event(E);
  }
}

void emitDescriptors(EventSink &Sink, const TraceRecorder &Rec) {
  // Nested inside the resident worker's "offload #N" span on the same
  // track. The name deliberately does not share the block spans' prefix
  // so tools counting blocks don't double-count descriptors.
  for (const DescriptorSpan &D : Rec.descriptors()) {
    std::string Name = "desc #" + std::to_string(D.Seq);
    std::string S = commonFields(Name.c_str(), "descriptor", 'X',
                                 accelTid(D.AccelId), D.BeginCycle);
    S += ",\"dur\":" + std::to_string(D.cycles());
    S += ",\"args\":{\"block\":" + std::to_string(D.BlockId);
    S += ",\"seq\":" + std::to_string(D.Seq);
    S += ",\"begin\":" + std::to_string(D.Begin);
    S += ",\"end\":" + std::to_string(D.End) + "}";
    Sink.event(S);
  }
}

void emitMailbox(EventSink &Sink, const TraceRecorder &Rec) {
  for (const DispatchEvent &E : Rec.mailboxEvents()) {
    // Host-side transactions (doorbell, bulk doorbell, drain) land on
    // the host track; worker-side ones (fetch, idle poll, steal probe
    // and transfer, parcel spawn and delivery) on the core's track —
    // the parcel kinds carry the acting worker in AccelId, so a spawn
    // appears on the spawner's track and the delivery on the
    // recipient's.
    bool HostSide = E.Kind == DispatchEventKind::DoorbellWrite ||
                    E.Kind == DispatchEventKind::BulkDoorbell ||
                    E.Kind == DispatchEventKind::MailboxDrained;
    int Tid = HostSide ? HostTid : accelTid(E.AccelId);
    std::string S = commonFields(dispatchEventKindName(E.Kind), "mailbox",
                                 'i', Tid, E.Cycle);
    S += ",\"s\":\"t\",\"args\":{\"accel\":" + std::to_string(E.AccelId);
    S += ",\"block\":" + std::to_string(E.BlockId);
    S += ",\"seq\":" + std::to_string(E.Seq);
    S += ",\"detail\":" + std::to_string(E.Detail) + "}";
    Sink.event(S);
  }
}

void emitFaults(EventSink &Sink, const TraceRecorder &Rec) {
  for (const FaultEvent &F : Rec.faults()) {
    // Instant events on the afflicted core's track; host-side recovery
    // actions (host fallback, auto-pick failure) land on the host track.
    int Tid = F.AccelId == ~0u ? HostTid : accelTid(F.AccelId);
    std::string S =
        commonFields(faultKindName(F.Kind), "fault", 'i', Tid, F.Cycle);
    S += ",\"s\":\"t\",\"args\":{\"block\":" + std::to_string(F.BlockId);
    S += ",\"detail\":" + std::to_string(F.Detail) + "}";
    Sink.event(S);
  }
}

} // namespace

void trace::writeChromeTrace(OStream &OS, const TraceRecorder &Rec) {
  OS << "{\"displayTimeUnit\":\"ms\",\"otherData\":{"
     << "\"tool\":\"offload-mm trace\",\"time_unit\":"
     << "\"1 us rendered = 1 simulated cycle\"},\"traceEvents\":[";
  EventSink Sink(OS);
  emitMetadata(Sink, Rec);
  emitBlocks(Sink, Rec);
  emitDescriptors(Sink, Rec);
  emitFaults(Sink, Rec);
  emitMailbox(Sink, Rec);
  emitWaits(Sink, Rec);
  emitTransfers(Sink, Rec);
  OS << "\n]}\n";
  OS.flush();
}

bool trace::writeChromeTraceFile(std::string_view Path,
                                 const TraceRecorder &Rec) {
  std::string PathStr(Path);
  std::FILE *File = std::fopen(PathStr.c_str(), "w");
  if (!File)
    return false;
  {
    OStream OS(File);
    writeChromeTrace(OS, Rec);
  }
  std::fclose(File);
  return true;
}
