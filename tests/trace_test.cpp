//===- tests/trace_test.cpp - Trace recorder and exporter tests ------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// The trace layer's contract, in order of importance:
//
//   1. Attaching a TraceRecorder changes nothing: cycle counts are
//      bit-identical with and without it.
//   2. What the recorder reports agrees with the machine's own
//      PerfCounters (same transfers, bytes, stalls).
//   3. The Chrome trace export is well-formed JSON whose events match
//      the recorder's data.
//   4. The recorder coexists with the DMA race checker through the
//      ObserverMux — both see every event.
//
//===----------------------------------------------------------------------===//

#include "trace/ChromeTrace.h"
#include "trace/TimelineReport.h"
#include "trace/TraceRecorder.h"

#include "dmacheck/DmaRaceChecker.h"
#include "offload/JobQueue.h"
#include "offload/Offload.h"
#include "offload/Parcel.h"
#include "offload/Ptr.h"
#include "support/OStream.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

using namespace omm;
using namespace omm::offload;
using namespace omm::sim;

namespace {

//===----------------------------------------------------------------------===//
// A minimal JSON reader — just enough to validate the Chrome trace
// output (objects, arrays, strings, numbers, bools, null).
//===----------------------------------------------------------------------===//

struct JsonValue {
  enum Kind { Null, Bool, Number, String, Array, Object };
  Kind K = Null;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<JsonValue> Items;
  std::vector<std::pair<std::string, JsonValue>> Fields;

  const JsonValue *field(const std::string &Name) const {
    for (const auto &F : Fields)
      if (F.first == Name)
        return &F.second;
    return nullptr;
  }
  double numField(const std::string &Name) const {
    const JsonValue *V = field(Name);
    return V && V->K == Number ? V->Num : -1;
  }
  std::string strField(const std::string &Name) const {
    const JsonValue *V = field(Name);
    return V && V->K == String ? V->Str : std::string();
  }
};

class JsonParser {
public:
  explicit JsonParser(std::string Text) : Text(std::move(Text)) {}

  /// Parses the whole input; Ok is false on any syntax error.
  JsonValue parse() {
    JsonValue Root = parseValue();
    skipWs();
    if (Pos != Text.size())
      Ok = false;
    return Root;
  }

  bool ok() const { return Ok; }

private:
  void skipWs() {
    while (Pos < Text.size() && (Text[Pos] == ' ' || Text[Pos] == '\t' ||
                                 Text[Pos] == '\n' || Text[Pos] == '\r'))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  bool literal(const char *Lit) {
    size_t Len = std::strlen(Lit);
    if (Text.compare(Pos, Len, Lit) == 0) {
      Pos += Len;
      return true;
    }
    Ok = false;
    return false;
  }

  JsonValue parseValue() {
    skipWs();
    if (Pos >= Text.size()) {
      Ok = false;
      return {};
    }
    char C = Text[Pos];
    if (C == '{')
      return parseObject();
    if (C == '[')
      return parseArray();
    if (C == '"')
      return parseString();
    if (C == 't' || C == 'f')
      return parseBool();
    if (C == 'n') {
      literal("null");
      return {};
    }
    return parseNumber();
  }

  JsonValue parseObject() {
    JsonValue V;
    V.K = JsonValue::Object;
    consume('{');
    if (consume('}'))
      return V;
    do {
      JsonValue Key = parseString();
      if (!consume(':')) {
        Ok = false;
        return V;
      }
      V.Fields.emplace_back(Key.Str, parseValue());
    } while (consume(','));
    if (!consume('}'))
      Ok = false;
    return V;
  }

  JsonValue parseArray() {
    JsonValue V;
    V.K = JsonValue::Array;
    consume('[');
    if (consume(']'))
      return V;
    do {
      V.Items.push_back(parseValue());
    } while (consume(','));
    if (!consume(']'))
      Ok = false;
    return V;
  }

  JsonValue parseString() {
    JsonValue V;
    V.K = JsonValue::String;
    if (!consume('"')) {
      Ok = false;
      return V;
    }
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos++];
      if (C == '\\' && Pos < Text.size()) {
        char E = Text[Pos++];
        switch (E) {
        case 'n': V.Str += '\n'; break;
        case 't': V.Str += '\t'; break;
        case 'r': V.Str += '\r'; break;
        case 'u': Pos += 4; V.Str += '?'; break;
        default: V.Str += E; break;
        }
      } else {
        V.Str += C;
      }
    }
    if (!consume('"'))
      Ok = false;
    return V;
  }

  JsonValue parseBool() {
    JsonValue V;
    V.K = JsonValue::Bool;
    V.B = Text[Pos] == 't';
    literal(V.B ? "true" : "false");
    return V;
  }

  JsonValue parseNumber() {
    JsonValue V;
    V.K = JsonValue::Number;
    size_t End = Pos;
    while (End < Text.size() &&
           (std::isdigit(static_cast<unsigned char>(Text[End])) ||
            Text[End] == '-' || Text[End] == '+' || Text[End] == '.' ||
            Text[End] == 'e' || Text[End] == 'E'))
      ++End;
    if (End == Pos) {
      Ok = false;
      return V;
    }
    V.Num = std::strtod(Text.c_str() + Pos, nullptr);
    Pos = End;
    return V;
  }

  std::string Text;
  size_t Pos = 0;
  bool Ok = true;
};

//===----------------------------------------------------------------------===//
// The workload: two offload blocks with explicit DMA, host work in
// parallel. Deterministic, race-free, and touches every observer hook.
//===----------------------------------------------------------------------===//

uint64_t runWorkload(Machine &M) {
  GlobalAddr In = M.allocGlobal(4096);
  GlobalAddr Out = M.allocGlobal(4096);
  for (uint32_t I = 0; I != 1024; ++I)
    M.hostWrite<uint32_t>(In + I * 4, I * 2654435761u);

  OffloadHandle H0 = offloadBlock(M, 0, [&](OffloadContext &Ctx) {
    LocalAddr L = Ctx.localAlloc(2048);
    Ctx.dmaGet(L, In, 2048, 0);
    Ctx.dmaWait(0);
    for (uint32_t I = 0; I != 512; ++I) {
      auto V = Ctx.localRead<uint32_t>(L + I * 4);
      Ctx.localWrite<uint32_t>(L + I * 4, V ^ 0x9E3779B9u);
    }
    Ctx.compute(20000);
    Ctx.dmaPut(Out, L, 2048, 1);
    Ctx.dmaWait(1);
  });
  OffloadHandle H1 = offloadBlock(M, 1, [&](OffloadContext &Ctx) {
    LocalAddr L = Ctx.localAlloc(2048);
    Ctx.dmaGet(L, In + 2048, 2048, 2);
    Ctx.dmaWait(2);
    Ctx.compute(5000);
    Ctx.dmaPut(Out + 2048, L, 2048, 3);
    Ctx.dmaWait(3);
  });
  M.hostCompute(3000);
  offloadJoin(M, H0);
  offloadJoin(M, H1);

  uint64_t Sum = 0;
  for (uint32_t I = 0; I != 1024; ++I)
    Sum += M.hostRead<uint32_t>(Out + I * 4);
  return Sum;
}

/// A resident-pool workload: a job queue with a skewed tail (steal
/// probes and transfers when the machine steals), then a three-stage
/// Ring-parcel dataflow over the same words. \returns a checksum of the
/// output and the clocks between the two regions.
uint64_t runPoolWorkload(Machine &M) {
  constexpr uint32_t Count = 256;
  OuterPtr<uint64_t> Data(M.allocGlobal(Count * sizeof(uint64_t)));
  JobQueueOptions Jobs;
  Jobs.ChunkSize = 8;
  distributeJobs(M, Count, Jobs, [&](auto &Ctx, uint32_t Begin, uint32_t End) {
    for (uint32_t I = Begin; I != End; ++I) {
      Ctx.compute(I > Count - Count / 8 ? 20000 : 200);
      Ctx.outerWrite((Data + I).addr(), uint64_t{I} * 2654435761u);
    }
  });
  // The next region's launch merges every clock forward, so fold the
  // clocks in here; a perturbed idle worker would vanish otherwise.
  uint64_t Sum = 0;
  for (unsigned A = 0; A != M.numAccelerators(); ++A)
    Sum = Sum * 31 + M.accel(A).Clock.now();
  DataflowOptions Flow;
  Flow.ChunkSize = 16;
  Flow.NumStages = 3;
  Flow.Policy = ParcelPolicy::Ring;
  runDataflow(M, Count, Flow, [&](auto &Ctx, const WorkDescriptor &Desc) {
    Ctx.compute((Desc.End - Desc.Begin) * 40);
    for (uint32_t I = Desc.Begin; I != Desc.End; ++I) {
      uint64_t V = Ctx.template outerRead<uint64_t>((Data + I).addr());
      Ctx.outerWrite((Data + I).addr(), V * 33 + Desc.Kernel);
    }
  });
  for (uint32_t I = 0; I != Count; ++I)
    Sum += M.hostRead<uint64_t>((Data + I).addr()) * (I + 1);
  return Sum;
}

/// Runs \p Workload on a plain and on a traced machine and expects the
/// same output, clocks and PerfCounters (every word, host and each
/// accelerator). \returns the dispatch events the recorder saw.
template <typename WorkloadFn>
std::vector<DispatchEvent> expectRecorderPassive(const MachineConfig &Cfg,
                                                 WorkloadFn Workload) {
  Machine Plain(Cfg), Traced(Cfg);
  uint64_t PlainSum = Workload(Plain);
  uint64_t TracedSum;
  std::vector<DispatchEvent> Events;
  {
    trace::TraceRecorder Recorder(Traced);
    TracedSum = Workload(Traced);
    Events = Recorder.mailboxEvents();
  }
  EXPECT_EQ(PlainSum, TracedSum);
  EXPECT_EQ(Plain.hostClock().now(), Traced.hostClock().now());
  EXPECT_EQ(Plain.hostCounters(), Traced.hostCounters());
  for (unsigned I = 0; I != Plain.numAccelerators(); ++I) {
    EXPECT_EQ(Plain.accel(I).Clock.now(), Traced.accel(I).Clock.now());
    EXPECT_EQ(Plain.accel(I).Counters, Traced.accel(I).Counters) << I;
  }
  return Events;
}

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

//===----------------------------------------------------------------------===//
// 1. Observers are passive: tracing never changes the simulation.
//===----------------------------------------------------------------------===//

TEST(Trace, BitIdenticalWithAndWithoutRecorder) {
  expectRecorderPassive(MachineConfig::cellLike(), runWorkload);
  // A stealing resident pool drives the dispatch, steal and parcel
  // event sites as well.
  MachineConfig Pooled = MachineConfig::cellLike();
  Pooled.WorkStealing = StealPolicy::LocalityAware;
  std::vector<DispatchEvent> Events =
      expectRecorderPassive(Pooled, runPoolWorkload);
  for (DispatchEventKind K :
       {DispatchEventKind::DescriptorFetch, DispatchEventKind::StealTransfer,
        DispatchEventKind::ParcelSpawn})
    EXPECT_TRUE(std::any_of(Events.begin(), Events.end(),
                            [K](const DispatchEvent &E) { return E.Kind == K; }))
        << dispatchEventKindName(K);
}

//===----------------------------------------------------------------------===//
// 2. The recorder agrees with PerfCounters.
//===----------------------------------------------------------------------===//

TEST(Trace, RecorderMatchesPerfCounters) {
  Machine M;
  trace::TraceRecorder Recorder(M);
  runWorkload(M);

  PerfCounters Total = M.totalCounters();
  EXPECT_EQ(Recorder.transfers().size(), Total.dmaTransfers());
  EXPECT_EQ(Recorder.totalDmaBytes(), Total.dmaBytes());
  EXPECT_EQ(Recorder.hostAccesses(), Total.HostLoads + Total.HostStores);

  uint64_t RecordedStalls = 0;
  for (unsigned I = 0; I != M.config().NumAccelerators; ++I)
    RecordedStalls += Recorder.stallCycles(I);
  uint64_t CounterStalls = 0;
  for (unsigned I = 0; I != M.config().NumAccelerators; ++I)
    CounterStalls += M.accel(I).Counters.DmaStallCycles;
  EXPECT_EQ(RecordedStalls, CounterStalls);

  // Two blocks, distinct monotonic ids, both spans closed.
  ASSERT_EQ(Recorder.blocks().size(), 2u);
  const trace::OffloadSpan &B0 = Recorder.blocks()[0];
  const trace::OffloadSpan &B1 = Recorder.blocks()[1];
  EXPECT_LT(B0.BlockId, B1.BlockId);
  EXPECT_EQ(B0.AccelId, 0u);
  EXPECT_EQ(B1.AccelId, 1u);
  EXPECT_GT(B0.cycles(), 0u);
  EXPECT_GT(B1.cycles(), 0u);
  EXPECT_EQ(B0.Transfers, 2u);
  EXPECT_EQ(B0.BytesIn, 2048u);
  EXPECT_EQ(B0.BytesOut, 2048u);
  EXPECT_GT(B0.LocalAccesses, 0u);
  EXPECT_GE(B0.LocalStorePeak, 2048u);

  // The block span covers the compute it charged.
  EXPECT_GE(B0.cycles(), 20000u);
  EXPECT_GE(B1.cycles(), 5000u);
}

TEST(Trace, ClearForgetsEverything) {
  Machine M;
  trace::TraceRecorder Recorder(M);
  runWorkload(M);
  ASSERT_FALSE(Recorder.blocks().empty());
  Recorder.clear();
  EXPECT_TRUE(Recorder.blocks().empty());
  EXPECT_TRUE(Recorder.transfers().empty());
  EXPECT_TRUE(Recorder.waits().empty());
  EXPECT_EQ(Recorder.lastEventCycle(), 0u);
  // Still attached: new work is recorded again.
  runWorkload(M);
  EXPECT_EQ(Recorder.blocks().size(), 2u);
}

//===----------------------------------------------------------------------===//
// 3. The Chrome trace export is valid JSON and matches the recording.
//===----------------------------------------------------------------------===//

TEST(Trace, ChromeTraceJsonMatchesRecorder) {
  Machine M;
  trace::TraceRecorder Recorder(M);
  runWorkload(M);

  std::string Path = ::testing::TempDir() + "omm_trace_test.json";
  ASSERT_TRUE(trace::writeChromeTraceFile(Path, Recorder));

  JsonParser Parser(slurp(Path));
  JsonValue Root = Parser.parse();
  ASSERT_TRUE(Parser.ok()) << "trace output is not valid JSON";
  ASSERT_EQ(Root.K, JsonValue::Object);
  const JsonValue *Events = Root.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->K, JsonValue::Array);

  size_t BlockEvents = 0, DmaBegins = 0, DmaEnds = 0, WaitEvents = 0;
  uint64_t DmaBytes = 0, BlockCycles = 0, WaitCycles = 0;
  for (const JsonValue &E : Events->Items) {
    ASSERT_EQ(E.K, JsonValue::Object);
    std::string Ph = E.strField("ph");
    ASSERT_FALSE(Ph.empty());
    EXPECT_EQ(E.numField("pid"), 1);
    std::string Name = E.strField("name");
    if (Ph == "X" && Name.compare(0, 8, "offload ") == 0) {
      ++BlockEvents;
      BlockCycles += static_cast<uint64_t>(E.numField("dur"));
    } else if (Ph == "X" && Name == "dma_wait") {
      ++WaitEvents;
      WaitCycles += static_cast<uint64_t>(E.numField("dur"));
    } else if (Ph == "b") {
      ++DmaBegins;
      const JsonValue *Args = E.field("args");
      ASSERT_NE(Args, nullptr);
      DmaBytes += static_cast<uint64_t>(Args->numField("size"));
    } else if (Ph == "e") {
      ++DmaEnds;
    }
  }

  PerfCounters Total = M.totalCounters();
  EXPECT_EQ(BlockEvents, Recorder.blocks().size());
  EXPECT_EQ(DmaBegins, Recorder.transfers().size());
  EXPECT_EQ(DmaEnds, DmaBegins); // Every async DMA event is closed.
  EXPECT_EQ(DmaBytes, Total.dmaBytes());

  uint64_t RecordedBlockCycles = 0;
  for (const trace::OffloadSpan &Span : Recorder.blocks())
    RecordedBlockCycles += Span.cycles();
  EXPECT_EQ(BlockCycles, RecordedBlockCycles);

  // Zero-length waits are elided from the export; every emitted wait
  // carries its stall, so the sum matches the non-zero recorded stalls.
  uint64_t RecordedWaitCycles = 0;
  for (const trace::WaitSpan &Wait : Recorder.waits())
    RecordedWaitCycles += Wait.stallCycles();
  EXPECT_EQ(WaitCycles, RecordedWaitCycles);
  EXPECT_LE(WaitEvents, Recorder.waits().size());

  std::remove(Path.c_str());
}

TEST(Trace, TimelineReportSmoke) {
  Machine M;
  trace::TraceRecorder Recorder(M);
  runWorkload(M);

  std::FILE *Tmp = std::tmpfile();
  ASSERT_NE(Tmp, nullptr);
  {
    OStream OS(Tmp);
    trace::printTimelineReport(OS, Recorder);
  }
  long Size = std::ftell(Tmp);
  EXPECT_GT(Size, 0); // Wrote something without crashing.
  std::fclose(Tmp);
}

//===----------------------------------------------------------------------===//
// 4. Recorder and race checker coexist through the ObserverMux.
//===----------------------------------------------------------------------===//

TEST(Trace, CoexistsWithRaceChecker) {
  Machine M;
  DiagSink Diags;
  dmacheck::DmaRaceChecker Checker(Diags);
  M.addObserver(&Checker);
  {
    trace::TraceRecorder Recorder(M);
    runWorkload(M);
    // Both observers saw the whole run.
    EXPECT_EQ(Recorder.transfers().size(), M.totalCounters().dmaTransfers());
    EXPECT_EQ(Checker.raceCount(), 0u);
    EXPECT_EQ(Recorder.blocks().size(), 2u);
  }
  // Recorder detached itself; the checker must keep observing.
  Accelerator &A = M.accel(0);
  GlobalAddr G = M.allocGlobal(128);
  LocalAddr L = A.Store.alloc(128);
  A.Dma.get(L, G, 64, 0);
  A.Dma.get(L + 32, G + 64, 64, 1); // Overlapping local writes: a race.
  A.Dma.waitAll();
  EXPECT_EQ(Checker.raceCount(), 1u);
  M.removeObserver(&Checker);
}
