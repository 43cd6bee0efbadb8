//===- perfbench/twoclock.cpp - Two-clock benchmark -----------------------===//
//
// Part of offload-mm, a reproduction of "The Impact of Diverse Memory
// Architectures on Multicore Consumer Software" (Russell et al., MSPC'11).
//
//===----------------------------------------------------------------------===//
//
// Runs one seeded workload as a closed loop with a single caller on a
// single host thread and reports every metric on two clocks: simulated
// cycles of the modelled machine and host time of the simulator. The
// modules under test (sim, offload, game, server, trace) are measured
// from outside: the benchmark times calls into their public functions and
// reads their public counters. perfbench/README.md explains the
// workloads, the metrics and which layer metric should move which
// end-to-end metric. perfbench/run.py builds this binary and wraps it.
//
//   twoclock --workload fig2_frame|tenant_serve|dispatch_storm
//            --seed N --seconds S --trace 0|1 --out-dir DIR
//            [--corrupt-output]
//
// The last line of standard output is one JSON object with the run's
// end-to-end metrics, per-layer metrics, the simulated-clock values the
// determinism gate compares, and the output-check result. The exit code
// is 0 only when every output check and every in-process determinism
// check passed.
//
//===----------------------------------------------------------------------===//

#include "game/GameWorld.h"
#include "offload/JobQueue.h"
#include "offload/Parcel.h"
#include "server/TenantServer.h"
#include "sim/Machine.h"
#include "trace/ChromeTrace.h"
#include "trace/TraceRecorder.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace omm;

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define OMM_BENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||   \
    __has_feature(undefined_behavior_sanitizer)
#define OMM_BENCH_SANITIZED 1
#endif
#endif

namespace {

using Clock = std::chrono::steady_clock;

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

uint64_t mix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

/// Order-sensitive digest of simulated-clock values.
struct Digest {
  uint64_t H = 0x0D16E57ull;
  void add(uint64_t V) { H = mix64(H ^ V); }
};

template <typename T> T percentile(std::vector<T> Samples, double Pct) {
  if (Samples.empty())
    return T();
  std::sort(Samples.begin(), Samples.end());
  double Rank = Pct / 100.0 * static_cast<double>(Samples.size());
  size_t Index = Rank <= 1.0 ? 0 : static_cast<size_t>(std::ceil(Rank)) - 1;
  return Samples[std::min(Index, Samples.size() - 1)];
}

double peakRssMb() {
  struct rusage Usage;
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0;
}

//===----------------------------------------------------------------------===//
// Spans and counting observer: the benchmark-side trace.
//===----------------------------------------------------------------------===//

/// One timed call into a layer, recorded from this file. Spans stay in
/// memory and are written out when the run ends.
struct Span {
  const char *Name;
  double StartMs;
  double EndMs;
  int Parent; ///< Index of the enclosing span, or -1.
  uint32_t Op;
};

class SpanLog {
public:
  explicit SpanLog(Clock::time_point Epoch) : Epoch(Epoch) {}

  int open(const char *Name, uint32_t Op, int Parent = -1) {
    Spans.push_back({Name, msBetween(Epoch, Clock::now()), 0.0, Parent, Op});
    return static_cast<int>(Spans.size()) - 1;
  }
  double close(int Id) {
    Span &S = Spans[Id];
    S.EndMs = msBetween(Epoch, Clock::now());
    return S.EndMs - S.StartMs;
  }
  bool write(const std::string &Path) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fputs("[\n", F);
    for (size_t I = 0; I != Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "{\"id\":%zu,\"name\":\"%s\",\"op\":%u,\"parent\":%d,"
                   "\"start_ms\":%.6f,\"end_ms\":%.6f}%s\n",
                   I, S.Name, S.Op, S.Parent, S.StartMs, S.EndMs,
                   I + 1 == Spans.size() ? "" : ",");
    }
    std::fputs("]\n", F);
    return std::fclose(F) == 0;
  }

private:
  Clock::time_point Epoch;
  std::vector<Span> Spans;
};

/// Counts every observer callback (the simulated events of an operation)
/// and derives the dispatch figures the public stats do not expose for
/// every workload: resident-worker launches, remote-domain steals and
/// per-accelerator descriptor body cycles.
class CountingObserver final : public sim::DmaObserver {
public:
  explicit CountingObserver(sim::Machine &M) : M(M) {
    BodyCycles.assign(M.numAccelerators(), 0);
    M.addObserver(this);
  }
  ~CountingObserver() override { M.removeObserver(this); }
  CountingObserver(const CountingObserver &) = delete;
  CountingObserver &operator=(const CountingObserver &) = delete;

  uint64_t Events = 0;
  uint64_t Blocks = 0;
  uint64_t RemoteSteals = 0;
  std::vector<uint64_t> BodyCycles;

  double imbalance() const {
    uint64_t Max = 0, Sum = 0;
    for (uint64_t C : BodyCycles) {
      Max = std::max(Max, C);
      Sum += C;
    }
    return Sum == 0 ? 1.0
                    : static_cast<double>(Max) * BodyCycles.size() /
                          static_cast<double>(Sum);
  }

  void onIssue(const sim::DmaTransfer &) override { ++Events; }
  void onWait(unsigned, uint32_t, uint64_t, uint64_t) override { ++Events; }
  void onLocalAccess(unsigned, sim::LocalAddr, uint32_t, bool,
                     uint64_t) override {
    ++Events;
  }
  void onHostAccess(sim::GlobalAddr, uint64_t, bool, uint64_t) override {
    ++Events;
  }
  void onBlockBegin(unsigned, uint64_t, uint64_t) override {
    ++Events;
    ++Blocks;
  }
  void onBlockEnd(unsigned, uint64_t, uint64_t) override { ++Events; }
  void onFault(const sim::FaultEvent &) override { ++Events; }
  void onDispatchEvent(const sim::DispatchEvent &E) override {
    ++Events;
    if (E.Kind == sim::DispatchEventKind::DescriptorRun &&
        E.AccelId < BodyCycles.size())
      BodyCycles[E.AccelId] += E.EndCycle - E.Cycle;
    if (E.Kind == sim::DispatchEventKind::StealTransfer &&
        !M.sameDomain(E.AccelId, static_cast<unsigned>(E.Detail)))
      ++RemoteSteals;
  }

private:
  sim::Machine &M;
};

//===----------------------------------------------------------------------===//
// Workloads.
//===----------------------------------------------------------------------===//

enum class Kind { Fig2Frame, TenantServe, DispatchStorm };

/// How one operation is observed. Plain attaches nothing; Counting
/// attaches the counting observer; Recorded adds the program's own
/// TraceRecorder on top and exports its Chrome trace after the op.
enum class Observe { Plain, Counting, Recorded };

/// What one operation produced. Sim holds simulated-clock values (exact);
/// Host holds host-time values of layer calls inside the operation.
struct OpResult {
  std::vector<uint64_t> SimCycles;
  std::map<std::string, double> Sim;
  std::map<std::string, double> Host;
  uint64_t Requested = 1; ///< Frames requested (tenant_serve: tenants).
  uint64_t Deferred = 0;
};

struct SetupTimes {
  double MachineMs = 0, WorldMs = 0, ServerMs = 0;
};

/// The two-domain machine of tenant_serve and dispatch_storm: two
/// domains of three accelerators with E16's interconnect premiums
/// (descriptor copy 8000 cycles, doorbell a quarter of it) and
/// domain-first stealing.
sim::MachineConfig twoDomainConfig() {
  sim::MachineConfig Cfg = sim::MachineConfig::cellLike();
  Cfg.NumAccelerators = 6;
  Cfg.AcceleratorsPerDomain = 3;
  Cfg.WorkStealing = sim::StealPolicy::DomainAware;
  Cfg.InterDomainDescriptorDmaCycles = 8000;
  Cfg.InterDomainDoorbellCycles = 2000;
  Cfg.InterDomainDmaLatencyCycles = 0;
  Cfg.StealSliceChunks = 8;
  Cfg.StealRemoteMinBacklog = 8;
  return Cfg;
}

/// A small-memory host machine for the output-check twins (host-only
/// frames compute the same world state on any machine).
sim::MachineConfig checkConfig() {
  sim::MachineConfig Cfg = sim::MachineConfig::cellLike();
  Cfg.MainMemorySize = 8ull << 20;
  return Cfg;
}

std::unique_ptr<sim::Machine> timedMachine(const sim::MachineConfig &Cfg,
                                           SetupTimes &T) {
  Clock::time_point T0 = Clock::now();
  auto M = std::make_unique<sim::Machine>(Cfg);
  T.MachineMs = msBetween(T0, Clock::now());
  return M;
}

class Workload {
public:
  virtual ~Workload() = default;
  virtual sim::Machine &machine() = 0;
  /// Runs operation \p Op; only this call is timed as the operation.
  virtual void run(uint32_t Op, OpResult &R, SpanLog &Spans, int OpSpan) = 0;
  /// Untimed, after run(): records the outputs the check needs and folds
  /// them into the digest. \returns false when an immediate check failed.
  virtual bool record(uint32_t Op, OpResult &R, Digest &D) = 0;
  /// Untimed, after the measured phase: replays the reference and
  /// \returns the indices of operations whose output was wrong.
  virtual std::vector<uint32_t> verify() { return {}; }
  /// Self-test hook: corrupts one output word of the last operation.
  virtual void corruptLastOutput() {}
};

//--- fig2_frame -------------------------------------------------------------

/// E2's calibrated stage mix (bench/bench_e2_offload_frame.cpp) at 4096
/// entities: the entity store fills a whole local store, so the AI pass
/// streams through DMA and the software cache.
game::GameWorldParams fig2Params(uint64_t Seed) {
  game::GameWorldParams P;
  P.NumEntities = 4096;
  P.Seed = Seed;
  P.WorldHalfExtent = 12.0f * std::cbrt(P.NumEntities / 100.0f) * 2.0f;
  P.Ai.CyclesPerNode = 60;
  P.Collision.CyclesPerPairTest = 80;
  P.Collision.CyclesPerHash = 30;
  P.RenderCyclesPerEntity = 80;
  P.Physics.CyclesPerIntegrate = 50;
  P.Animation.CyclesPerJoint = 16;
  return P;
}

class Fig2Frame final : public Workload {
public:
  Fig2Frame(uint64_t Seed, SetupTimes &T) : Params(fig2Params(Seed)) {
    sim::MachineConfig Cfg = sim::MachineConfig::cellLike();
    Cfg.WorkStealing = sim::StealPolicy::LocalityAware;
    M = timedMachine(Cfg, T);
    Clock::time_point T0 = Clock::now();
    World = std::make_unique<game::GameWorld>(*M, Params);
    T.WorldMs = msBetween(T0, Clock::now());
  }

  sim::Machine &machine() override { return *M; }

  void run(uint32_t, OpResult &R, SpanLog &, int) override {
    Last = World->doFrameOffloadAiResident();
    R.SimCycles.push_back(Last.FrameCycles);
  }

  bool record(uint32_t, OpResult &R, Digest &D) override {
    const game::FrameStats &S = Last;
    R.Sim["game.ai_cycles"] = S.AiCycles;
    R.Sim["game.collision_cycles"] = S.CollisionCycles;
    R.Sim["game.update_cycles"] = S.UpdateCycles;
    R.Sim["game.render_cycles"] = S.RenderCycles;
    R.Sim["game.ai_descriptors"] = S.AiDescriptors;
    R.Sim["game.ai_steals"] = S.AiSteals;
    R.Sim["game.pairs_tested"] = S.PairsTested;
    R.Sim["game.contacts"] = S.Contacts;
    R.Sim["offload.launches_saved"] = static_cast<double>(S.AiLaunchesSaved);
    uint64_t Sum = World->checksum();
    Checksums.push_back(Sum);
    D.add(Sum);
    return true;
  }

  std::vector<uint32_t> verify() override {
    // The host-only twin: same world, every frame on the host. World
    // state is schedule-independent, so it must match after each frame.
    World.reset();
    M.reset();
    sim::Machine Twin(checkConfig());
    game::GameWorld TwinWorld(Twin, Params);
    std::vector<uint32_t> Failed;
    for (uint32_t Op = 0; Op != Checksums.size(); ++Op) {
      TwinWorld.doFrameHostOnly();
      if (TwinWorld.checksum() != Checksums[Op])
        Failed.push_back(Op);
    }
    return Failed;
  }

private:
  game::GameWorldParams Params;
  std::unique_ptr<sim::Machine> M;
  std::unique_ptr<game::GameWorld> World;
  game::FrameStats Last;
  std::vector<uint64_t> Checksums;
};

//--- tenant_serve -----------------------------------------------------------

constexpr unsigned NumTenants = 16;
constexpr uint32_t TenantBaseEntities = 96;
/// Admission budget as a share of the unconstrained steady-state ledger
/// (E15's AdmissionBudget calibration): tight enough that admission
/// defers about a fifth of the frames, every tick.
constexpr uint64_t TickBudgetPct = 80;

/// The tenant population and its calibrated tick budget.
struct TenantPlan {
  std::vector<server::TenantParams> Tenants;
  uint64_t TickBudgetCycles = 0;
};

/// Entity-count multipliers of the population, largest first: the
/// heavy-tailed mix's expected shape over 16 tenants (16x once, 8x once,
/// 4x twice, 2x four times, 1x eight times). Fixing the shape and the
/// order makes the seed pick the worlds, not how deep the tail is or how
/// admission scans it; a seed-dependent shape made sim_cycles_p99 and the
/// deferral rate spread by 15% across seeds.
constexpr uint32_t TenantMults[NumTenants] = {16, 8, 4, 4, 2, 2, 2, 2,
                                              1, 1, 1, 1, 1, 1, 1, 1};

server::TenantServerParams servePolicy(uint64_t Budget) {
  server::TenantServerParams P;
  P.Mode = server::ServeMode::Batched;
  P.TickBudgetCycles = Budget;
  return P;
}

TenantPlan planTenants(uint64_t Seed) {
  // The seed picks each tenant's world; the shape is fixed.
  TenantPlan Plan;
  Plan.Tenants =
      server::makeHeavyTailedTenants(NumTenants, Seed, TenantBaseEntities);
  for (unsigned T = 0; T != NumTenants; ++T)
    Plan.Tenants[T].World.NumEntities = TenantBaseEntities * TenantMults[T];
  // The 100% reference: the ledger of admitting everyone once every
  // estimate is a measured frame (four unconstrained ticks).
  sim::Machine RefM(twoDomainConfig());
  server::TenantServer Ref(RefM, servePolicy(0));
  for (const server::TenantParams &T : Plan.Tenants)
    Ref.addTenant(T);
  uint64_t FullLedger = 0;
  for (unsigned Tick = 0; Tick != 4; ++Tick)
    FullLedger = Ref.serveTick().LedgerCycles;
  Plan.TickBudgetCycles = FullLedger * TickBudgetPct / 100;
  return Plan;
}

class TenantServe final : public Workload {
public:
  TenantServe(const TenantPlan &Plan, SetupTimes &T) : Plan(Plan) {
    M = timedMachine(twoDomainConfig(), T);
    Clock::time_point T0 = Clock::now();
    Server = std::make_unique<server::TenantServer>(
        *M, servePolicy(Plan.TickBudgetCycles));
    Clock::time_point T1 = Clock::now();
    for (const server::TenantParams &P : Plan.Tenants)
      Server->addTenant(P);
    Clock::time_point T2 = Clock::now();
    T.WorldMs = msBetween(T1, T2);
    T.ServerMs = msBetween(T0, T2);
    Frames.resize(NumTenants);
  }

  sim::Machine &machine() override { return *M; }

  void run(uint32_t, OpResult &R, SpanLog &, int) override {
    Last = Server->serveTick();
    R.Requested = NumTenants;
    R.Deferred = Last.Deferred;
  }

  bool record(uint32_t Op, OpResult &R, Digest &D) override {
    // A tick serves each tenant at most one frame.
    uint64_t Actual = 0;
    for (unsigned T = 0; T != NumTenants; ++T) {
      const std::vector<uint64_t> &Cycles = Server->stats(T).FrameCycles;
      if (Cycles.size() == Frames[T].size())
        continue;
      R.SimCycles.push_back(Cycles.back());
      Actual += Cycles.back();
      uint64_t Sum = Server->checksum(T);
      Frames[T].push_back({Op, Sum});
      D.add(T);
      D.add(Sum);
    }
    R.Sim["server.tick_cycles"] = static_cast<double>(Last.TickCycles);
    R.Sim["server.ledger_cycles"] = static_cast<double>(Last.LedgerCycles);
    R.Sim["server.admitted_per_tick"] = Last.Admitted;
    // The ledger estimates the admitted frames' cycles from their last
    // frames; the actual is what those frames took this tick.
    R.Sim["server.ledger_error"] =
        Actual == 0 ? 0.0
                    : std::fabs(static_cast<double>(Last.LedgerCycles) -
                                static_cast<double>(Actual)) /
                          static_cast<double>(Actual);
    D.add(Last.Admitted);
    D.add(Last.Deferred);
    D.add(Last.LedgerCycles);
    D.add(Last.TickCycles);
    return true;
  }

  std::vector<uint32_t> verify() override {
    Server.reset();
    M.reset();
    // Each tenant's solo, server-less run of its world: same frames on
    // the host, checked after every frame it was served.
    std::vector<uint32_t> Failed;
    for (unsigned T = 0; T != NumTenants; ++T) {
      sim::Machine Solo(checkConfig());
      game::GameWorld World(Solo, Plan.Tenants[T].World);
      for (const ServedFrame &F : Frames[T]) {
        World.doFrameHostOnly();
        if (World.checksum() != F.Checksum)
          Failed.push_back(F.Tick);
      }
    }
    std::sort(Failed.begin(), Failed.end());
    Failed.erase(std::unique(Failed.begin(), Failed.end()), Failed.end());
    return Failed;
  }

private:
  /// A tenant's world checksum after a frame served in tick Tick.
  struct ServedFrame {
    uint32_t Tick;
    uint64_t Checksum;
  };

  const TenantPlan &Plan;
  std::unique_ptr<sim::Machine> M;
  std::unique_ptr<server::TenantServer> Server;
  server::TickStats Last;
  std::vector<std::vector<ServedFrame>> Frames; ///< Per tenant.
};

//--- dispatch_storm ---------------------------------------------------------

constexpr uint32_t StormItems = 2048;
constexpr uint16_t StormStages = 4;

/// Per-item cost of the job-queue pass: hash-skewed, one item in
/// sixteen sixteen times dearer, redrawn every round.
uint64_t stormJobCost(uint64_t Seed, uint32_t Round, uint32_t I) {
  uint64_t H = mix64(Seed ^ mix64((uint64_t(Round) << 32) | I));
  uint64_t Cost = 64 + (H & 127);
  return (H >> 12) % 16 == 0 ? Cost * 16 : Cost;
}

uint64_t stormStageCost(uint64_t Seed, uint16_t Stage, uint32_t I) {
  return 32 + (mix64(Seed ^ (uint64_t(Stage) << 40) ^ I) & 31);
}

uint64_t stormJobValue(uint64_t In, uint32_t Round) {
  return mix64(In ^ (uint64_t(Round) * 0x100000001B3ull));
}

uint64_t stormStageValue(uint64_t V, uint16_t Stage, uint32_t I) {
  return mix64(V + Stage * 0xA24BAED4963EE407ull + I);
}

class DispatchStorm final : public Workload {
public:
  DispatchStorm(uint64_t Seed, SetupTimes &T) : Seed(Seed) {
    M = timedMachine(twoDomainConfig(), T);
    In = M->allocGlobal(StormItems * sizeof(uint64_t));
    Out = M->allocGlobal(StormItems * sizeof(uint64_t));
    for (uint32_t I = 0; I != StormItems; ++I)
      M->mainMemory().writeValue<uint64_t>(In + I * 8ull, mix64(Seed + I));
  }

  sim::Machine &machine() override { return *M; }

  void run(uint32_t Op, OpResult &R, SpanLog &Spans, int OpSpan) override {
    uint64_t Start = M->globalTime();
    offload::JobQueueOptions JQ;
    JQ.ChunkSize = 1;
    int S = Spans.open("offload.distributeJobs", Op, OpSpan);
    Jobs = offload::distributeJobs(
        *M, StormItems, JQ, [&](auto &Ctx, uint32_t B, uint32_t E) {
          for (uint32_t I = B; I != E; ++I) {
            Ctx.compute(stormJobCost(Seed, Op, I));
            uint64_t V = Ctx.template outerRead<uint64_t>(In + I * 8ull);
            Ctx.outerWrite(Out + I * 8ull, stormJobValue(V, Op));
          }
        });
    R.Host["offload.jobqueue_host_us"] = Spans.close(S) * 1000.0;

    offload::DataflowOptions DF;
    DF.ChunkSize = 8;
    DF.NumStages = StormStages;
    DF.Policy = sim::ParcelPolicy::Ring;
    S = Spans.open("offload.runDataflow", Op, OpSpan);
    Flow = offload::runDataflow(
        *M, StormItems, DF, [&](auto &Ctx, const sim::WorkDescriptor &Desc) {
          for (uint32_t I = Desc.Begin; I != Desc.End; ++I) {
            Ctx.compute(stormStageCost(Seed, Desc.Kernel, I));
            sim::GlobalAddr At = Out + I * 8ull;
            uint64_t V = Ctx.template outerRead<uint64_t>(At);
            Ctx.outerWrite(At, stormStageValue(V, Desc.Kernel, I));
          }
        });
    R.Host["offload.dataflow_host_us"] = Spans.close(S) * 1000.0;
    R.SimCycles.push_back(M->globalTime() - Start);
  }

  bool record(uint32_t Op, OpResult &R, Digest &D) override {
    R.Sim["offload.launches_saved"] =
        static_cast<double>(Jobs.LaunchesSaved + Flow.LaunchesSaved);
    D.add(Jobs.MakespanCycles);
    D.add(Flow.MakespanCycles);
    // The output check: every word equals the host-computed chain.
    bool Ok = true;
    Digest Words;
    for (uint32_t I = 0; I != StormItems; ++I) {
      uint64_t V = stormJobValue(mix64(Seed + I), Op);
      for (uint16_t K = 1; K <= StormStages; ++K)
        V = stormStageValue(V, K, I);
      uint64_t Got = M->mainMemory().readValue<uint64_t>(Out + I * 8ull);
      Ok &= Got == V;
      Words.add(Got);
    }
    D.add(Words.H);
    return Ok;
  }

  void corruptLastOutput() override {
    sim::GlobalAddr At = Out + (StormItems / 2) * 8ull;
    M->mainMemory().writeValue<uint64_t>(
        At, M->mainMemory().readValue<uint64_t>(At) ^ 1);
  }

private:
  uint64_t Seed;
  std::unique_ptr<sim::Machine> M;
  sim::GlobalAddr In, Out;
  offload::JobRunStats Jobs;
  offload::DataflowStats Flow;
};

//===----------------------------------------------------------------------===//
// The runner.
//===----------------------------------------------------------------------===//

struct Options {
  Kind Work = Kind::Fig2Frame;
  std::string WorkName;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Corrupt = false;
  std::string OutDir;
  bool WriteChrome = true; ///< Export each recorded op's Chrome trace.
};

/// Sizing per workload. SimOps is the fixed prefix over which every
/// simulated-clock metric is taken, so those repeat exactly whatever the
/// host speed; it yields at least 1000 sim_cycles samples, so a p99 has
/// ten beyond it (tenant_serve: 160 ticks, ten full turns of the rotating
/// admission scan, of about 12 frames each).
struct Sizing {
  uint32_t SimOps;
  uint32_t GateOps; ///< Ops replayed by the in-process determinism gate.
};

Sizing sizingFor(Kind K) {
  switch (K) {
  case Kind::Fig2Frame:
    return {1000, 12};
  case Kind::TenantServe:
    return {160, 8};
  case Kind::DispatchStorm:
    return {1000, 24};
  }
  return {1000, 12};
}

constexpr uint32_t WarmupOps = 5;
/// host_ms_p99 needs ten samples beyond it.
constexpr uint32_t MinHostSamples = 1000;
constexpr unsigned SetupRepeats = 11;
/// Traced run: ops with an observer attached are interleaved with plain
/// ops (one Counting and one Recorded in every eight) over the first
/// TraceWindow ops, so trace memory stays bounded and the overhead is
/// measured against plain ops of the same stretch of the run.
constexpr uint32_t TraceWindow = 256;

Observe observeFor(uint32_t Op, bool Trace) {
  if (!Trace || Op < WarmupOps || Op >= TraceWindow)
    return Observe::Plain;
  if (Op % 8 == 3)
    return Observe::Counting;
  if (Op % 8 == 7)
    return Observe::Recorded;
  return Observe::Plain;
}

std::unique_ptr<Workload> makeWorkload(Kind K, uint64_t Seed,
                                       const TenantPlan *Plan,
                                       SetupTimes &T) {
  switch (K) {
  case Kind::Fig2Frame:
    return std::make_unique<Fig2Frame>(Seed, T);
  case Kind::TenantServe:
    return std::make_unique<TenantServe>(*Plan, T);
  case Kind::DispatchStorm:
    return std::make_unique<DispatchStorm>(Seed, T);
  }
  return nullptr;
}

struct Built {
  std::unique_ptr<Workload> W;
  std::vector<SetupTimes> Times;
  std::vector<double> SetupMs;
};

Built setUp(Kind K, uint64_t Seed, const TenantPlan *Plan, unsigned Repeats) {
  Built B;
  for (unsigned I = 0; I != Repeats; ++I) {
    B.W.reset();
    SetupTimes T;
    Clock::time_point T0 = Clock::now();
    B.W = makeWorkload(K, Seed, Plan, T);
    B.SetupMs.push_back(msBetween(T0, Clock::now()));
    B.Times.push_back(T);
  }
  return B;
}

/// Everything a run keeps. Per-op values are folded as the run goes, so
/// host memory grows by a few words per op.
struct RunLog {
  uint32_t SimOps = 0;
  // Every op.
  std::vector<double> HostMs;
  std::vector<Observe> Mode;
  std::vector<uint64_t> Digests;
  std::vector<uint32_t> Failures;
  // Plain ops after warm-up: host time of layer calls.
  std::map<std::string, std::vector<double>> HostLayer;
  // The simulated prefix [0, SimOps).
  std::vector<uint64_t> SimSamples;
  std::map<std::string, double> SimSum;
  uint64_t Requested = 0, Deferred = 0;
  Digest Prefix;
  // Observed ops.
  std::vector<double> Events, RemoteSteals, Imbalance, Blocks;
  std::vector<double> Records, ChromeMs, ChromeBytes;
};

void writeChrome(const trace::TraceRecorder &Rec, uint32_t Op,
                 SpanLog &Spans, const Options &Opt, RunLog &Log) {
  std::string Path = Opt.OutDir + "/" + Opt.WorkName + ".trace.json";
  int S = Spans.open("trace.writeChromeTraceFile", Op);
  Clock::time_point T0 = Clock::now();
  bool Wrote = trace::writeChromeTraceFile(Path, Rec);
  Log.ChromeMs.push_back(msBetween(T0, Clock::now()));
  Spans.close(S);
  std::error_code EC;
  auto Bytes = std::filesystem::file_size(Path, EC);
  if (!Wrote || EC) {
    std::fprintf(stderr, "twoclock: could not write %s\n", Path.c_str());
    std::exit(2);
  }
  Log.ChromeBytes.push_back(static_cast<double>(Bytes));
}

/// Runs operation \p Op under observation \p How and folds it into \p Log.
void runOne(Workload &W, uint32_t Op, Observe How, SpanLog &Spans,
            const Options &Opt, RunLog &Log) {
  sim::Machine &M = W.machine();
  OpResult R;
  sim::PerfCounters Before = M.totalCounters();
  uint64_t AccelCompute0 = 0, AccelClock0 = 0;
  for (unsigned A = 0; A != M.numAccelerators(); ++A) {
    AccelCompute0 += M.accel(A).Counters.ComputeCycles;
    AccelClock0 += M.accel(A).Clock.now();
  }
  std::unique_ptr<CountingObserver> Counter;
  std::unique_ptr<trace::TraceRecorder> Recorder;
  if (How != Observe::Plain)
    Counter = std::make_unique<CountingObserver>(M);
  if (How == Observe::Recorded)
    Recorder = std::make_unique<trace::TraceRecorder>(M);

  int OpSpan = Spans.open("op", Op);
  Clock::time_point T0 = Clock::now();
  W.run(Op, R, Spans, OpSpan);
  Clock::time_point T1 = Clock::now();
  Spans.close(OpSpan);

  // Untimed from here on.
  Digest D;
  if (Opt.Corrupt && Op == 0)
    W.corruptLastOutput();
  if (!W.record(Op, R, D))
    Log.Failures.push_back(Op);
  for (uint64_t C : R.SimCycles)
    D.add(C);

  sim::PerfCounters Delta = M.totalCounters();
  Delta.subtract(Before);
  uint64_t Words[sizeof(sim::PerfCounters) / sizeof(uint64_t)];
  static_assert(sizeof(Words) == sizeof(sim::PerfCounters));
  std::memcpy(Words, &Delta, sizeof(Words));
  for (uint64_t V : Words)
    D.add(V);
  uint64_t AccelCompute = 0, AccelClock = 0;
  for (unsigned A = 0; A != M.numAccelerators(); ++A) {
    AccelCompute += M.accel(A).Counters.ComputeCycles;
    AccelClock += M.accel(A).Clock.now();
  }
  D.add(AccelClock - AccelClock0);
  auto Num = [](uint64_t V) { return static_cast<double>(V); };
  R.Sim["sim.dma_transfers"] = Num(Delta.dmaTransfers());
  R.Sim["sim.dma_bytes"] = Num(Delta.dmaBytes());
  R.Sim["sim.dma_stall_cycles"] = Num(Delta.DmaStallCycles);
  R.Sim["sim.join_stall_cycles"] = Num(Delta.JoinStallCycles);
  R.Sim["sim.compute_cycles"] = Num(Delta.ComputeCycles);
  R.Sim["sim.doorbell_cycles"] = Num(Delta.DoorbellCycles);
  R.Sim["sim.idle_poll_cycles"] = Num(Delta.IdlePollCycles);
  R.Sim["sim.dma_retries"] = Num(Delta.DmaRetries);
  R.Sim["sim.accel_compute_cycles"] = Num(AccelCompute - AccelCompute0);
  R.Sim["sim.accel_clock_advance"] = Num(AccelClock - AccelClock0);
  R.Sim["offload.descriptors"] = Num(Delta.DescriptorsDispatched);
  R.Sim["offload.steals_attempted"] = Num(Delta.StealsAttempted);
  R.Sim["offload.steals_succeeded"] = Num(Delta.StealsSucceeded);
  R.Sim["offload.steal_cycles"] = Num(Delta.StealCycles);
  R.Sim["offload.parcels_spawned"] = Num(Delta.ParcelsSpawned);
  R.Sim["offload.peer_doorbell_cycles"] = Num(Delta.PeerDoorbellCycles);
  R.Sim["offload.host_chunks"] = Num(Delta.HostFallbackChunks);

  Log.HostMs.push_back(msBetween(T0, T1));
  Log.Mode.push_back(How);
  Log.Digests.push_back(D.H);
  if (Op < Log.SimOps) {
    Log.SimSamples.insert(Log.SimSamples.end(), R.SimCycles.begin(),
                          R.SimCycles.end());
    for (const auto &[Key, V] : R.Sim)
      Log.SimSum[Key] += V;
    Log.Requested += R.Requested;
    Log.Deferred += R.Deferred;
    Log.Prefix.add(D.H);
  }
  if (How == Observe::Plain && Op >= WarmupOps)
    for (const auto &[Key, V] : R.Host)
      Log.HostLayer[Key].push_back(V);
  if (Counter) {
    Log.Events.push_back(Num(Counter->Events));
    Log.RemoteSteals.push_back(Num(Counter->RemoteSteals));
    Log.Imbalance.push_back(Counter->imbalance());
    Log.Blocks.push_back(Num(Counter->Blocks));
  }
  if (Recorder) {
    const trace::TraceRecorder &Rec = *Recorder;
    Log.Records.push_back(Num(
        Rec.blocks().size() + Rec.waits().size() + Rec.transfers().size() +
        Rec.faults().size() + Rec.descriptors().size() +
        Rec.mailboxEvents().size()));
    if (Opt.WriteChrome)
      writeChrome(Rec, Op, Spans, Opt, Log);
  }
}

/// Runs \p Ops operations of a fresh set-up under one observation mode
/// and \returns their digests (the in-process determinism gate).
std::vector<uint64_t> gateRun(Kind K, uint64_t Seed, const TenantPlan *Plan,
                              uint32_t Ops, Observe How, const Options &Opt) {
  Built B = setUp(K, Seed, Plan, 1);
  SpanLog Spans(Clock::now());
  RunLog Log;
  Options Quiet = Opt;
  Quiet.Corrupt = false;
  Quiet.WriteChrome = false;
  for (uint32_t Op = 0; Op != Ops; ++Op)
    runOne(*B.W, Op, How, Spans, Quiet, Log);
  return Log.Digests;
}

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

double meanOf(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0.0 : S / V.size();
}

struct JsonObject {
  std::string Body;
  void num(const std::string &Key, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", std::isfinite(V) ? V : 0.0);
    field(Key, Buf);
  }
  void str(const std::string &Key, const std::string &V) {
    field(Key, "\"" + V + "\"");
  }
  void field(const std::string &Key, const std::string &Raw) {
    if (!Body.empty())
      Body += ",";
    Body += "\"" + Key + "\":" + Raw;
  }
  std::string text() const { return "{" + Body + "}"; }
};

std::string hex(uint64_t V) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%016llx",
                static_cast<unsigned long long>(V));
  return Buf;
}

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "twoclock: %s\nusage: twoclock --workload "
               "fig2_frame|tenant_serve|dispatch_storm --seed N --seconds S "
               "--trace 0|1 --out-dir DIR [--corrupt-output]\n",
               Msg);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  bool HaveWork = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    auto Next = [&]() -> std::string {
      if (I + 1 >= Argc)
        usage(("missing value for " + A).c_str());
      return Argv[++I];
    };
    if (A == "--workload") {
      O.WorkName = Next();
      HaveWork = true;
      if (O.WorkName == "fig2_frame")
        O.Work = Kind::Fig2Frame;
      else if (O.WorkName == "tenant_serve")
        O.Work = Kind::TenantServe;
      else if (O.WorkName == "dispatch_storm")
        O.Work = Kind::DispatchStorm;
      else
        usage(("unknown workload " + O.WorkName).c_str());
    } else if (A == "--seed") {
      O.Seed = std::strtoull(Next().c_str(), nullptr, 0);
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(Next().c_str(), nullptr);
    } else if (A == "--trace") {
      O.Trace = Next() != "0";
    } else if (A == "--out-dir") {
      O.OutDir = Next();
    } else if (A == "--corrupt-output") {
      O.Corrupt = true;
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }
  if (!HaveWork || O.OutDir.empty())
    usage("--workload and --out-dir are required");
  if (O.Corrupt && O.Work != Kind::DispatchStorm)
    usage("--corrupt-output applies to dispatch_storm only");
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
#ifdef OMM_BENCH_SANITIZED
  std::fprintf(stderr, "twoclock: refusing to measure a sanitizer build\n");
  return 2;
#endif
  if (std::getenv("OMM_HOST_THREADS")) {
    std::fprintf(stderr, "twoclock: OMM_HOST_THREADS is set; the benchmark "
                         "measures the serial engine only\n");
    return 2;
  }
  Options Opt = parseArgs(Argc, Argv);
  std::filesystem::create_directories(Opt.OutDir);
  const Sizing Size = sizingFor(Opt.Work);
  // The held-out seed: inputs no tuning saw, derived from --seed.
  const uint64_t HeldOutSeed = mix64(Opt.Seed ^ 0x4E1D0075EEDull);

  std::unique_ptr<TenantPlan> Plan, HeldOutPlan;
  if (Opt.Work == Kind::TenantServe) {
    Plan = std::make_unique<TenantPlan>(planTenants(Opt.Seed));
    HeldOutPlan = std::make_unique<TenantPlan>(planTenants(HeldOutSeed));
  }

  // Set-up, several times; the last instance is measured.
  Built B = setUp(Opt.Work, Opt.Seed, Plan.get(), SetupRepeats);

  // The measured phase: a closed loop until the time is up and both the
  // simulated prefix and the host samples are complete.
  Clock::time_point Epoch = Clock::now();
  SpanLog Spans(Epoch);
  RunLog Log;
  Log.SimOps = Size.SimOps;
  const uint32_t MinOps = std::max(Size.SimOps, MinHostSamples + WarmupOps);
  for (uint32_t Op = 0;; ++Op) {
    if (Op >= MinOps && msBetween(Epoch, Clock::now()) >= Opt.Seconds * 1e3)
      break;
    runOne(*B.W, Op, observeFor(Op, Opt.Trace), Spans, Opt, Log);
  }
  const double PeakRss = peakRssMb();
  const uint32_t Ops = static_cast<uint32_t>(Log.HostMs.size());

  // Output checks, outside the timed region.
  Clock::time_point VerifyStart = Clock::now();
  std::vector<uint32_t> Failed = B.W->verify();
  Failed.insert(Failed.end(), Log.Failures.begin(), Log.Failures.end());
  std::sort(Failed.begin(), Failed.end());
  Failed.erase(std::unique(Failed.begin(), Failed.end()), Failed.end());
  B.W.reset();

  // Determinism gate, in process: the seed replayed under the opposite
  // observation, and the held-out seed plain against fully recorded.
  Clock::time_point GateStart = Clock::now();
  std::vector<std::string> GateFailures;
  {
    Observe Opposite = Opt.Trace ? Observe::Plain : Observe::Recorded;
    std::vector<uint64_t> Replay = gateRun(Opt.Work, Opt.Seed, Plan.get(),
                                           Size.GateOps, Opposite, Opt);
    // A self-test run tampered with op 0's output, so its digest differs
    // on purpose; compare from op 1 there.
    const uint32_t From = Opt.Corrupt ? 1 : 0;
    if (!std::equal(Replay.begin() + From, Replay.end(),
                    Log.Digests.begin() + From))
      GateFailures.push_back("seed replay under the opposite trace mode");
  }
  Digest HeldOut;
  {
    std::vector<uint64_t> Plain =
        gateRun(Opt.Work, HeldOutSeed, HeldOutPlan.get(), Size.GateOps,
                Observe::Plain, Opt);
    std::vector<uint64_t> Recorded =
        gateRun(Opt.Work, HeldOutSeed, HeldOutPlan.get(), Size.GateOps,
                Observe::Recorded, Opt);
    if (Plain != Recorded)
      GateFailures.push_back("held-out seed traced against untraced");
    for (uint64_t V : Plain)
      HeldOut.add(V);
  }
  std::fprintf(stderr,
               "twoclock: %s seed %llu: %u ops in %.1f s, check %.1f s, "
               "determinism gate %.1f s\n",
               Opt.WorkName.c_str(), static_cast<unsigned long long>(Opt.Seed),
               Ops, msBetween(Epoch, VerifyStart) / 1e3,
               msBetween(VerifyStart, GateStart) / 1e3,
               msBetween(GateStart, Clock::now()) / 1e3);

  // Host clock: plain ops after warm-up. The tracing overhead compares
  // recorded ops with the plain ops of the trace window.
  std::vector<double> PlainMs, WindowMs, RecordedMs;
  for (uint32_t Op = WarmupOps; Op != Ops; ++Op) {
    if (Log.Mode[Op] == Observe::Plain) {
      PlainMs.push_back(Log.HostMs[Op]);
      if (Op < TraceWindow)
        WindowMs.push_back(Log.HostMs[Op]);
    } else if (Log.Mode[Op] == Observe::Recorded) {
      RecordedMs.push_back(Log.HostMs[Op]);
    }
  }
  double PlainSumMs = 0;
  for (double V : PlainMs)
    PlainSumMs += V;
  const double HostP50 = median(PlainMs);

  // Simulated clock: the fixed prefix [0, SimOps).
  const double P50 = static_cast<double>(percentile(Log.SimSamples, 50));
  const double P99 = static_cast<double>(percentile(Log.SimSamples, 99));
  const double AdmittedFrac =
      1.0 - static_cast<double>(Log.Deferred) / Log.Requested;

  JsonObject E2E;
  E2E.num("sim_cycles_p50", P50);
  E2E.num("sim_cycles_p99", P99);
  E2E.num("setup_s", median(B.SetupMs) / 1000.0);
  E2E.num("peak_rss_mb", PeakRss);
  E2E.num("ok_frac", 1.0 - static_cast<double>(Failed.size()) / Ops);
  E2E.num("admitted_frac", AdmittedFrac);

  // Per-layer values. Simulated counts are means per op over the prefix;
  // observer counts are means over the observed ops.
  std::map<std::string, double> &Sum = Log.SimSum;
  auto SimMean = [&](const std::string &Key) {
    auto It = Sum.find(Key);
    return It == Sum.end() ? 0.0 : It->second / Size.SimOps;
  };
  auto Ratio = [](double Num, double Den) {
    return Den == 0 ? 0.0 : Num / Den;
  };
  std::vector<double> MachineMs, WorldMs, ServerMs;
  for (const SetupTimes &T : B.Times) {
    MachineMs.push_back(T.MachineMs);
    WorldMs.push_back(T.WorldMs);
    ServerMs.push_back(T.ServerMs);
  }
  const double EventsPerOp = meanOf(Log.Events);
  const bool Storm = Opt.Work == Kind::DispatchStorm;
  // Only dispatch_storm calls offload directly. Inside a frame or a tick
  // the offload calls run the game kernels too, so the dispatch layer's
  // host time is not isolated there and reads 0.
  const double JobQueueUs =
      Storm ? median(Log.HostLayer["offload.jobqueue_host_us"]) : 0.0;
  const double DataflowUs =
      Storm ? median(Log.HostLayer["offload.dataflow_host_us"]) : 0.0;
  const double Descriptors = SimMean("offload.descriptors");

  JsonObject Layer;
  // Host time per op swings with the load of other guests on the physical
  // host by more than any bound a comparison could use (README: Host-time
  // noise), so these are per-layer figures, compared by paired runs.
  Layer.num("host_ms_p50", HostP50);
  Layer.num("host_ms_p99", percentile(PlainMs, 99));
  Layer.num("ops_per_host_s", PlainMs.size() * 1000.0 / PlainSumMs);
  Layer.num("sim.machine_ctor_ms", median(MachineMs));
  for (const char *Key :
       {"sim.dma_transfers", "sim.dma_bytes", "sim.dma_stall_cycles",
        "sim.join_stall_cycles", "sim.compute_cycles"})
    Layer.num(Key, SimMean(Key));
  Layer.num("sim.useful_frac", Ratio(Sum["sim.accel_compute_cycles"],
                                     Sum["sim.accel_clock_advance"]));
  for (const char *Key :
       {"sim.doorbell_cycles", "sim.idle_poll_cycles", "sim.dma_retries"})
    Layer.num(Key, SimMean(Key));
  Layer.num("sim.events_per_op", EventsPerOp);
  Layer.num("sim.host_ns_per_event", Ratio(HostP50 * 1e6, EventsPerOp));
  Layer.num("offload.jobqueue_host_us", JobQueueUs);
  Layer.num("offload.dataflow_host_us", DataflowUs);
  Layer.num("offload.host_ns_per_descriptor",
            Ratio((JobQueueUs + DataflowUs) * 1000.0, Descriptors));
  Layer.num("offload.descriptors", Descriptors);
  // TenantServer does not return its dispatch stats; there a launch is an
  // observed block begin.
  Layer.num("offload.launches_saved",
            Opt.Work == Kind::TenantServe
                ? Descriptors - meanOf(Log.Blocks)
                : SimMean("offload.launches_saved"));
  Layer.num("offload.steals_attempted", SimMean("offload.steals_attempted"));
  Layer.num("offload.steals_succeeded", SimMean("offload.steals_succeeded"));
  Layer.num("offload.steal_success_frac",
            Ratio(Sum["offload.steals_succeeded"],
                  Sum["offload.steals_attempted"]));
  Layer.num("offload.steal_cycles", SimMean("offload.steal_cycles"));
  Layer.num("offload.steals_remote_domain", meanOf(Log.RemoteSteals));
  Layer.num("offload.imbalance", meanOf(Log.Imbalance));
  for (const char *Key : {"offload.parcels_spawned",
                          "offload.peer_doorbell_cycles",
                          "offload.host_chunks"})
    Layer.num(Key, SimMean(Key));
  Layer.num("game.world_ctor_ms", median(WorldMs));
  for (const char *Key :
       {"game.ai_cycles", "game.collision_cycles", "game.update_cycles",
        "game.render_cycles", "game.ai_descriptors", "game.ai_steals",
        "game.pairs_tested", "game.contacts"})
    Layer.num(Key, SimMean(Key));
  Layer.num("server.setup_ms", median(ServerMs));
  for (const char *Key :
       {"server.tick_cycles", "server.ledger_cycles", "server.ledger_error",
        "server.admitted_per_tick"})
    Layer.num(Key, SimMean(Key));
  Layer.num("server.tail_ratio",
            Opt.Work == Kind::TenantServe ? Ratio(P99, P50) : 0.0);
  Layer.num("trace.overhead_frac",
            RecordedMs.empty() ? 0.0
                               : median(RecordedMs) / median(WindowMs) - 1);
  Layer.num("trace.records_per_op", meanOf(Log.Records));
  Layer.num("trace.chrome_write_ms", median(Log.ChromeMs));
  Layer.num("trace.chrome_bytes", median(Log.ChromeBytes));
  Layer.num("trace.peak_rss_mb", Opt.Trace ? PeakRss : 0.0);

  // Every simulated-clock value the cross-run determinism gate compares.
  JsonObject Sim;
  Sim.num("sim_cycles_p50", P50);
  Sim.num("sim_cycles_p99", P99);
  Sim.num("admitted_frac", AdmittedFrac);
  for (const auto &[Key, V] : Sum)
    Sim.num(Key, V);
  Sim.str("prefix_digest", hex(Log.Prefix.H));
  Sim.str("heldout_digest", hex(HeldOut.H));
  // Observer counts exist in traced runs only; traced runs compare them.
  JsonObject Observed;
  if (Opt.Trace) {
    Observed.num("events", meanOf(Log.Events));
    Observed.num("blocks", meanOf(Log.Blocks));
    Observed.num("remote_steals", meanOf(Log.RemoteSteals));
    Observed.num("imbalance", meanOf(Log.Imbalance));
    Observed.num("records", meanOf(Log.Records));
    Observed.num("chrome_bytes", meanOf(Log.ChromeBytes));
  }

  JsonObject Meta;
  Meta.num("nproc", static_cast<double>(sysconf(_SC_NPROCESSORS_ONLN)));
  Meta.str("compiler", OMM_BENCH_COMPILER);
  Meta.str("build_type", OMM_BENCH_BUILD_TYPE);
  Meta.num("seed", static_cast<double>(Opt.Seed));
  Meta.str("heldout_seed", hex(HeldOutSeed));
  Meta.num("ops", Ops);
  Meta.num("sim_ops", Size.SimOps);
  Meta.num("sim_samples", static_cast<double>(Log.SimSamples.size()));
  Meta.num("host_samples", static_cast<double>(PlainMs.size()));
  Meta.num("recorded_ops", static_cast<double>(RecordedMs.size()));
  Meta.num("setup_repeats", SetupRepeats);
  if (Plan)
    Meta.num("tick_budget_cycles", static_cast<double>(Plan->TickBudgetCycles));

  std::string GateText = "[";
  for (size_t I = 0; I != GateFailures.size(); ++I)
    GateText += (I ? ",\"" : "\"") + GateFailures[I] + "\"";
  GateText += "]";

  if (Opt.Trace &&
      !Spans.write(Opt.OutDir + "/" + Opt.WorkName + ".spans.json")) {
    std::fprintf(stderr, "twoclock: could not write the span log\n");
    return 2;
  }

  JsonObject Out;
  Out.str("workload", Opt.WorkName);
  Out.num("attempted", Ops);
  Out.num("failed", static_cast<double>(Failed.size()));
  Out.field("gate_failures", GateText);
  Out.field("end_to_end", E2E.text());
  Out.field("per_layer", Layer.text());
  Out.field("sim", Sim.text());
  Out.field("sim_observed", Observed.text());
  Out.field("meta", Meta.text());
  std::printf("%s\n", Out.text().c_str());
  return Failed.empty() && GateFailures.empty() ? 0 : 1;
}
