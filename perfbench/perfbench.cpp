//===- perfbench/perfbench.cpp - End-to-end simulator benchmark ---------===//
//
// Part of the WARDen reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Drives the simulator from outside, through its public calls only:
/// pbbs::Benchmark::Record (phase 1), WardenSystem::simulate (phase 2),
/// evlogSummarize (reading event logs back) and, in the traced run,
/// PrivateCache and CoherenceController directly. One process, one
/// simulation thread: the simulator's own --jobs/JobPool path is left out so
/// the numbers measure the program rather than a scheduler.
///
/// A *pass* is one complete workload run under one scheduler seed: record
/// all fourteen kernels at their DefaultScale, simulate every (kernel,
/// protocol), check every result. Pass 0 always uses the default scheduler
/// seed (0x5eed) and is checked against the pinned digests; later passes use
/// seeds drawn from --seed until --seconds have elapsed. Timings are medians
/// over passes. See README.md for the metric definitions.
///
//===----------------------------------------------------------------------===//

#include "src/coherence/CoherenceController.h"
#include "src/coherence/PrivateCache.h"
#include "src/core/WardenSystem.h"
#include "src/obs/CpiStack.h"
#include "src/obs/EventLog.h"
#include "src/obs/EvlogStat.h"
#include "src/obs/MetricRegistry.h"
#include "src/obs/Observability.h"
#include "src/obs/SharingProfiler.h"
#include "src/obs/TimelineSampler.h"
#include "src/pbbs/Pbbs.h"
#include "src/support/Rng.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

using namespace warden;

namespace {

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t DefaultSeed = RunOptions().Seed;

double secondsSince(Clock::time_point T0, Clock::time_point T1) {
  return std::chrono::duration<double>(T1 - T0).count();
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  std::size_t N = V.size();
  return N % 2 ? V[N / 2] : 0.5 * (V[N / 2 - 1] + V[N / 2]);
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span recorder. Every timing the benchmark reports comes from a
/// span() call, traced or not; with tracing on, each call also keeps a
/// (name, start, end, parent) record, written out once at the end.
class Tracer {
public:
  explicit Tracer(bool On) : On(On), Origin(Clock::now()) {}

  /// Runs \p Fn(SpanId) inside a span named \p Name under \p Parent (-1 for
  /// a root) and returns its host seconds. SpanId is -1 when tracing is off.
  template <typename FnT>
  double span(std::string Name, int Parent, FnT &&Fn) {
    int Id = -1;
    Clock::time_point T0 = Clock::now();
    if (On) {
      Id = static_cast<int>(Spans.size());
      Spans.push_back({std::move(Name), secondsSince(Origin, T0), 0.0, Parent});
    }
    Fn(Id);
    Clock::time_point T1 = Clock::now();
    if (On)
      Spans[Id].End = secondsSince(Origin, T1);
    return secondsSince(T0, T1);
  }

  /// Writes every span as a JSON array; false on I/O failure.
  bool write(const std::string &Path) const {
    std::ofstream Out(Path);
    Out << "[\n";
    for (std::size_t I = 0; I < Spans.size(); ++I) {
      const SpanRec &S = Spans[I];
      char Buf[96];
      std::snprintf(Buf, sizeof(Buf),
                    "\", \"start\": %.9f, \"end\": %.9f, \"parent\": %d}",
                    S.Start, S.End, S.Parent);
      Out << "  {\"id\": " << I << ", \"name\": \"" << S.Name << Buf
          << (I + 1 < Spans.size() ? ",\n" : "\n");
    }
    Out << "]\n";
    return static_cast<bool>(Out);
  }

private:
  struct SpanRec {
    std::string Name;
    double Start;
    double End;
    int Parent;
  };
  bool On;
  Clock::time_point Origin;
  std::vector<SpanRec> Spans;
};

//===----------------------------------------------------------------------===//
// Workloads and pins
//===----------------------------------------------------------------------===//

struct Workload {
  const char *Name;
  /// Machine label used in the pins file.
  const char *Machine;
  MachineConfig (*MakeMachine)();
  std::vector<ProtocolKind> Protocols;
  /// Attach the full observability bundle to every simulation.
  bool Observed;
};

MachineConfig singleSocketMachine() { return MachineConfig::singleSocket(); }
MachineConfig twoNodeMachine() { return MachineConfig::multiNode(2); }

const std::vector<Workload> &workloads() {
  static const std::vector<Workload> All = {
      {"pbbs-engine", "single-socket", &singleSocketMachine,
       {ProtocolKind::Mesi, ProtocolKind::Warden}, false},
      {"pbbs-observed", "single-socket", &singleSocketMachine,
       {ProtocolKind::Mesi, ProtocolKind::Warden}, true},
      {"multinode-sync", "multi-node-2", &twoNodeMachine,
       {ProtocolKind::Mesi, ProtocolKind::Warden, ProtocolKind::Sisd,
        ProtocolKind::Racoh},
       false},
  };
  return All;
}

/// FNV-1a over 64-bit words: the digest of every simulated statistic.
class Digest {
public:
  Digest &add(std::uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 0x100000001b3ULL;
    }
    return *this;
  }
  Digest &add(double V) {
    std::uint64_t Bits = 0;
    std::memcpy(&Bits, &V, sizeof(Bits));
    return add(Bits);
  }
  std::uint64_t value() const { return H; }

private:
  std::uint64_t H = 0xcbf29ce484222325ULL;
};

/// Digest of makespan, instructions, CoherenceStats, SchedulerStats and
/// energy: the quantities the figure harnesses' baseline identity guards.
/// Fields are listed by name so that a counter added later does not change
/// the digest of an unchanged model.
std::uint64_t resultDigest(const RunResult &R) {
  const CoherenceStats &C = R.Coherence;
  const SchedulerStats &S = R.Sched;
  const EnergyBreakdown &E = R.Energy;
  Digest D;
  D.add(R.Makespan).add(R.Instructions).add(std::uint64_t(R.PeakRegions));
  D.add(C.Loads).add(C.Stores).add(C.Rmws).add(C.L1Hits).add(C.L2Hits);
  D.add(C.LlcServes).add(C.CacheToCache).add(C.DramAccesses);
  D.add(C.DramWritebacks).add(C.L1Accesses).add(C.L2Accesses);
  D.add(C.L3Accesses).add(C.Invalidations).add(C.Downgrades);
  D.add(C.MsgsIntraSocket).add(C.MsgsInterSocket).add(C.MsgsRemote);
  D.add(C.DataIntraSocket).add(C.DataInterSocket).add(C.DataRemote);
  D.add(C.MsgsInterNode).add(C.DataInterNode).add(C.Evictions);
  D.add(C.Writebacks).add(C.WardRegionAccesses).add(C.WardGrants);
  D.add(C.RegionsAdded).add(C.RegionsRemoved).add(C.RegionOverflows);
  D.add(C.RegionFallbacks).add(C.ReconciledBlocks);
  D.add(C.ReconcileWritebacks).add(C.SingleHolderReconciles);
  D.add(C.FalseSharingReconciles).add(C.TrueSharingReconciles);
  D.add(C.RejectedAccesses).add(C.InjectedEvictions).add(C.ForcedReconciles);
  D.add(C.LogRecordsPublished).add(C.LogRecordsConsumed).add(C.LogPublishes);
  D.add(C.LogBackpressureStalls).add(C.LogInvalidations);
  D.add(C.PreInvalidateAvoided).add(C.CrossNodeHops);
  D.add(C.LogQueuePeakOccupancy);
  D.add(S.StrandsExecuted).add(S.Steals).add(S.FailedSteals);
  D.add(S.Instructions).add(S.StealProbes).add(S.StoreStallCycles);
  D.add(S.RegionInstrCycles).add(S.SyncCycles);
  D.add(E.CoreDynamicNJ).add(E.CacheDynamicNJ).add(E.StaticNJ);
  D.add(E.InterconnectNJ).add(E.DramNJ);
  return D.value();
}

/// Pinned digests keyed "machine kernel protocol".
using Pins = std::map<std::string, std::uint64_t>;

std::string pinKey(const char *Machine, const char *Kernel,
                   ProtocolKind Protocol) {
  return std::string(Machine) + " " + Kernel + " " + protocolId(Protocol);
}

bool readPins(const std::string &Path, Pins &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string Machine, Kernel, Protocol, Hex;
    if (!(Fields >> Machine >> Kernel >> Protocol >> Hex))
      return false;
    Out[Machine + " " + Kernel + " " + Protocol] =
        std::strtoull(Hex.c_str(), nullptr, 16);
  }
  return true;
}

//===----------------------------------------------------------------------===//
// One pass
//===----------------------------------------------------------------------===//

struct Options {
  const Workload *W = nullptr;
  std::uint64_t Seed = 0;
  double Seconds = 0;
  bool Trace = false;
  std::string PinsPath;
  std::string OutDir;
  std::vector<const pbbs::Benchmark *> Kernels;
};

/// Everything one pass measured.
struct Pass {
  double WallS = 0;
  double SetupS = 0;
  /// Phase-2 host seconds: the workload's own simulations (observed
  /// simulations on pbbs-observed; detached reference runs excluded).
  double SimS = 0;
  double EvlogReadS = 0;
  std::uint64_t Accesses = 0;
  std::uint64_t Events = 0;
  std::uint64_t EvlogBytes = 0;
  std::uint64_t EvlogRecords = 0;
  std::uint64_t DroppedEvents = 0;
  unsigned Attempted = 0;
  unsigned Failed = 0;
  /// Runs[kernel][protocol], in workload protocol order.
  std::vector<std::vector<RunResult>> Runs;
  std::vector<pbbs::Recorded> Recorded;
};

/// The full observability bundle the pbbs-observed workload attaches.
struct Sinks {
  SharingProfiler Profiler;
  CpiStack Cpi;
  MetricRegistry Metrics;
  TimelineSampler Sampler;
  EventLog Log;
  Observability Obs;
};

/// Counts one operation and, if it broke any check, reports it as failed.
void finishOperation(Pass &P, const char *Kernel, ProtocolKind Protocol,
                     std::uint64_t Seed,
                     const std::vector<std::string> &Problems) {
  ++P.Attempted;
  if (Problems.empty())
    return;
  ++P.Failed;
  std::string Why;
  for (const std::string &Problem : Problems)
    Why += (Why.empty() ? "" : "; ") + Problem;
  std::fprintf(stderr, "FAILED %s %s seed=0x%" PRIx64 ": %s\n", Kernel,
               protocolId(Protocol), Seed, Why.c_str());
}

void checkPin(const Pins &P, const std::string &Key, const RunResult &R,
              std::vector<std::string> &Problems) {
  auto It = P.find(Key);
  std::uint64_t Got = resultDigest(R);
  if (It == P.end()) {
    Problems.push_back("no pinned digest");
  } else if (It->second != Got) {
    char Buf[80];
    std::snprintf(Buf, sizeof(Buf),
                  "digest %016" PRIx64 " != pinned %016" PRIx64, Got,
                  It->second);
    Problems.push_back(Buf);
  }
}

/// Checks an evlog read back with evlogSummarize against the run's stats.
void checkEvlog(const EvlogSummary &S, const RunResult &R,
                std::vector<std::string> &Problems) {
  auto Expect = [&](const char *What, std::uint64_t Log, std::uint64_t Run) {
    if (Log != Run)
      Problems.push_back(std::string("evlog ") + What + " " +
                         std::to_string(Log) + " != run " +
                         std::to_string(Run));
  };
  Expect("invalidations", S.invalidations(), R.Coherence.Invalidations);
  Expect("downgrades", S.downgrades(), R.Coherence.Downgrades);
  Expect("misses", S.misses(), R.Coherence.L3Accesses);
  Expect("steals", S.ByKind[static_cast<unsigned>(EvKind::Steal)],
         R.Sched.Steals);
}

Pass runPass(const Options &O, const Pins &P, std::uint64_t Seed,
             Tracer &T, bool KeepGraphs) {
  const Workload &W = *O.W;
  Pass Out;
  Out.WallS = T.span("pass", -1, [&](int PassSpan) {
    Out.Recorded.resize(O.Kernels.size());
    Out.SetupS = T.span("record", PassSpan, [&](int RecSpan) {
      for (std::size_t K = 0; K < O.Kernels.size(); ++K) {
        const pbbs::Benchmark &B = *O.Kernels[K];
        T.span(std::string("record/") + B.Name, RecSpan, [&](int) {
          Out.Recorded[K] = B.Record(B.DefaultScale, RtOptions());
        });
        Out.Events += Out.Recorded[K].Graph.totalEvents();
      }
    });

    Out.Runs.resize(O.Kernels.size());
    T.span("simulate", PassSpan, [&](int SimSpan) {
      for (std::size_t K = 0; K < O.Kernels.size(); ++K) {
        const pbbs::Benchmark &B = *O.Kernels[K];
        const pbbs::Recorded &Rec = Out.Recorded[K];
        for (ProtocolKind Protocol : W.Protocols) {
          MachineConfig Config = W.MakeMachine();
          Config.Protocol = Protocol;
          RunOptions Run;
          Run.Seed = Seed;
          std::unique_ptr<Sinks> S;
          if (W.Observed) {
            S = std::make_unique<Sinks>();
            S->Log.configure(O.OutDir + "/" + B.Name);
            S->Log.setRunLabel(B.Name);
            S->Obs.Profiler = &S->Profiler;
            S->Obs.Cpi = &S->Cpi;
            S->Obs.Metrics = &S->Metrics;
            S->Obs.Sampler = &S->Sampler;
            S->Obs.Log = &S->Log;
            Run.Obs = &S->Obs;
          }
          std::string Id =
              std::string(B.Name) + "/" + protocolId(Protocol);
          RunResult R;
          Out.SimS += T.span("simulate/" + Id, SimSpan, [&](int) {
            R = WardenSystem::simulate(Rec.Graph, Config, Run);
          });
          Out.Accesses += R.Coherence.accesses();

          std::vector<std::string> Problems;
          if (!Rec.Verified)
            Problems.push_back("kernel self-check failed");
          if (Seed == DefaultSeed)
            checkPin(P, pinKey(W.Machine, B.Name, Protocol), R, Problems);
          if (W.Observed) {
            T.span("check/" + Id, SimSpan, [&](int CheckSpan) {
              RunResult Detached;
              T.span("detached/" + Id, CheckSpan, [&](int) {
                Detached = WardenSystem::simulate(Rec.Graph, Config, Seed);
              });
              if (resultDigest(Detached) != resultDigest(R))
                Problems.push_back(
                    "observed run differs from detached run (makespan " +
                    std::to_string(R.Makespan) + " vs " +
                    std::to_string(Detached.Makespan) + ")");
              const std::string &Path = S->Log.lastPath();
              if (Path.empty() || !S->Log.error().empty()) {
                Problems.push_back("evlog not written: " + S->Log.error());
                return;
              }
              EvlogSummary Sum;
              std::string Error;
              bool Ok = false;
              Out.EvlogReadS += T.span("evlog-read/" + Id, CheckSpan, [&](int) {
                Ok = evlogSummarize(Path, Sum, Error);
              });
              std::error_code Ec;
              Out.EvlogBytes += std::filesystem::file_size(Path, Ec);
              std::filesystem::remove(Path, Ec);
              if (!Ok) {
                Problems.push_back("evlogSummarize: " + Error);
                return;
              }
              Out.EvlogRecords += Sum.Records;
              checkEvlog(Sum, R, Problems);
            });
            Out.DroppedEvents += R.Profile.DroppedEvents;
          }
          finishOperation(Out, B.Name, Protocol, Seed, Problems);
          Out.Runs[K].push_back(std::move(R));
        }
      }
    });
  });
  if (!KeepGraphs)
    Out.Recorded.clear();
  return Out;
}

//===----------------------------------------------------------------------===//
// Traced layer experiments
//===----------------------------------------------------------------------===//

/// Calls \p Fn(Core, Event) for every event of \p G in strand order,
/// assigning cores round-robin, with \p OnStrand(Core, Begin) around each
/// strand.
template <typename StrandFnT, typename EventFnT>
void walkGraph(const TaskGraph &G, unsigned Cores, StrandFnT &&OnStrand,
               EventFnT &&Fn) {
  for (std::size_t S = 0; S < G.size(); ++S) {
    CoreId Core = static_cast<CoreId>(S % Cores);
    OnStrand(Core, true);
    for (const TraceEvent &E : G.strand(static_cast<StrandId>(S)).Events)
      Fn(Core, E);
    OnStrand(Core, false);
  }
}

bool isAccess(const TraceEvent &E) {
  return E.Op == TraceOp::Load || E.Op == TraceOp::Store ||
         E.Op == TraceOp::Rmw;
}

AccessType accessType(const TraceEvent &E) {
  return E.Op == TraceOp::Load    ? AccessType::Load
         : E.Op == TraceOp::Store ? AccessType::Store
                                  : AccessType::Rmw;
}

struct MemLayer {
  std::uint64_t Probes = 0;
  std::uint64_t L1Hits = 0;
  double Seconds = 0;
};

/// Feeds each graph's address stream to per-core PrivateCaches with the
/// machine's L1/L2 geometry: probe, and fill on a miss.
MemLayer measureMem(const Pass &P, const MachineConfig &M, Tracer &T,
                    int Parent, const std::vector<const pbbs::Benchmark *> &Ks) {
  MemLayer Out;
  CacheGeometry L1(static_cast<std::uint64_t>(M.L1SizeKB) * 1024, M.L1Assoc,
                   M.BlockSize);
  CacheGeometry L2(static_cast<std::uint64_t>(M.L2SizeKB) * 1024, M.L2Assoc,
                   M.BlockSize);
  for (std::size_t K = 0; K < P.Recorded.size(); ++K) {
    std::vector<PrivateCache> Caches;
    Caches.reserve(M.totalCores());
    for (unsigned C = 0; C < M.totalCores(); ++C)
      Caches.emplace_back(L1, L2, M.Replacement);
    Out.Seconds += T.span(std::string("mem/") + Ks[K]->Name, Parent, [&](int) {
      walkGraph(
          P.Recorded[K].Graph, M.totalCores(), [](CoreId, bool) {},
          [&](CoreId Core, const TraceEvent &E) {
            if (!isAccess(E) || E.Size == 0)
              return;
            Addr First = L1.blockAddr(E.Address);
            Addr Last = L1.blockAddr(E.Address + E.Size - 1);
            for (Addr B = First; B <= Last; B += M.BlockSize) {
              ++Out.Probes;
              unsigned Level = Caches[Core].hitLevel(B);
              Out.L1Hits += Level == 1;
              if (Level == 0)
                Caches[Core].fill(B, E.Op == TraceOp::Load
                                         ? LineState::Shared
                                         : LineState::Modified);
            }
          });
    });
  }
  return Out;
}

struct CoherenceLayer {
  std::uint64_t Accesses = 0, Syncs = 0, RegionOps = 0;
  double AccessS = 0, SyncS = 0, RegionS = 0;
};

/// Feeds the same stream to a CoherenceController per (kernel, protocol):
/// access() for demand accesses, addRegion/removeRegion for WARD marks,
/// syncAcquire/syncRelease at strand boundaries.
CoherenceLayer measureCoherence(const Pass &P, const Workload &W, Tracer &T,
                                int Parent,
                                const std::vector<const pbbs::Benchmark *> &Ks) {
  CoherenceLayer Out;
  for (std::size_t K = 0; K < P.Recorded.size(); ++K) {
    for (ProtocolKind Protocol : W.Protocols) {
      MachineConfig M = W.MakeMachine();
      M.Protocol = Protocol;
      CoherenceController C(M);
      const TaskGraph &G = P.Recorded[K].Graph;
      double Region = 0, Sync = 0;
      double Total = T.span(std::string("coherence/") + Ks[K]->Name + "/" +
                                protocolId(Protocol),
                            Parent, [&](int) {
        walkGraph(
            G, M.totalCores(),
            [&](CoreId Core, bool Begin) {
              Clock::time_point T0 = Clock::now();
              if (Begin)
                C.syncAcquire(Core);
              else
                C.syncRelease(Core);
              Clock::time_point T1 = Clock::now();
              Sync += secondsSince(T0, T1);
              ++Out.Syncs;
            },
            [&](CoreId Core, const TraceEvent &E) {
              if (isAccess(E)) {
                C.access(Core, E.Address, E.Size, accessType(E));
                ++Out.Accesses;
              } else if (E.Op == TraceOp::MarkRegion ||
                         E.Op == TraceOp::UnmarkRegion) {
                Clock::time_point T0 = Clock::now();
                if (E.Op == TraceOp::MarkRegion)
                  C.addRegion(E.Region, E.Address, E.Extra);
                else
                  C.removeRegion(E.Region, Core);
                Region += secondsSince(T0, Clock::now());
                ++Out.RegionOps;
              }
            });
      });
      Out.SyncS += Sync;
      Out.RegionS += Region;
      Out.AccessS += Total - Sync - Region;
    }
  }
  return Out;
}

struct ObsLayer {
  double DetachedS = 0;
  std::map<std::string, double> AloneS; ///< Sink name -> seconds alone.
};

/// One simulation per (kernel, protocol) detached, then one per sink with
/// only that sink attached, at the default seed. Every run is checked
/// against its pin, so each is also an attached-vs-detached identity check.
ObsLayer measureObs(const Options &O, const Pins &Pn, Pass &P, Tracer &T,
                    int Parent) {
  const Workload &W = *O.W;
  ObsLayer Out;
  const char *SinkNames[] = {"detached", "profiler", "cpi", "metrics",
                             "sampler", "evlog"};
  for (const char *Sink : SinkNames) {
    double Total = 0;
    for (std::size_t K = 0; K < P.Recorded.size(); ++K) {
      const char *Kernel = O.Kernels[K]->Name;
      for (ProtocolKind Protocol : W.Protocols) {
        MachineConfig M = W.MakeMachine();
        M.Protocol = Protocol;
        Sinks S;
        std::string Name(Sink);
        if (Name == "profiler")
          S.Obs.Profiler = &S.Profiler;
        else if (Name == "cpi")
          S.Obs.Cpi = &S.Cpi;
        else if (Name == "metrics")
          S.Obs.Metrics = &S.Metrics;
        else if (Name == "sampler")
          S.Obs.Sampler = &S.Sampler;
        else if (Name == "evlog") {
          S.Log.configure(O.OutDir + "/" + Kernel);
          S.Obs.Log = &S.Log;
        }
        RunOptions Run;
        if (Name != "detached")
          Run.Obs = &S.Obs;
        RunResult R;
        Total += T.span("obs/" + Name + "/" + Kernel + "/" +
                            protocolId(Protocol),
                        Parent, [&](int) {
                          R = WardenSystem::simulate(
                              P.Recorded[K].Graph, M, Run);
                        });
        if (!S.Log.lastPath().empty()) {
          std::error_code Ec;
          std::filesystem::remove(S.Log.lastPath(), Ec);
        }
        std::vector<std::string> Problems;
        checkPin(Pn, pinKey(W.Machine, Kernel, Protocol), R, Problems);
        if (!Problems.empty())
          Problems.front() = "with " + Name + " only: " + Problems.front();
        finishOperation(P, Kernel, Protocol, DefaultSeed, Problems);
      }
    }
    if (std::string(Sink) == "detached")
      Out.DetachedS = Total;
    else
      Out.AloneS[Sink] = Total;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

class Report {
public:
  void add(const std::string &Name, double Value, const char *Unit) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", Value);
    Items.push_back("\"" + Name + "\": {\"value\": " + Buf +
                    ", \"unit\": \"" + Unit + "\"}");
  }
  void count(const std::string &Name, std::uint64_t Value) {
    Items.push_back("\"" + Name + "\": {\"value\": " + std::to_string(Value) +
                    ", \"unit\": \"count\"}");
  }
  void print(bool Correct, unsigned Attempted, unsigned Failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %u, \"failed\": %u, "
                "\"metrics\": {",
                Correct ? "true" : "false", Attempted, Failed);
    for (std::size_t I = 0; I < Items.size(); ++I)
      std::printf("%s%s", I ? ", " : "", Items[I].c_str());
    std::printf("}}\n");
  }

private:
  std::vector<std::string> Items;
};

double ratio(double Num, double Den) { return Den == 0 ? 0.0 : Num / Den; }

double peakRssMiB() {
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB.
}

/// Simulated results of the default-seed pass: mean over kernels of the
/// MESI/WARDen makespan ratio and of WARDen's interconnect-energy savings.
void addSimulated(Report &Rep, const Pass &P, const Workload &W) {
  auto Index = [&](ProtocolKind K) {
    return static_cast<std::size_t>(
        std::find(W.Protocols.begin(), W.Protocols.end(), K) -
        W.Protocols.begin());
  };
  std::size_t Mesi = Index(ProtocolKind::Mesi);
  std::size_t Warden = Index(ProtocolKind::Warden);
  double Speedup = 0, Savings = 0;
  for (const std::vector<RunResult> &Runs : P.Runs) {
    Speedup += ratio(static_cast<double>(Runs[Mesi].Makespan),
                     static_cast<double>(Runs[Warden].Makespan));
    Savings += 1.0 - ratio(Runs[Warden].Energy.interconnectNJ(),
                           Runs[Mesi].Energy.interconnectNJ());
  }
  double N = static_cast<double>(P.Runs.size());
  Rep.add("warden_speedup_mean", Speedup / N, "x");
  Rep.add("warden_interconnect_savings_mean", 100.0 * Savings / N, "%");
}

void addCounts(Report &Rep, const Pass &P) {
  CoherenceStats C;
  SchedulerStats S;
  std::uint64_t Msgs = 0;
  for (const std::vector<RunResult> &Runs : P.Runs)
    for (const RunResult &R : Runs) {
      const CoherenceStats &X = R.Coherence;
      C.Loads += X.Loads;
      C.Stores += X.Stores;
      C.Rmws += X.Rmws;
      C.L1Hits += X.L1Hits;
      C.L2Hits += X.L2Hits;
      C.LlcServes += X.LlcServes;
      C.CacheToCache += X.CacheToCache;
      C.DramAccesses += X.DramAccesses;
      C.Invalidations += X.Invalidations;
      C.Downgrades += X.Downgrades;
      C.WardGrants += X.WardGrants;
      C.ReconciledBlocks += X.ReconciledBlocks;
      Msgs += X.totalMsgs();
      C.LogRecordsConsumed += X.LogRecordsConsumed;
      C.LogInvalidations += X.LogInvalidations;
      C.PreInvalidateAvoided += X.PreInvalidateAvoided;
      C.CrossNodeHops += X.CrossNodeHops;
      S.StrandsExecuted += R.Sched.StrandsExecuted;
      S.Steals += R.Sched.Steals;
      S.FailedSteals += R.Sched.FailedSteals;
      S.StoreStallCycles += R.Sched.StoreStallCycles;
      S.SyncCycles += R.Sched.SyncCycles;
    }
  double Acc = static_cast<double>(C.accesses());
  Rep.count("sched.strands", S.StrandsExecuted);
  Rep.count("sched.steals", S.Steals);
  Rep.count("sched.failed_steals", S.FailedSteals);
  Rep.add("sched.steal_hit_ratio",
          ratio(static_cast<double>(S.Steals),
                static_cast<double>(S.Steals + S.FailedSteals)),
          "ratio");
  Rep.add("sched.store_stall_cycles", static_cast<double>(S.StoreStallCycles),
          "cycles");
  Rep.add("sched.sync_cycles", static_cast<double>(S.SyncCycles), "cycles");
  Rep.count("coherence.accesses", C.accesses());
  Rep.add("coherence.l1_hit_ratio", ratio(static_cast<double>(C.L1Hits), Acc),
          "ratio");
  Rep.add("coherence.l2_hit_ratio", ratio(static_cast<double>(C.L2Hits), Acc),
          "ratio");
  Rep.count("coherence.llc_serves", C.LlcServes);
  Rep.count("coherence.cache_to_cache", C.CacheToCache);
  Rep.count("coherence.dram_accesses", C.DramAccesses);
  Rep.count("coherence.invalidations", C.Invalidations);
  Rep.count("coherence.downgrades", C.Downgrades);
  Rep.count("coherence.ward_grants", C.WardGrants);
  Rep.count("coherence.reconciled_blocks", C.ReconciledBlocks);
  Rep.count("coherence.msgs_total", Msgs);
  Rep.count("coherence.log_records_consumed", C.LogRecordsConsumed);
  Rep.count("coherence.log_invalidations", C.LogInvalidations);
  Rep.add("coherence.preinvalidate_avoid_rate",
          C.preInvalidateAvoidanceRate(), "ratio");
  Rep.count("coherence.cross_node_hops", C.CrossNodeHops);
}

//===----------------------------------------------------------------------===//
// Command line
//===----------------------------------------------------------------------===//

[[noreturn]] void usage(const char *Argv0, const std::string &Why) {
  std::fprintf(stderr,
               "%s: %s\nusage: %s --workload NAME --seed N --seconds S "
               "--trace 0|1 --pins FILE --out DIR [--only K1,K2,...]\n"
               "       %s --write-pins FILE [--only K1,K2,...]\n"
               "workloads:",
               Argv0, Why.c_str(), Argv0, Argv0);
  for (const Workload &W : workloads())
    std::fprintf(stderr, " %s", W.Name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::vector<const pbbs::Benchmark *> selectKernels(const char *Argv0,
                                                   const std::string &Only) {
  std::vector<const pbbs::Benchmark *> Out;
  if (Only.empty()) {
    for (const pbbs::Benchmark &B : pbbs::allBenchmarks())
      Out.push_back(&B);
    return Out;
  }
  std::stringstream List(Only);
  std::string Name;
  while (std::getline(List, Name, ','))
    if (const pbbs::Benchmark *B = pbbs::find(Name))
      Out.push_back(B);
    else
      usage(Argv0, "unknown kernel '" + Name + "'");
  return Out;
}

/// Records the selected kernels and writes the digest of every
/// (machine, kernel, protocol) simulation at the default seed.
int writePins(const std::string &Path,
              const std::vector<const pbbs::Benchmark *> &Kernels) {
  std::map<std::string, std::string> Lines; // Sorted, so the file is stable.
  for (const pbbs::Benchmark *B : Kernels) {
    pbbs::Recorded Rec = B->Record(B->DefaultScale, RtOptions());
    if (!Rec.Verified) {
      std::fprintf(stderr, "%s failed its self-check\n", B->Name);
      return 1;
    }
    for (const Workload &W : workloads())
      for (ProtocolKind Protocol : W.Protocols) {
        MachineConfig M = W.MakeMachine();
        M.Protocol = Protocol;
        RunResult R = WardenSystem::simulate(Rec.Graph, M, DefaultSeed);
        char Buf[32];
        std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, resultDigest(R));
        Lines[pinKey(W.Machine, B->Name, Protocol)] = Buf;
      }
  }
  std::ofstream Out(Path);
  Out << "# Digest of every simulated statistic (see resultDigest in\n"
         "# perfbench.cpp) at the default scheduler seed 0x5eed, lru\n"
         "# replacement, each kernel at its DefaultScale.\n"
         "# machine kernel protocol digest\n";
  for (const auto &[Key, Hex] : Lines)
    Out << Key << " " << Hex << "\n";
  return Out ? 0 : 1;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  std::string WorkloadName, Only, WritePinsPath;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (I + 1 >= argc)
      usage(argv[0], "missing value for " + Arg);
    std::string Val = argv[++I];
    char *End = nullptr;
    if (Arg == "--workload") {
      WorkloadName = Val;
    } else if (Arg == "--seed") {
      O.Seed = std::strtoull(Val.c_str(), &End, 0);
      HaveSeed = End && *End == '\0' && !Val.empty();
    } else if (Arg == "--seconds") {
      O.Seconds = std::strtod(Val.c_str(), &End);
      HaveSeconds = End && *End == '\0' && O.Seconds > 0;
    } else if (Arg == "--trace") {
      if (Val != "0" && Val != "1")
        usage(argv[0], "--trace wants 0 or 1");
      O.Trace = Val == "1";
      HaveTrace = true;
    } else if (Arg == "--pins") {
      O.PinsPath = Val;
    } else if (Arg == "--out") {
      O.OutDir = Val;
    } else if (Arg == "--only") {
      Only = Val;
    } else if (Arg == "--write-pins") {
      WritePinsPath = Val;
    } else {
      usage(argv[0], "unknown argument " + Arg);
    }
  }
  O.Kernels = selectKernels(argv[0], Only);
  if (!WritePinsPath.empty())
    return writePins(WritePinsPath, O.Kernels);

  for (const Workload &W : workloads())
    if (WorkloadName == W.Name)
      O.W = &W;
  if (!O.W)
    usage(argv[0], "unknown or missing --workload '" + WorkloadName + "'");
  if (!HaveSeed || !HaveSeconds || !HaveTrace || O.PinsPath.empty() ||
      O.OutDir.empty())
    usage(argv[0], "--seed, --seconds, --trace, --pins and --out are required");
  Pins P;
  if (!readPins(O.PinsPath, P)) {
    std::fprintf(stderr, "%s: cannot read pins file %s\n", argv[0],
                 O.PinsPath.c_str());
    return 1;
  }
  std::error_code Ec;
  std::filesystem::create_directories(O.OutDir, Ec);
  if (Ec) {
    std::fprintf(stderr, "%s: cannot create %s: %s\n", argv[0],
                 O.OutDir.c_str(), Ec.message().c_str());
    return 1;
  }

  // Pass 0 runs the default seed (pins, simulated metrics, counts); the
  // rest draw seeds from --seed while another pass fits in the time budget.
  // A traced run alternates untraced and traced passes over the same seeds
  // so their wall-time difference is the tracing overhead.
  Rng Seeds(O.Seed);
  Tracer Off(false), On(true);
  Clock::time_point Start = Clock::now();
  std::vector<Pass> Passes, Traced;
  unsigned Attempted = 0, Failed = 0;
  double Round = 0, PeakRss = 0;
  for (unsigned I = 0;
       I == 0 || secondsSince(Start, Clock::now()) + Round < O.Seconds; ++I) {
    Clock::time_point RoundStart = Clock::now();
    std::uint64_t Seed = I == 0 ? DefaultSeed : Seeds.next();
    Passes.push_back(runPass(O, P, Seed, Off, false));
    Attempted += Passes.back().Attempted;
    Failed += Passes.back().Failed;
    if (O.Trace) {
      Traced.push_back(runPass(O, P, Seed, On, I == 0));
      Attempted += Traced.back().Attempted;
      Failed += Traced.back().Failed;
    }
    Round = secondsSince(RoundStart, Clock::now());
    const Pass &Last = Passes.back();
    std::fprintf(stderr,
                 "pass %u seed=0x%" PRIx64 " wall_s=%.4f setup_s=%.4f "
                 "simulate_s=%.4f\n",
                 I, Seed, Last.WallS, Last.SetupS, Last.SimS);
    // Peak memory of one workload run: later passes repeat the same work
    // under other seeds and would add only allocator drift.
    if (I == 0)
      PeakRss = peakRssMiB();
  }

  auto Med = [](const std::vector<Pass> &Ps, auto Field) {
    std::vector<double> V;
    for (const Pass &X : Ps)
      V.push_back(Field(X));
    return median(V);
  };
  Report Rep;
  if (!O.Trace) {
    Rep.add("wall_s", Med(Passes, [](const Pass &X) { return X.WallS; }), "s");
    Rep.add("setup_s", Med(Passes, [](const Pass &X) { return X.SetupS; }),
            "s");
    Rep.add("sim_maccess_per_s", Med(Passes, [](const Pass &X) {
              return ratio(static_cast<double>(X.Accesses) / 1e6, X.SimS);
            }),
            "M/s");
    Rep.add("peak_rss_mib", PeakRss, "MiB");
    addSimulated(Rep, Passes.front(), *O.W);
  } else {
    Pass &Base = Traced.front(); // Default seed, graphs kept.
    MachineConfig M = O.W->MakeMachine();
    MemLayer Mem;
    CoherenceLayer Coh;
    ObsLayer Obs;
    unsigned BaseAttempted = Base.Attempted, BaseFailed = Base.Failed;
    On.span("layers", -1, [&](int Id) {
      Mem = measureMem(Base, M, On, Id, O.Kernels);
      Coh = measureCoherence(Base, *O.W, On, Id, O.Kernels);
      if (O.W->Observed)
        Obs = measureObs(O, P, Base, On, Id);
    });
    Attempted += Base.Attempted - BaseAttempted;
    Failed += Base.Failed - BaseFailed;

    double RecordS = Med(Traced, [](const Pass &X) { return X.SetupS; });
    Rep.add("rt.record_s", RecordS, "s");
    Rep.count("rt.events", Base.Events);
    Rep.add("rt.events_per_s", ratio(static_cast<double>(Base.Events), RecordS),
            "1/s");
    double SimS = Med(Traced, [](const Pass &X) { return X.SimS; });
    Rep.add("sched.simulate_s", SimS, "s");
    Rep.add("sched.ns_per_access",
            Med(Traced,
                [](const Pass &X) {
                  return ratio(X.SimS * 1e9, static_cast<double>(X.Accesses));
                }),
            "ns");
    addCounts(Rep, Base);
    Rep.count("mem.probe_calls", Mem.Probes);
    Rep.add("mem.probe_ns",
            ratio(Mem.Seconds * 1e9, static_cast<double>(Mem.Probes)), "ns");
    Rep.add("mem.l1_hit_ratio",
            ratio(static_cast<double>(Mem.L1Hits),
                  static_cast<double>(Mem.Probes)),
            "ratio");
    Rep.add("coherence.access_ns",
            ratio(Coh.AccessS * 1e9, static_cast<double>(Coh.Accesses)), "ns");
    Rep.add("coherence.sync_ns",
            ratio(Coh.SyncS * 1e9, static_cast<double>(Coh.Syncs)), "ns");
    Rep.add("coherence.region_ns",
            ratio(Coh.RegionS * 1e9, static_cast<double>(Coh.RegionOps)), "ns");

    // obs.*: zero where no sink is attached (pbbs-engine, multinode-sync).
    double Loop = 0;
    if (!Obs.AloneS.empty()) {
      Loop = Obs.AloneS.begin()->second;
      for (const auto &[Sink, S] : Obs.AloneS)
        Loop = std::min(Loop, S);
      Loop -= Obs.DetachedS;
    }
    auto SinkCost = [&](const char *Sink) {
      auto It = Obs.AloneS.find(Sink);
      return It == Obs.AloneS.end() ? 0.0 : It->second - Obs.DetachedS;
    };
    Rep.add("obs.attached_s", O.W->Observed ? SimS : 0.0, "s");
    Rep.add("obs.loop_s", Loop, "s");
    Rep.add("obs.profiler_s", SinkCost("profiler"), "s");
    Rep.add("obs.cpi_s", SinkCost("cpi"), "s");
    Rep.add("obs.metrics_s", SinkCost("metrics"), "s");
    Rep.add("obs.sampler_s", SinkCost("sampler"), "s");
    Rep.add("obs.evlog_s", SinkCost("evlog"), "s");
    Rep.count("obs.evlog_bytes", Base.EvlogBytes);
    Rep.count("obs.evlog_records", Base.EvlogRecords);
    Rep.add("obs.evlog_read_mb_per_s",
            Med(Traced,
                [](const Pass &X) {
                  return ratio(static_cast<double>(X.EvlogBytes) / 1e6,
                               X.EvlogReadS);
                }),
            "MB/s");
    Rep.count("obs.profiler_dropped_events", Base.DroppedEvents);
    Rep.add("trace.overhead_s",
            Med(Traced, [](const Pass &X) { return X.WallS; }) -
                Med(Passes, [](const Pass &X) { return X.WallS; }),
            "s");
    std::string SpanPath = O.OutDir + "/spans-" + O.W->Name + ".json";
    if (!On.write(SpanPath)) {
      std::fprintf(stderr, "%s: cannot write %s\n", argv[0], SpanPath.c_str());
      return 1;
    }
  }
  Rep.print(Failed == 0, Attempted, Failed);
  return 0;
}
