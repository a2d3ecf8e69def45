//===- perfbench/perfbench.cpp - The repo benchmark binary ----------------===//
//
// Part of the mco project (CGO 2021 code-size outlining reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One binary, four workloads, each made of one op type:
///
///   build-wp     synthesis + whole-program buildProgram + verify + digest
///   build-pm     the same through the per-module pipeline and a cold cache
///   fleet        runFleet of a prebuilt artifact over 16 devices
///   daemon-warm  warm build requests to a real mco-buildd (closed loop)
///
/// With --trace 0, after two untimed warm-up ops, the timed window runs ops
/// back to back for --seconds and prints the end-to-end metrics. With
/// --trace 1 each iteration runs one untraced op, then replays an op layer
/// by layer from public entry points (spans are recorded here, never inside
/// src/), then probes the layers the op does not reach, and prints the
/// per-layer medians.
///
/// The last stdout line is the result JSON; everything else goes to stderr.
///
//===----------------------------------------------------------------------===//

#include "cache/ArtifactCache.h"
#include "daemon/Client.h"
#include "daemon/Rpc.h"
#include "linker/Linker.h"
#include "mir/Liveness.h"
#include "mir/MIRVerifier.h"
#include "objfile/ObjectFile.h"
#include "outliner/InstructionMapper.h"
#include "outliner/MachineOutliner.h"
#include "pipeline/BuildJournal.h"
#include "pipeline/BuildPipeline.h"
#include "sim/Interpreter.h"
#include "support/SuffixArray.h"
#include "support/ThreadPool.h"
#include "synth/CorpusSynthesizer.h"
#include "telemetry/FleetSim.h"

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace mco;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

uint64_t splitmix(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

/// Linear-interpolated P-th percentile (P in [0, 100]).
double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * double(V.size() - 1);
  size_t Lo = size_t(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double median(const std::vector<double> &V) { return percentile(V, 50); }

/// Shortest round-trip rendering: every digit as measured.
std::string num(double V) {
  char Buf[64];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, R.ptr);
}

void fail(const std::string &Msg) { throw std::runtime_error(Msg); }

/// Resets the peak-RSS watermark (VmHWM) of \p Pid ("self" or a pid).
void resetPeakRss(const std::string &Pid) {
  std::ofstream F("/proc/" + Pid + "/clear_refs");
  F << "5";
  if (!F)
    fail("cannot reset VmHWM of " + Pid);
}

double peakRssMb(const std::string &Pid) {
  std::ifstream F("/proc/" + Pid + "/status");
  std::string Line;
  while (std::getline(F, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0;
  fail("no VmHWM for " + Pid);
  return 0;
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span log: name, start, end, parent, op id. Spans are opened
/// and closed from the benchmark's own files around calls into src/.
class SpanLog {
public:
  struct Span {
    std::string Name;
    double Start = 0, End = 0;
    int Parent = -1;
    int Op = -1;
  };

  explicit SpanLog(bool On) : On(On), T0(Clock::now()) {}

  int begin(const std::string &Name, int Op = -1) {
    if (!On)
      return -1;
    Span S;
    S.Name = Name;
    S.Start = secondsSince(T0);
    S.Parent = Stack.empty() ? -1 : Stack.back();
    S.Op = Op >= 0 ? Op : (S.Parent >= 0 ? Spans[S.Parent].Op : -1);
    Spans.push_back(S);
    Stack.push_back(int(Spans.size()) - 1);
    return Stack.back();
  }
  void end(int Id) {
    if (Id < 0)
      return;
    Spans[Id].End = secondsSince(T0);
    Stack.pop_back();
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Summed duration (s) of every span named \p Name under root \p Root.
  double total(int Root, const std::string &Name) const {
    double S = 0;
    for (size_t I = Root + 1; I < Spans.size(); ++I)
      if (Spans[I].Op == Spans[Root].Op && Spans[I].Name == Name)
        S += Spans[I].End - Spans[I].Start;
    return S;
  }
  bool has(int Root, const std::string &Name) const {
    for (size_t I = Root + 1; I < Spans.size(); ++I)
      if (Spans[I].Op == Spans[Root].Op && Spans[I].Name == Name)
        return true;
    return false;
  }
  double wall(int Root) const { return Spans[Root].End - Spans[Root].Start; }

  /// Share of \p Root's wall time covered by layer spans: the sum of every
  /// descendant's self time, i.e. the children's total duration.
  double coverage(int Root) const {
    double Covered = 0;
    for (size_t I = Root + 1; I < Spans.size(); ++I)
      if (Spans[I].Parent == Root)
        Covered += Spans[I].End - Spans[I].Start;
    return Covered / wall(Root);
  }

  void writeJsonl(const std::string &Path) const {
    std::ofstream F(Path);
    for (const Span &S : Spans)
      F << "{\"name\": \"" << S.Name << "\", \"start_s\": " << num(S.Start)
        << ", \"end_s\": " << num(S.End) << ", \"parent\": " << S.Parent
        << ", \"op\": " << S.Op << "}\n";
  }

private:
  bool On;
  Clock::time_point T0;
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

class Scoped {
public:
  Scoped(SpanLog &L, const std::string &Name, int Op = -1)
      : L(L), Id(L.begin(Name, Op)) {}
  ~Scoped() { L.end(Id); }

private:
  SpanLog &L;
  int Id;
};

/// Runs \p Fn inside a span named \p Name; the span is free when off.
template <class F>
decltype(auto) timed(SpanLog &L, const std::string &Name, F &&Fn) {
  Scoped S(L, Name);
  return Fn();
}

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

enum class Kind { Build, Fleet, Daemon };

struct Workload {
  std::string Name;
  Kind K;
  unsigned Modules;
  unsigned Rounds;
  bool WholeProgram;
  unsigned Threads;
  /// Work units one op does (modules built, devices run, requests).
  unsigned UnitsPerOp;
};

constexpr unsigned FleetDevices = 16;
constexpr unsigned DaemonWorkers = 2;
constexpr unsigned DaemonConns = 2;
constexpr unsigned DaemonMinModules = 60;
constexpr unsigned DaemonVariants = 8;
/// Untimed ops run before the window.
constexpr uint64_t WarmupOps = 2;
/// Equal slices of the timed window over which p90 and throughput are taken.
constexpr unsigned Slices = 5;

const std::vector<Workload> &workloads() {
  static const std::vector<Workload> W = {
      {"build-wp", Kind::Build, 128, 3, true, 4, 128},
      {"build-pm", Kind::Build, 128, 3, false, 4, 128},
      {"fleet", Kind::Fleet, 64, 3, true, 4, FleetDevices},
      {"daemon-warm", Kind::Daemon, 64, 2, true, 2, 1},
  };
  return W;
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string Buildd;
  std::string Work;
  std::string SpansOut;
  bool MutateSpan = false;
};

/// The corpus of the build and fleet workloads: UberRider reseeded.
AppProfile corpusProfile(const Workload &W, uint64_t Seed) {
  AppProfile P = AppProfile::uberRider();
  P.Seed = splitmix(Seed ^ 0xC0FFEEull);
  P.NumModules = W.Modules;
  return P;
}

/// mco-buildd synthesizes "rider" with its built-in seed.
AppProfile daemonProfile(unsigned Modules) {
  AppProfile P = AppProfile::uberRider();
  P.NumModules = Modules;
  return P;
}

PipelineOptions pipelineOptions(unsigned Rounds, bool WholeProgram,
                                unsigned Threads) {
  PipelineOptions PO;
  PO.OutlineRounds = Rounds;
  PO.WholeProgram = WholeProgram;
  PO.Threads = Threads;
  return PO;
}

std::unique_ptr<Program> generate(SpanLog &T, const AppProfile &P,
                                  unsigned Threads) {
  return timed(T, "synth.generate", [&] {
    return CorpusSynthesizer(P).withThreads(Threads).generate();
  });
}

/// The bench's own cache key for \p Prog: cacheKeyOfContent over every
/// module's content, as the whole-program pipeline keys its artifact.
std::string contentKey(const Program &Prog) {
  SymbolNameFn NameOf = [&](uint32_t Id) { return Prog.symbolName(Id); };
  std::vector<std::string> Chunks;
  for (const auto &M : Prog.Modules)
    Chunks.push_back(serializeModuleContent(*M, NameOf));
  return cacheKeyOfContent(Chunks, "perfbench");
}

/// The warm replay's cache, primed during trace set-up.
const char *const WarmCacheDir = "warm-cache";

//===----------------------------------------------------------------------===//
// Correctness oracle (independent of the outliner)
//===----------------------------------------------------------------------===//

std::vector<std::string> spanDrivers(const Program &Prog) {
  std::vector<std::string> Out;
  for (unsigned S = 0;; ++S) {
    std::string N = CorpusSynthesizer::spanFunctionName(S);
    if (Prog.lookupSymbol(N) == UINT32_MAX)
      return Out;
    Out.push_back(N);
  }
}

struct SpanRun {
  std::vector<int64_t> Returns;
  uint64_t Instrs = 0;
  std::string Error;
};

/// Interprets every span driver of \p Prog in order on one Interpreter.
SpanRun runSpans(const Program &Prog, const std::vector<std::string> &Spans) {
  SpanRun R;
  Expected<BinaryImage> Img = BinaryImage::create(Prog);
  if (!Img.ok()) {
    R.Error = "image: " + Img.status().message();
    return R;
  }
  Interpreter I(*Img, Prog);
  I.setFuel(200'000'000ull);
  for (const std::string &S : Spans) {
    Expected<int64_t> V = I.tryCall(S);
    if (!V.ok()) {
      R.Error = S + ": " + V.status().message();
      return R;
    }
    R.Returns.push_back(*V);
  }
  R.Instrs = I.counters().Instrs;
  return R;
}

/// "" when \p Prog's span drivers return \p Ref, else the mismatch.
/// \p Instrs (optional) receives the instructions the spans retired.
std::string checkSpans(const Program &Prog,
                       const std::vector<std::string> &Spans,
                       const std::vector<int64_t> &Ref,
                       uint64_t *Instrs = nullptr) {
  SpanRun R = runSpans(Prog, Spans);
  if (!R.Error.empty())
    return R.Error;
  if (Instrs)
    *Instrs = R.Instrs;
  for (size_t I = 0; I < Ref.size(); ++I)
    if (R.Returns[I] != Ref[I])
      return Spans[I] + " returned " + std::to_string(R.Returns[I]) +
             ", reference " + std::to_string(Ref[I]);
  return "";
}

/// Test hook: changes span_0's final `mov x0, #imm` so the program computes
/// a wrong result. The oracle must report the op as failed.
void mutateSpanReturn(Program &Prog) {
  uint32_t Sym = Prog.lookupSymbol(CorpusSynthesizer::spanFunctionName(0));
  for (auto &M : Prog.Modules)
    for (MachineFunction &MF : M->Functions) {
      if (MF.Name != Sym)
        continue;
      for (auto B = MF.Blocks.rbegin(); B != MF.Blocks.rend(); ++B)
        for (auto I = B->Instrs.rbegin(); I != B->Instrs.rend(); ++I)
          if (I->opcode() == Opcode::MOVri &&
              I->operand(0).getReg() == Reg::X0) {
            I->operand(1) = MachineOperand::imm(I->operand(1).getImm() + 1);
            return;
          }
    }
  fail("mutate: span_0 has no return immediate");
}

/// Rounds-0 build of \p P: the reference the outlined builds must match.
std::vector<int64_t> referenceReturns(const AppProfile &P, bool WholeProgram,
                                      std::vector<std::string> &Spans) {
  SpanLog Off(false);
  auto Prog = generate(Off, P, 4);
  buildProgram(*Prog, pipelineOptions(0, WholeProgram, 4));
  Spans = spanDrivers(*Prog);
  SpanRun R = runSpans(*Prog, Spans);
  if (!R.Error.empty() || Spans.empty())
    fail("reference build does not run: " + R.Error);
  return R.Returns;
}

//===----------------------------------------------------------------------===//
// mco-buildd child process
//===----------------------------------------------------------------------===//

RpcMessage message(const std::string &Type) {
  RpcMessage M;
  M.Type = Type;
  return M;
}

RpcMessage buildRequest(const std::string &Id, unsigned Modules,
                        unsigned Rounds, bool WholeProgram, unsigned Threads) {
  RpcMessage Req = message("build");
  Req.Str["id"] = Id;
  Req.Str["profile"] = "rider";
  Req.Int["modules"] = Modules;
  Req.Int["rounds"] = Rounds;
  Req.Int["per_module"] = WholeProgram ? 0 : 1;
  Req.Int["threads"] = Threads;
  return Req;
}

/// A real mco-buildd on a fresh socket and state dir. The client never
/// retries; the daemon dies with the benchmark (PDEATHSIG), is stopped by
/// the `shutdown` RPC, reaped, and SIGKILLed if it overstays.
class Daemon {
public:
  Daemon(const std::string &Buildd, const std::string &Tag, unsigned Workers)
      : Socket(Tag + ".sock"), State(Tag + ".state") {
    fs::remove_all(State);
    fs::remove(Socket);
    std::vector<std::string> Argv = {Buildd,  "--socket",  Socket,
                                     "--state", State,     "--workers",
                                     std::to_string(Workers)};
    pid_t Parent = ::getpid();
    Pid = ::fork();
    if (Pid < 0)
      fail("fork failed");
    if (Pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::getppid() != Parent)
        ::_exit(1);
      int Null = ::open("/dev/null", O_WRONLY);
      ::dup2(Null, 1);
      ::dup2(Null, 2);
      std::vector<char *> Ptrs;
      for (std::string &A : Argv)
        Ptrs.push_back(A.data());
      Ptrs.push_back(nullptr);
      ::execv(Ptrs[0], Ptrs.data());
      ::_exit(127);
    }
    for (int I = 0; I < 1000; ++I) { // Ready within 10 s, polled at 10 ms.
      Expected<RpcMessage> R = client().call(message("ping"));
      if (R.ok() && R->Type == "pong")
        return;
      int St;
      if (::waitpid(Pid, &St, WNOHANG) == Pid) {
        Pid = -1;
        fail("mco-buildd exited during start-up");
      }
      ::usleep(10 * 1000);
    }
    stop();
    fail("mco-buildd never answered ping");
  }
  ~Daemon() { stop(); }

  DaemonClient client() const {
    ClientOptions CO;
    CO.SocketPath = Socket;
    CO.MaxAttempts = 1;
    CO.ReplyTimeoutMs = 60000;
    return DaemonClient(CO);
  }
  std::string pid() const { return std::to_string(Pid); }
  std::string cacheDir() const { return State + "/cache"; }

  void stop() {
    if (Pid <= 0)
      return;
    (void)client().call(message("shutdown"));
    int St;
    for (int I = 0; I < 500 && ::waitpid(Pid, &St, WNOHANG) != Pid; ++I)
      ::usleep(10 * 1000);
    if (::waitpid(Pid, &St, WNOHANG) == 0) {
      ::kill(Pid, SIGKILL);
      ::waitpid(Pid, &St, 0);
    }
    Pid = -1;
    std::error_code EC;
    fs::remove_all(State, EC);
    fs::remove(Socket, EC);
  }

private:
  std::string Socket, State;
  pid_t Pid = -1;
};

//===----------------------------------------------------------------------===//
// The benchmark: set-up, ops, traced replay
//===----------------------------------------------------------------------===//

struct OpOutcome {
  double Seconds = 0;
  bool Ok = true;
  std::string Error;
  /// Build ops: buildProgram's own wall time and cache hit ratio.
  double BuildSeconds = 0;
  double HitRatio = 0;
};

double hitRatio(uint64_t Hits, uint64_t Misses) {
  return Hits + Misses ? double(Hits) / double(Hits + Misses) : 0.0;
}

struct DaemonVariant {
  unsigned Modules = 0;
  std::string Digest;
  uint64_t CodeSize = 0;
};

/// One layer-sample per traced iteration: metric name -> value.
using LayerSample = std::map<std::string, double>;

/// Printed metrics: name -> (value, unit).
using Metrics = std::map<std::string, std::pair<double, std::string>>;

class Bench {
public:
  Bench(const Workload &W, const Args &A) : W(W), A(A), T(A.Trace) {}

  double setup(unsigned Rep);
  void teardown() { D.reset(); }
  std::string runTimed(Metrics &M, uint64_t &Attempted, uint64_t &Failed);
  std::string runTraced(Metrics &M, uint64_t &Attempted, uint64_t &Failed);
  void writeSpans() const {
    if (A.Trace && !A.SpansOut.empty())
      T.writeJsonl(A.SpansOut);
  }

private:
  // Ops (untraced).
  OpOutcome buildOp(uint64_t OpIdx);
  OpOutcome fleetOp(uint64_t OpIdx, FleetReport *Out = nullptr);
  OpOutcome daemonOp(DaemonClient &C, const std::string &Id, unsigned Variant);
  std::string checkBuilt(Program &Prog, const std::string &Digest,
                         const std::string &Verify);

  // Traced stages.
  std::unique_ptr<Program> replayBuild(const AppProfile &P, unsigned Rounds,
                                       bool WholeProgram, unsigned Threads,
                                       const std::string &CacheDir,
                                       LayerSample &S);
  void replayStoreLoad(Program &Built, const std::string &Dir);
  void replaySim(const Program &Prog, unsigned Devices, LayerSample &S);
  void replayWarm(unsigned Variant);
  void probeDaemon(Daemon &Dm, const RpcMessage &Req, const AppProfile &P,
                   const std::string &Copy, LayerSample &S);
  double buildProgramWall(const AppProfile &P, const PipelineOptions &PO,
                          BuildResult *Out = nullptr);

  std::pair<double, double> spanCycles(const Program &Prog);
  unsigned variantOf(uint64_t N) const {
    return unsigned(splitmix(A.Seed ^ (N * 0x51ED27ull)) % DaemonVariants);
  }

  const Workload &W;
  const Args &A;
  SpanLog T;

  // Set-up products.
  AppProfile Profile;
  std::vector<std::string> Spans;
  std::vector<int64_t> RefReturns;
  std::unique_ptr<Program> Artifact; ///< fleet: the built app.
  uint64_t ArtifactCode = 0;
  uint64_t RefDeviceInstrs = 0;
  std::vector<DaemonVariant> Variants;
  std::vector<std::string> WarmObjects; ///< Per variant, for objfile.read.
  std::unique_ptr<Daemon> D;
  unsigned Rep = 0;

  // Build ops.
  std::string FirstDigest;
  uint64_t CodeSize = 0;
  std::unique_ptr<Program> LastBuilt;
};

double Bench::setup(unsigned R) {
  auto T0 = Clock::now();
  Rep = R;
  D.reset();
  if (W.K != Kind::Daemon) {
    Profile = corpusProfile(W, A.Seed);
    RefReturns = referenceReturns(Profile, W.WholeProgram, Spans);
  }
  if (W.K == Kind::Fleet) {
    SpanLog Off(false);
    Artifact = generate(Off, Profile, W.Threads);
    if (A.MutateSpan)
      mutateSpanReturn(*Artifact);
    BuildResult BR = buildProgram(
        *Artifact, pipelineOptions(W.Rounds, W.WholeProgram, W.Threads));
    ArtifactCode = BR.CodeSize;
    std::string V = verifyModule(*Artifact, *Artifact->Modules[0]);
    std::string Bad =
        V.empty() ? checkSpans(*Artifact, Spans, RefReturns, &RefDeviceInstrs)
                  : V;
    if (!Bad.empty())
      fail("fleet artifact is wrong: " + Bad);
  }
  if (W.K == Kind::Daemon) {
    // The correctness reference: every variant built in-process (the
    // daemon-vs-CLI contract) and checked against its rounds-0 build.
    Variants.clear();
    for (unsigned V = 0; V < DaemonVariants; ++V) {
      AppProfile P = daemonProfile(DaemonMinModules + V);
      std::vector<int64_t> Ref = referenceReturns(P, true, Spans);
      SpanLog Off(false);
      auto Prog = generate(Off, P, 4);
      BuildResult BR =
          buildProgram(*Prog, pipelineOptions(W.Rounds, true, 4));
      std::string Bad = checkSpans(*Prog, Spans, Ref);
      if (!Bad.empty())
        fail("daemon reference build is wrong: " + Bad);
      Variants.push_back({P.NumModules, programContentDigest(*Prog),
                          BR.CodeSize});
      if (P.NumModules == W.Modules) {
        Artifact = std::move(Prog);
        RefReturns = Ref;
      }
    }
    D = std::make_unique<Daemon>(A.Buildd, "d" + std::to_string(R),
                                 DaemonWorkers);
    // Prime: one cold build per variant, so every timed request hits.
    std::vector<std::thread> Th;
    std::atomic<unsigned> Next{0}, Bad{0};
    for (unsigned C = 0; C < DaemonConns; ++C)
      Th.emplace_back([&] {
        DaemonClient Cl = D->client();
        for (unsigned V; (V = Next++) < DaemonVariants;) {
          OpOutcome O = daemonOp(Cl, "prime-" + std::to_string(V), V);
          if (!O.Ok && O.Error.find("cache_misses") == std::string::npos)
            ++Bad;
        }
      });
    for (std::thread &X : Th)
      X.join();
    if (Bad)
      fail("daemon priming failed");
  }
  return secondsSince(T0);
}

std::string Bench::checkBuilt(Program &Prog, const std::string &Digest,
                              const std::string &Verify) {
  bool First = FirstDigest.empty();
  if (First)
    FirstDigest = Digest;
  std::string Err = Verify;
  if (Err.empty() && Digest != FirstDigest)
    Err = "digest differs from the first op";
  // The first op, and every op that looks wrong, re-runs its span drivers.
  if (First || !Err.empty()) {
    std::string S = checkSpans(Prog, Spans, RefReturns);
    if (!S.empty())
      Err = Err.empty() ? S : Err + "; " + S;
  }
  return Err;
}

OpOutcome Bench::buildOp(uint64_t OpIdx) {
  PipelineOptions PO = pipelineOptions(W.Rounds, W.WholeProgram, W.Threads);
  std::string CacheDir;
  if (!W.WholeProgram) {
    // A fresh, empty artifact cache per op, made and removed untimed.
    CacheDir = "pm-cache-" + std::to_string(OpIdx);
    fs::remove_all(CacheDir);
    fs::create_directories(CacheDir);
    PO.Resilience.CacheDir = CacheDir;
  }
  OpOutcome O;
  auto T0 = Clock::now();
  SpanLog Off(false);
  auto Prog = generate(Off, Profile, W.Threads);
  if (A.MutateSpan)
    mutateSpanReturn(*Prog);
  auto TB = Clock::now();
  BuildResult BR = buildProgram(*Prog, PO);
  O.BuildSeconds = secondsSince(TB);
  O.HitRatio = hitRatio(BR.CacheHits, BR.CacheMisses);
  std::string V = verifyModule(*Prog, *Prog->Modules[0]);
  std::string Digest = programContentDigest(*Prog);
  O.Seconds = secondsSince(T0);
  if (!CacheDir.empty())
    fs::remove_all(CacheDir);
  O.Error = checkBuilt(*Prog, Digest, V);
  if (O.Error.empty() && !BR.FailureLog.empty())
    O.Error = "build absorbed a failure: " + BR.FailureLog.front();
  O.Ok = O.Error.empty();
  CodeSize = BR.CodeSize;
  LastBuilt = std::move(Prog);
  return O;
}

FleetOptions fleetOptions(const std::vector<std::string> &Spans, uint64_t Seed,
                          unsigned Devices) {
  FleetOptions FO;
  FO.NumDevices = Devices;
  FO.Seed = Seed;
  FO.Threads = 4;
  FO.Entries = Spans;
  return FO;
}

OpOutcome Bench::fleetOp(uint64_t OpIdx, FleetReport *Out) {
  FleetOptions FO = fleetOptions(
      Spans, splitmix(A.Seed ^ (0xF1EE7ull + OpIdx)), FleetDevices);
  OpOutcome O;
  auto T0 = Clock::now();
  FleetReport R = runFleet(*Artifact, FO);
  O.Seconds = secondsSince(T0);
  for (const DeviceResult &Dev : R.Devices)
    if (!Dev.FaultMsg.empty() && O.Error.empty())
      O.Error = "device " + std::to_string(Dev.Index) + ": " + Dev.FaultMsg;
  if (O.Error.empty() &&
      R.Overall.TotalInstrs != RefDeviceInstrs * FleetDevices)
    O.Error = "retired " + std::to_string(R.Overall.TotalInstrs) +
              " instructions, reference " +
              std::to_string(RefDeviceInstrs * FleetDevices);
  O.Ok = O.Error.empty();
  if (Out)
    *Out = std::move(R);
  return O;
}

OpOutcome Bench::daemonOp(DaemonClient &C, const std::string &Id,
                          unsigned Variant) {
  const DaemonVariant &V = Variants[Variant];
  RpcMessage Req = buildRequest("r" + std::to_string(Rep) + "-" + Id,
                                V.Modules, W.Rounds, true, W.Threads);
  OpOutcome O;
  auto T0 = Clock::now();
  Expected<RpcMessage> R = C.call(Req);
  O.Seconds = secondsSince(T0);
  if (!R.ok())
    O.Error = "rpc: " + R.status().message();
  else if (R->Type != "result")
    O.Error = "reply " + R->Type + ": " + R->strOr("message", "");
  else if (R->strOr("state", "") != "completed")
    O.Error = "state " + R->strOr("state", "");
  else if (R->strOr("artifact_digest", "") != V.Digest)
    O.Error = "artifact_digest differs from the in-process build";
  else if (R->intOr("cache_misses", -1) != 0)
    O.Error = "cache_misses " + std::to_string(R->intOr("cache_misses", -1));
  O.Ok = O.Error.empty();
  if (R.ok())
    O.HitRatio = hitRatio(uint64_t(R->intOr("cache_hits", 0)),
                          uint64_t(R->intOr("cache_misses", 0)));
  return O;
}

/// Modeled latency of one span of \p Prog at the fleet's P50 and P95
/// device: FleetReport::Overall's per-device span-cycle totals divided by
/// the span count, over one fixed 16-device fleet, so only the artifact
/// moves it (deterministic per seed).
std::pair<double, double> Bench::spanCycles(const Program &Prog) {
  FleetReport R =
      runFleet(Prog, fleetOptions(Spans, FleetOptions().Seed, FleetDevices));
  for (const DeviceResult &Dev : R.Devices)
    if (!Dev.FaultMsg.empty())
      fail("span-latency fleet faulted: " + Dev.FaultMsg);
  return {R.Overall.CyclesP50 / Spans.size(),
          R.Overall.CyclesP95 / Spans.size()};
}

std::string Bench::runTimed(Metrics &M, uint64_t &Attempted,
                            uint64_t &Failed) {
  std::vector<double> Lat;
  std::vector<double> Ends; ///< Op end times within the window, seconds.
  std::mutex Mu;
  std::string FirstError;
  Clock::time_point T0;
  bool Timing = false;
  auto Record = [&](const OpOutcome &O) {
    std::lock_guard<std::mutex> L(Mu);
    ++Attempted;
    if (!O.Ok) {
      ++Failed;
      if (FirstError.empty())
        FirstError = O.Error;
      return;
    }
    if (!Timing)
      return;
    Lat.push_back(O.Seconds * 1e3);
    Ends.push_back(secondsSince(T0));
  };

  // Warm-up, checked but untimed: the first build op re-runs every span
  // driver, and the first ops of a run fault in the allocator's arenas and
  // start the thread pools.
  for (uint64_t N = 0; N < WarmupOps; ++N) {
    if (W.K == Kind::Daemon) {
      DaemonClient Cl = D->client();
      Record(daemonOp(Cl, "warm-" + std::to_string(N), variantOf(N)));
    } else {
      Record(W.K == Kind::Fleet ? fleetOp(~N) : buildOp(~N));
    }
  }

  const std::string RssPid = W.K == Kind::Daemon ? D->pid() : "self";
  resetPeakRss(RssPid);
  T0 = Clock::now();
  Timing = true;
  if (W.K == Kind::Daemon) {
    // Closed loop: each connection sends its next request on reply.
    std::atomic<uint64_t> Next{0};
    std::vector<std::thread> Th;
    for (unsigned C = 0; C < DaemonConns; ++C)
      Th.emplace_back([&] {
        DaemonClient Cl = D->client();
        while (secondsSince(T0) < A.Seconds) {
          uint64_t N = Next++;
          Record(daemonOp(Cl, std::to_string(N), variantOf(N)));
        }
      });
    for (std::thread &X : Th)
      X.join();
  } else {
    for (uint64_t N = 0; secondsSince(T0) < A.Seconds; ++N)
      Record(W.K == Kind::Fleet ? fleetOp(N) : buildOp(N));
  }
  double Window = secondsSince(T0);
  double Rss = peakRssMb(RssPid);

  // Untimed: the size and modeled span latency of what was built.
  uint64_t Text = 0;
  const Program *Built = nullptr;
  if (W.K == Kind::Build) {
    Text = CodeSize;
    Built = LastBuilt.get();
  } else if (W.K == Kind::Fleet) {
    Text = ArtifactCode;
    Built = Artifact.get();
  } else {
    for (const DaemonVariant &V : Variants)
      Text += V.CodeSize;
    Text /= Variants.size();
    Built = Artifact.get();
  }
  auto [CycP50, CycP95] = spanCycles(*Built);

  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu ops ok, %llu failed in %.2f s\n",
               W.Name.c_str(), (unsigned long long)A.Seed, Lat.size(),
               (unsigned long long)Failed, Window);
  if (Lat.empty())
    fail("no op completed: " + FirstError);
  // p90 and throughput are medians over equal slices of the window, so a
  // burst of host contention that slows one slice does not set them; p50 is
  // already a median over the whole run.
  std::vector<std::vector<double>> SliceLat(Slices);
  for (size_t I = 0; I < Lat.size(); ++I)
    SliceLat[std::min<size_t>(Slices - 1, size_t(Ends[I] / Window * Slices))]
        .push_back(Lat[I]);
  std::vector<double> SliceP90, SliceRate;
  for (const std::vector<double> &S : SliceLat) {
    if (!S.empty())
      SliceP90.push_back(percentile(S, 90));
    SliceRate.push_back(double(S.size()) * W.UnitsPerOp / (Window / Slices));
  }
  std::fprintf(stderr,
               "perfbench: whole-window p90 %.1f ms, throughput %.2f/s\n",
               percentile(Lat, 90), double(Lat.size()) * W.UnitsPerOp / Window);
  M["latency_p50_ms"] = {median(Lat), "ms"};
  M["latency_p90_ms"] = {median(SliceP90), "ms"};
  M["throughput_per_s"] = {median(SliceRate), "1/s"};
  M["peak_rss_mb"] = {Rss, "MB"};
  M["text_bytes"] = {double(Text), "B"};
  M["span_cycles_p50"] = {CycP50, "cycles"};
  M["span_cycles_p95"] = {CycP95, "cycles"};
  return FirstError;
}

//===----------------------------------------------------------------------===//
// Traced replay
//===----------------------------------------------------------------------===//

/// Times the phases runRound performs internally — map, discovery,
/// liveness — by calling their public classes on \p M's current state.
void probePhases(SpanLog &T, const Module &M, unsigned Threads) {
  InstructionMapper Map;
  timed(T, "outliner.map", [&] { Map.update(M, {}); });
  timed(T, "outliner.discovery", [&] {
    SuffixArray SA(Map.string());
    uint64_t N = 0;
    SA.forEachRepeatedSubstring(
        2, 2, 4096, [&](unsigned, const unsigned *, size_t) { ++N; });
    return N;
  });
  timed(T, "mir.liveness", [&] {
    std::vector<Liveness> L(M.Functions.size());
    if (Threads > 1) {
      ThreadPool Pool(Threads);
      Pool.parallelFor(L.size(),
                       [&](size_t I) { L[I].recompute(M.Functions[I]); });
    } else {
      for (size_t I = 0; I < L.size(); ++I)
        L[I].recompute(M.Functions[I]);
    }
  });
}

/// buildProgram decomposed into its public parts (link, OutlinerEngine
/// rounds, and with \p CacheDir the cache write path), plus phase probes.
/// Output is bit-identical to buildProgram with the same options.
std::unique_ptr<Program> Bench::replayBuild(const AppProfile &P,
                                            unsigned Rounds, bool WholeProgram,
                                            unsigned Threads,
                                            const std::string &CacheDir,
                                            LayerSample &S) {
  auto Prog = generate(T, P, Threads);
  SymbolNameFn NameOf = [&](uint32_t Id) { return Prog->symbolName(Id); };
  std::vector<OutlineRoundStats> Acc(Rounds);
  auto Absorb = [&](unsigned R, const OutlineRoundStats &RS) {
    OutlineRoundStats &X = Acc[R];
    X.FunctionsCreated += RS.FunctionsCreated;
    X.PatternsConsidered += RS.PatternsConsidered;
    X.FunctionsRemapped += RS.FunctionsRemapped;
    X.CodeSizeBefore += RS.CodeSizeBefore;
    X.CodeSizeAfter += RS.CodeSizeAfter;
  };
  {
    Scoped B(T, "pipeline.build");
    std::unique_ptr<ArtifactCache> Cache;
    BuildJournal J;
    std::vector<std::string> Keys;
    if (!CacheDir.empty()) {
      Cache = std::make_unique<ArtifactCache>(CacheDir, 256ull << 20);
      if (!Cache->prepare().ok())
        fail("replay cache unusable");
      timed(T, "cache.key", [&] {
        for (const auto &M : Prog->Modules)
          Keys.push_back(cacheKey(*M, NameOf, "perfbench"));
      });
      timed(T, "pipeline.journal", [&] {
        return J.open(CacheDir + "/journal.mcoj", "perfbench",
                      Prog->Modules.size(), WholeProgram);
      });
    }
    // Outlines \p M round by round, probing each round's phases first.
    auto Outline = [&](Module &M, const OutlinerOptions &O) {
      OutlinerEngine E(*Prog, M, O);
      RepeatedOutlineStats Stats;
      for (unsigned R = 1; R <= Rounds; ++R) {
        probePhases(T, M, O.Threads);
        OutlineRoundStats RS = timed(T, "outliner.round" + std::to_string(R),
                                     [&] { return E.runRound(R); });
        Absorb(R - 1, RS);
        Stats.Rounds.push_back(RS);
        if (RS.FunctionsCreated == 0)
          break;
      }
      return Stats;
    };
    auto Store = [&](size_t I, const Module &M,
                     const RepeatedOutlineStats &Stats) {
      if (!Cache)
        return;
      timed(T, "objfile.serialize",
            [&] { return serializeObjectFile(M, Stats, 0, 0, NameOf); });
      timed(T, "cache.store",
            [&] { return Cache->store(Keys[I], M, Stats, 0, 0, NameOf); });
      timed(T, "pipeline.journal", [&] {
        J.recordModuleDone(uint32_t(I), M.Name, Keys[I], true);
      });
    };
    if (WholeProgram) {
      Module &L = timed(T, "linker.link",
                        [&]() -> Module & { return linkProgram(*Prog); });
      OutlinerOptions O;
      O.Threads = Threads;
      Store(0, L, Outline(L, O));
    } else {
      for (size_t I = 0; I < Prog->Modules.size(); ++I) {
        Module &M = *Prog->Modules[I];
        OutlinerOptions O;
        O.NamePrefix += "@" + M.Name;
        Store(I, M, Outline(M, O));
      }
      timed(T, "linker.link", [&] { linkProgram(*Prog); });
    }
    if (Cache)
      timed(T, "pipeline.journal", [&] {
        J.recordEnd();
        J.close();
      });
  }
  std::string V = timed(T, "mir.verify", [&] {
    return verifyModule(*Prog, *Prog->Modules[0]);
  });
  if (!V.empty())
    fail("replayed build does not verify: " + V);

  uint64_t Created = 0, Considered = 0, Remapped = 0;
  for (unsigned R = 0; R < Rounds; ++R) {
    Created += Acc[R].FunctionsCreated;
    Considered += Acc[R].PatternsConsidered;
    Remapped += Acc[R].FunctionsRemapped;
    S.emplace("outliner.bytes_saved_r" + std::to_string(R + 1),
              double(Acc[R].CodeSizeBefore - Acc[R].CodeSizeAfter));
  }
  S.emplace("outliner.functions_remapped", double(Remapped));
  S.emplace("outliner.patterns_considered", double(Considered));
  S.emplace("outliner.pattern_yield",
            Considered ? double(Created) / double(Considered) : 0.0);
  return Prog;
}

/// The cache write and read paths over a built program: key, journal,
/// serialize, store, read, load, digest.
void Bench::replayStoreLoad(Program &Built, const std::string &Dir) {
  fs::remove_all(Dir);
  const Module &M = *Built.Modules[0];
  SymbolNameFn NameOf = [&](uint32_t Id) { return Built.symbolName(Id); };
  RepeatedOutlineStats NoStats;
  std::string Key = timed(T, "cache.key", [&] { return contentKey(Built); });
  ArtifactCache C(Dir, 256ull << 20);
  BuildJournal J;
  if (!C.prepare().ok() ||
      !timed(T, "pipeline.journal",
             [&] { return J.open(Dir + "/journal.mcoj", Key, 1, true); })
           .ok())
    fail("store/load replay: cache dir unusable");
  std::string Bytes = timed(T, "objfile.serialize", [&] {
    return serializeObjectFile(M, NoStats, 0, 0, NameOf);
  });
  if (!timed(T, "cache.store",
             [&] { return C.store(Key, M, NoStats, 0, 0, NameOf); })
           .ok())
    fail("store/load replay: store failed");
  timed(T, "pipeline.journal", [&] {
    J.recordModuleDone(0, M.Name, Key, true);
    J.recordEnd();
    J.close();
  });
  if (!timed(T, "objfile.read", [&] { return readObjectFile(Bytes); }).ok())
    fail("store/load replay: written object does not read back");
  Program Fresh;
  if (timed(T, "cache.load", [&] { return C.load(Key, Fresh); }).Outcome !=
      ArtifactCache::LoadOutcome::Hit)
    fail("store/load replay: stored entry misses");
  timed(T, "cache.digest", [&] { return programContentDigest(Built); });
  fs::remove_all(Dir);
}

/// runFleet's device loop replayed per device: one pass over every span
/// with no perf model (interpretation), one with the device class's
/// PerfConfig (interpretation + models); then aggregation.
void Bench::replaySim(const Program &Prog, unsigned Devices, LayerSample &S) {
  Expected<BinaryImage> Img =
      timed(T, "linker.image", [&] { return BinaryImage::create(Prog); });
  if (!Img.ok())
    fail("image: " + Img.status().message());
  std::vector<DeviceClass> Classes = defaultDeviceClasses();
  FleetReport R;
  R.Entries = Spans;
  for (const DeviceClass &C : Classes)
    R.ClassNames.push_back(C.Name);
  uint64_t Instrs = 0;
  for (unsigned Dv = 0; Dv < Devices; ++Dv) {
    timed(T, "sim.interp", [&] {
      Interpreter I(*Img, Prog);
      for (size_t E = 0; E < Spans.size(); ++E) {
        Expected<int64_t> V = I.tryCall(Spans[E]);
        if (!V.ok() || *V != RefReturns[E])
          fail("replayed device returns a wrong result from " + Spans[E]);
      }
      Instrs += I.counters().Instrs;
    });
    DeviceResult Dev;
    Dev.Index = Dv;
    Dev.ClassIdx = Dv % Classes.size();
    timed(T, "sim.modeled", [&] {
      Interpreter I(*Img, Prog, &Classes[Dev.ClassIdx].Cfg);
      for (const std::string &E : Spans) {
        double Before = I.counters().Cycles;
        if (!I.tryCall(E).ok())
          fail("replayed device faults in " + E);
        Dev.SpanCycles.push_back(I.counters().Cycles - Before);
      }
      Dev.Counters = I.counters();
    });
    R.Devices.push_back(std::move(Dev));
  }
  timed(T, "telemetry.aggregate", [&] {
    R.Overall = aggregateDevices(R, R.Devices.size());
    return fleetReportJson(R).size();
  });
  S["sim.devices"] = Devices;
  S["sim.instrs"] = double(Instrs);
}

/// The daemon's warm path, in-process: synthesis, cache key, journal,
/// cache load, object read, digest and the reply codec. Uses the bench's
/// own cache, primed with this variant's artifact during trace set-up.
void Bench::replayWarm(unsigned Variant) {
  const DaemonVariant &V = Variants[Variant];
  auto Prog = generate(T, daemonProfile(V.Modules), W.Threads);
  std::string Key = timed(T, "cache.key", [&] { return contentKey(*Prog); });
  ArtifactCache C(WarmCacheDir, 256ull << 20);
  BuildJournal J;
  if (!C.prepare().ok())
    fail("warm replay: cache unusable");
  timed(T, "pipeline.journal", [&] {
    return J.open("warm-journal.mcoj", Key, 1, true);
  });
  ArtifactCache::LoadResult LR =
      timed(T, "cache.load", [&] { return C.load(Key, *Prog); });
  if (LR.Outcome != ArtifactCache::LoadOutcome::Hit)
    fail("warm replay: cache miss");
  Prog->Modules.clear();
  Prog->Modules.push_back(std::make_unique<Module>(std::move(LR.Artifact.M)));
  timed(T, "pipeline.journal", [&] {
    J.recordModuleDone(0, Prog->Modules[0]->Name, Key, false);
    J.recordEnd();
    J.close();
  });
  if (!timed(T, "objfile.read",
             [&] { return readObjectFile(WarmObjects[Variant]); })
           .ok())
    fail("warm replay: artifact does not read back");
  std::string Digest =
      timed(T, "cache.digest", [&] { return programContentDigest(*Prog); });
  if (Digest != V.Digest)
    fail("warm replay: digest differs from the in-process build");
  RpcMessage Reply = message("result");
  Reply.Str["artifact_digest"] = Digest;
  Reply.Int["code_size"] = int64_t(V.CodeSize);
  timed(T, "daemon.rpc_codec",
        [&] { return decodeRpcMessage(encodeRpcMessage(Reply)).ok(); });
}

double Bench::buildProgramWall(const AppProfile &P, const PipelineOptions &PO,
                               BuildResult *Out) {
  SpanLog Off(false);
  auto Prog = generate(Off, P, PO.Threads);
  auto T0 = Clock::now();
  BuildResult R = buildProgram(*Prog, PO);
  double S = secondsSince(T0);
  if (Out)
    *Out = std::move(R);
  return S;
}

/// Daemon round trip vs the same warm build in-process against a copy of
/// the daemon's primed cache: what the service layer adds.
void Bench::probeDaemon(Daemon &Dm, const RpcMessage &Req, const AppProfile &P,
                        const std::string &Copy, LayerSample &S) {
  DaemonClient C = Dm.client();
  Expected<RpcMessage> Pong =
      timed(T, "daemon.ping", [&] { return C.call(message("ping")); });
  if (!Pong.ok() || Pong->Type != "pong")
    fail("daemon probe: no pong");
  RpcMessage R = Req;
  R.Str["id"] = "probe-" + std::to_string(T.spans().size());
  auto T0 = Clock::now();
  Expected<RpcMessage> Reply = C.call(R);
  double Remote = secondsSince(T0);
  if (!Reply.ok() || Reply->Type != "result" ||
      Reply->intOr("cache_misses", -1) != 0)
    fail("daemon probe: request did not hit the cache");
  timed(T, "daemon.rpc_codec",
        [&] { return decodeRpcMessage(encodeRpcMessage(*Reply)).ok(); });
  PipelineOptions PO = pipelineOptions(unsigned(Req.intOr("rounds", 0)),
                                       Req.intOr("per_module", 0) == 0,
                                       unsigned(Req.intOr("threads", 1)));
  PO.Resilience.CacheDir = Copy;
  PO.Resilience.JournalDir = "inproc-journal";
  BuildResult BR;
  auto T1 = Clock::now();
  buildProgramWall(P, PO, &BR);
  double Local = secondsSince(T1); // Synthesis included, as in the daemon.
  if (BR.CacheHits == 0)
    fail("daemon probe: in-process build missed the copied cache");
  S["daemon.remote_s"] = Remote;
  S["daemon.local_s"] = Local;
}

/// Unit of a per-layer metric, from its name.
std::string unitOf(const std::string &Name) {
  auto Ends = [&](const char *Suf) {
    size_t N = std::strlen(Suf);
    return Name.size() >= N && Name.compare(Name.size() - N, N, Suf) == 0;
  };
  if (Ends("_ms"))
    return "ms";
  if (Ends("_us"))
    return "us";
  if (Name.find("bytes_saved") != std::string::npos)
    return "B";
  if (Ends("_ratio") || Ends("_yield"))
    return "ratio";
  if (Ends("minstrs_per_s"))
    return "Minstr/s";
  return "count";
}

std::string Bench::runTraced(Metrics &M, uint64_t &Attempted,
                             uint64_t &Failed) {
  // Trace set-up: a daemon (the workload's own for daemon-warm) primed
  // with one request shape, and a copy of its cache for in-process builds.
  std::unique_ptr<Daemon> Own;
  Daemon *Dm = D.get();
  RpcMessage Probe;
  AppProfile ProbeProfile;
  if (W.K == Kind::Daemon) {
    Probe = buildRequest("", Variants[DaemonVariants / 2].Modules, W.Rounds,
                         true, W.Threads);
    ProbeProfile = daemonProfile(Variants[DaemonVariants / 2].Modules);
    // The warm replay's own cache: every variant's artifact under the
    // bench's key.
    for (unsigned V = 0; V < DaemonVariants; ++V) {
      SpanLog Off(false);
      auto Prog = generate(Off, daemonProfile(Variants[V].Modules), 4);
      SymbolNameFn NameOf = [&](uint32_t Id) { return Prog->symbolName(Id); };
      std::string Key = contentKey(*Prog);
      buildProgram(*Prog, pipelineOptions(W.Rounds, true, 4));
      ArtifactCache C(WarmCacheDir, 256ull << 20);
      if (!C.prepare().ok() ||
          !C.store(Key, *Prog->Modules[0], {}, 0, 0, NameOf).ok())
        fail("trace set-up: cannot prime the warm cache");
      WarmObjects.push_back(
          serializeObjectFile(*Prog->Modules[0], {}, 0, 0, NameOf));
    }
  } else {
    Own = std::make_unique<Daemon>(A.Buildd, "trace", DaemonWorkers);
    Dm = Own.get();
    Probe = buildRequest("", W.Modules, 3, W.WholeProgram, 4);
    ProbeProfile = daemonProfile(W.Modules);
    RpcMessage Cold = Probe;
    Cold.Str["id"] = "prime";
    Expected<RpcMessage> R = Dm->client().call(Cold);
    if (!R.ok() || R->Type != "result")
      fail("trace set-up: daemon priming failed");
  }
  const std::string Copy = "cache-copy";
  fs::remove_all(Copy);
  fs::copy(Dm->cacheDir(), Copy, fs::copy_options::recursive);

  std::map<std::string, std::vector<double>> Samples;
  std::vector<double> Untraced, Replayed, Coverage, Remote, Local;
  auto Add = [&](const std::string &K, double V) { Samples[K].push_back(V); };
  std::string FirstError;
  auto T0 = Clock::now();
  for (uint64_t It = 0; It == 0 || secondsSince(T0) < A.Seconds; ++It) {
    LayerSample S;
    // 1. One untraced op, the base of trace.overhead_ratio.
    OpOutcome O;
    unsigned Var = variantOf(It);
    if (W.K == Kind::Build) {
      O = buildOp(It);
    } else if (W.K == Kind::Fleet) {
      FleetReport R;
      O = fleetOp(It, &R);
      S["sim.icache_miss_p50"] = R.Overall.ICacheMissP50;
      S["sim.text_faults_p50"] = R.Overall.TextFaultsP50;
      S["sim.data_faults_p50"] = R.Overall.DataFaultsP50;
    } else {
      DaemonClient C = Dm->client();
      O = daemonOp(C, "t" + std::to_string(It), Var);
    }
    ++Attempted;
    if (!O.Ok) {
      ++Failed;
      if (FirstError.empty())
        FirstError = O.Error;
      continue;
    }
    Untraced.push_back(O.Seconds);
    Add("cache.hit_ratio", O.HitRatio);

    // 2. The same op replayed layer by layer.
    int Op = T.begin("op", int(2 * It));
    std::unique_ptr<Program> Built;
    std::string Digest;
    if (W.K == Kind::Build) {
      fs::remove_all("replay-cache");
      Built = replayBuild(Profile, W.Rounds, W.WholeProgram, W.Threads,
                          W.WholeProgram ? "" : "replay-cache", S);
      Digest = timed(T, "cache.digest",
                     [&] { return programContentDigest(*Built); });
    } else if (W.K == Kind::Fleet) {
      replaySim(*Artifact, FleetDevices, S);
    } else {
      replayWarm(Var);
    }
    T.end(Op);
    if (W.K == Kind::Build) {
      fs::remove_all("replay-cache");
      if (Digest != FirstDigest)
        fail("replayed build differs from buildProgram");
      Add("pipeline.build_ms", O.BuildSeconds * 1e3);
    }
    Replayed.push_back(T.wall(Op));
    Coverage.push_back(T.coverage(Op));

    // 3. The layers this op does not reach, on the workload's own corpus.
    int Aux = T.begin("aux", int(2 * It + 1));
    if (W.K != Kind::Build) {
      const AppProfile &P = W.K == Kind::Fleet ? Profile : ProbeProfile;
      Add("pipeline.build_ms",
          buildProgramWall(P, pipelineOptions(3, true, W.Threads)) * 1e3);
      Built = replayBuild(P, 3, true, W.Threads, "", S);
    }
    replayStoreLoad(*Built, "aux-cache");
    if (W.K != Kind::Fleet) {
      replaySim(*Built, 4, S);
      FleetReport R = runFleet(
          *Built, fleetOptions(Spans, splitmix(A.Seed ^ It), FleetDevices));
      S["sim.icache_miss_p50"] = R.Overall.ICacheMissP50;
      S["sim.text_faults_p50"] = R.Overall.TextFaultsP50;
      S["sim.data_faults_p50"] = R.Overall.DataFaultsP50;
    }
    probeDaemon(*Dm, Probe, ProbeProfile, Copy, S);
    T.end(Aux);
    Remote.push_back(S["daemon.remote_s"]);
    Local.push_back(S["daemon.local_s"]);

    // Layer times: from the op's own spans where it reaches the layer,
    // else from the auxiliary probes.
    auto Ms = [&](const std::string &Span) {
      return 1e3 * (T.has(Op, Span) ? T.total(Op, Span) : T.total(Aux, Span));
    };
    for (const char *L :
         {"synth.generate", "linker.link", "linker.image", "outliner.map",
          "outliner.discovery", "outliner.round1", "outliner.round2",
          "outliner.round3", "mir.liveness", "mir.verify", "objfile.serialize",
          "objfile.read", "cache.key", "cache.store", "cache.load",
          "cache.digest", "pipeline.journal", "telemetry.aggregate",
          "daemon.ping"})
      Add(std::string(L) + "_ms", Ms(L));
    Add("daemon.rpc_codec_us", Ms("daemon.rpc_codec") * 1e3);
    int BuildRoot = W.K == Kind::Build ? Op : Aux;
    double Rounds = 0;
    for (const char *R :
         {"outliner.round1", "outliner.round2", "outliner.round3"})
      Rounds += T.total(BuildRoot, R);
    Add("outliner.plan_commit_ms",
        1e3 * (Rounds - T.total(BuildRoot, "outliner.map") -
               T.total(BuildRoot, "outliner.discovery") -
               T.total(BuildRoot, "mir.liveness")));
    int SimRoot = W.K == Kind::Fleet ? Op : Aux;
    double Interp = T.total(SimRoot, "sim.interp");
    Add("sim.interp_ms", 1e3 * Interp / S["sim.devices"]);
    Add("sim.model_ms",
        1e3 * (T.total(SimRoot, "sim.modeled") - Interp) / S["sim.devices"]);
    Add("sim.minstrs_per_s", S["sim.instrs"] / Interp / 1e6);
    for (const char *K :
         {"outliner.functions_remapped", "outliner.patterns_considered",
          "outliner.pattern_yield", "outliner.bytes_saved_r1",
          "outliner.bytes_saved_r2", "outliner.bytes_saved_r3",
          "sim.icache_miss_p50", "sim.text_faults_p50",
          "sim.data_faults_p50"})
      Add(K, S[K]);
  }
  if (Untraced.empty())
    fail("no op completed: " + FirstError);

  for (const auto &[Name, V] : Samples)
    M[Name] = {median(V), unitOf(Name)};
  M["daemon.overhead_ms"] = {(median(Remote) - median(Local)) * 1e3, "ms"};
  M["trace.coverage_ratio"] = {median(Coverage), "ratio"};
  M["trace.overhead_ratio"] = {median(Replayed) / median(Untraced), "ratio"};
  std::fprintf(stderr,
               "perfbench: %s seed %llu: %zu traced iterations, %llu failed\n",
               W.Name.c_str(), (unsigned long long)A.Seed, Untraced.size(),
               (unsigned long long)Failed);
  return FirstError;
}

} // namespace

int main(int argc, char **argv) {
  Args A;
  for (int I = 1; I < argc; ++I) {
    std::string K = argv[I];
    auto Val = [&]() -> std::string {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "perfbench: %s needs a value\n", K.c_str());
        std::exit(64);
      }
      return argv[++I];
    };
    if (K == "--workload")
      A.Workload = Val();
    else if (K == "--seed")
      A.Seed = std::strtoull(Val().c_str(), nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(Val().c_str(), nullptr);
    else if (K == "--trace")
      A.Trace = Val() == "1";
    else if (K == "--buildd")
      A.Buildd = Val();
    else if (K == "--work")
      A.Work = Val();
    else if (K == "--spans")
      A.SpansOut = Val();
    else if (K == "--mutate-span")
      A.MutateSpan = true;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", K.c_str());
      return 64;
    }
  }
  const Workload *W = nullptr;
  for (const Workload &X : workloads())
    if (X.Name == A.Workload)
      W = &X;
  if (!W || A.Buildd.empty() || A.Work.empty() || A.Seconds <= 0) {
    std::fprintf(stderr, "usage: mco_perfbench --workload build-wp|build-pm|"
                         "fleet|daemon-warm --seed N --seconds S --trace 0|1 "
                         "--buildd PATH --work DIR [--spans FILE]\n");
    return 64;
  }
  fs::create_directories(A.Work);
  if (::chdir(A.Work.c_str()) != 0)
    return 70;
  (void)std::freopen("/dev/null", "r", stdin);

  try {
    Bench B(*W, A);
    Metrics M;
    uint64_t Attempted = 0, Failed = 0;
    std::string Err;
    bool SetupOk = true;
    std::vector<double> SetupS;
    auto SetUp = [&](unsigned R) {
      try {
        SetupS.push_back(B.setup(R));
      } catch (const std::exception &E) {
        // A set-up whose correctness reference fails is a failed op.
        SetupOk = false;
        ++Attempted;
        ++Failed;
        Err = E.what();
      }
    };
    // setup_s is the median of several set-ups (3 for the daemon, whose
    // set-up is the longest); each replaces the previous one with the same
    // state. Half run before the window and half after it, so the median
    // samples the host at both ends of the run, as the latencies do.
    const unsigned Reps = A.Trace ? 1 : W->K == Kind::Daemon ? 3 : 9;
    const unsigned Before = (Reps + 1) / 2;
    for (unsigned R = 0; R < Before && SetupOk; ++R)
      SetUp(R);
    if (SetupOk) {
      std::string RunErr = A.Trace ? B.runTraced(M, Attempted, Failed)
                                   : B.runTimed(M, Attempted, Failed);
      for (unsigned R = Before; R < Reps && SetupOk; ++R)
        SetUp(R);
      if (!RunErr.empty())
        Err = RunErr;
    }
    B.teardown();
    B.writeSpans();
    if (!A.Trace)
      M["setup_s"] = {SetupS.empty() ? 0.0 : median(SetupS), "s"};
    if (!Err.empty())
      std::fprintf(stderr, "perfbench: first failure: %s\n", Err.c_str());
    std::string Out = "{\"correct\": ";
    Out += (Failed == 0 && SetupOk) ? "true" : "false";
    Out += ", \"attempted\": " + std::to_string(Attempted);
    Out += ", \"failed\": " + std::to_string(Failed);
    Out += ", \"metrics\": {";
    bool First = true;
    for (const auto &[Name, VU] : M) {
      Out += First ? "" : ", ";
      First = false;
      Out += "\"" + Name + "\": {\"value\": " + num(VU.first) +
             ", \"unit\": \"" + VU.second + "\"}";
    }
    Out += "}}";
    std::printf("%s\n", Out.c_str());
    return 0;
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 70;
  }
}
