//===- ServeMixed.cpp - Fault-tolerant serving of a mixed stream ----------===//
//
// Part of the AXI4MLIR reproduction. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A serve::Server built from configs/serve_pool.json as it stands,
/// including its `threads: 0`: drain() runs the jobs on the calling
/// thread. (With worker threads the jobs run on vCPUs the benchmark's
/// speed calibration does not see, and the same seed's host throughput
/// moved by 15% between runs, so no host figure was steady.) Each pass
/// over the seeded stream is served by a fresh pool, as one axi4mlir-serve
/// invocation would be, so the cold plan cache and the designated
/// instance's brown-out (scaled to a quarter of the stream, as
/// bench/throughput.cpp does) recur every pass. Jobs are submitted in
/// waves of at most queue_depth and each wave is drained, so admission
/// never sheds. A job's host latency runs from its wave's first submit to
/// the end of the wave's drain. Spans cover only the benchmark's calls
/// into the serve layer; the pool's own layer calls are not visible here.
///
//===----------------------------------------------------------------------===//

#include "Jobs.h"

#include "parser/ConfigParser.h"

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>

using namespace perfbench;
using namespace axi4mlir;

namespace {

struct Tally {
  uint64_t Jobs = 0;
  uint64_t Drains = 0;
  uint64_t DmaWords = 0;
  uint64_t Retries = 0, Failovers = 0, BreakerTrips = 0, CpuFallbacks = 0,
           Shed = 0, PlanHits = 0, PlanMisses = 0;

  void addStats(const serve::ServerStats &S) {
    Retries += S.Retries;
    Failovers += S.Failovers;
    BreakerTrips += S.BreakerTrips;
    CpuFallbacks += S.CpuFallbacks;
    Shed += S.Overloaded + S.DeadlineExceeded + S.Rejected;
    PlanHits += S.Plans.Hits;
    PlanMisses += S.Plans.Misses;
  }
};

class ServeMixed : public Workload {
public:
  ServeMixed(uint64_t Seed, const std::string &Root)
      : Stream(makeServeStream(Seed)) {
    std::string Path = Root + "/configs/serve_pool.json";
    std::ifstream In(Path);
    std::ostringstream Text;
    Text << In.rdbuf();
    if (!In)
      throw std::runtime_error("cannot read '" + Path + "'");
    ConfigText = Text.str();
    // Expected outputs: every job's fault-free solo checksum.
    setUp();
    tearDown();
    for (const serve::JobRequest &Request : Stream) {
      serve::JobOutcome Solo =
          serve::runSoloJob(Request, Config->Accelerators, Options);
      if (Solo.Status != serve::JobStatus::Completed)
        throw std::runtime_error("serve-mixed: solo run of " +
                                 describe(Request) + " failed: " + Solo.Error);
      Expected.push_back(Solo.Checksum);
    }
  }

  void setUp() override {
    std::string Error;
    auto Parsed = parser::parseSystemConfig(ConfigText, &Error);
    if (failed(Parsed))
      throw std::runtime_error("serve_pool.json: " + Error);
    Config.emplace(std::move(*Parsed));
    Options = serve::makeServerOptions(*Config);
    buildPool(SetUpPool);
  }

  // The set-up's pool is not the loop's: set-up samples run in a forked
  // child, which must not shut down the pool (and its worker threads,
  // absent in the child) that the loop is serving with.
  void tearDown() override { SetUpPool.reset(); }

  size_t passLength() const override { return Stream.size(); }

  void restart() override { endPass(); }

  StepResult step(Tracer *T) override {
    std::optional<ScopedSpan> Root;
    if (T) {
      T->setJob(Waves);
      Root.emplace(T, "bench.job");
    }
    ++Waves;
    if (!Current)
      startPass(T);
    Tally &Into = T ? Traced : Untraced;
    PassTraced = T != nullptr;

    size_t End = std::min(Pos + Options.QueueDepth, Stream.size());
    int64_t Submitted = Tracer::nowNs();
    std::vector<std::pair<uint64_t, size_t>> Ids;
    for (size_t I = Pos; I < End; ++I) {
      ScopedSpan S(T, "serve.submit");
      Ids.emplace_back(Current->submit(Stream[I]), I);
    }
    {
      ScopedSpan S(T, "serve.drain");
      Current->drain();
    }
    int64_t Drained = Tracer::nowNs();
    std::vector<serve::JobOutcome> Outcomes;
    {
      ScopedSpan S(T, "serve.take_outcomes");
      Outcomes = Current->takeOutcomes();
    }

    StepResult Result;
    Result.Jobs = static_cast<unsigned>(End - Pos);
    // The jobs of a wave are submitted together and all complete at its
    // drain, so the wave is one latency sample: percentiles then rest on
    // independent samples instead of 24 copies of each.
    Result.LatencyMs.push_back(static_cast<double>(Drained - Submitted) / 1e6);
    std::map<uint64_t, const serve::JobOutcome *> ById;
    for (const serve::JobOutcome &Out : Outcomes)
      ById[Out.Id] = &Out;
    for (auto [Id, Index] : Ids) {
      auto It = ById.find(Id);
      const serve::JobOutcome *Out = It == ById.end() ? nullptr : It->second;
      bool Ok = Out && Out->Status == serve::JobStatus::Completed &&
                Out->Checksum == Expected[Index];
      if (Out)
        Into.DmaWords += Out->Report.DmaBytesMoved / 4;
      if (Ok)
        continue;
      ++Result.Failed;
      std::fprintf(stderr, "serve-mixed: %s: %s\n",
                   describe(Stream[Index]).c_str(),
                   !Out ? "no outcome"
                   : Out->Status != serve::JobStatus::Completed
                       ? Out->Error.c_str()
                       : "checksum differs from the fault-free solo run");
    }
    Into.Jobs += Result.Jobs;
    Into.Drains += 1;

    Pos = End;
    if (Pos == Stream.size()) {
      ScopedSpan S(T, "serve.lifecycle");
      endPass();
      Result.EndsBlock = true;
    }
    return Result;
  }

  StepResult finish() override {
    endPass();
    return {};
  }

  LayerValues layerValues(const std::map<std::string, int64_t> &SelfNs,
                          uint64_t) const override {
    auto self = [&](const char *Name) {
      auto It = SelfNs.find(Name);
      return It == SelfNs.end() ? 0.0 : static_cast<double>(It->second);
    };
    LayerValues V;
    const Tally &T = Traced;
    if (!T.Jobs)
      return V;
    // Fault-path counts per pass over the stream.
    double PerPass = static_cast<double>(Stream.size()) /
                     static_cast<double>(T.Jobs);
    V["serve.submit_us"] = self("serve.submit") / 1e3 / T.Jobs;
    V["serve.drain_ms"] = self("serve.drain") / 1e6 / T.Drains;
    V["serve.plan_cache_hit_ratio"] = ratio(T);
    V["serve.retries"] = T.Retries * PerPass;
    V["serve.failovers"] = T.Failovers * PerPass;
    V["serve.breaker_trips"] = T.BreakerTrips * PerPass;
    V["serve.cpu_fallbacks"] = T.CpuFallbacks * PerPass;
    V["serve.shed"] = T.Shed * PerPass;
    if (T.DmaWords)
      V["exec.run_ns_per_dma_word"] =
          self("serve.drain") / static_cast<double>(T.DmaWords);
    return V;
  }

  void printReport() const override {
    const Tally &T = Untraced.Jobs ? Untraced : Traced;
    std::printf("serve-mixed: %zu-job stream, %u worker threads, waves of "
                "%u\n",
                Stream.size(), Options.Threads, Options.QueueDepth);
    std::printf("serve (untraced): %llu jobs | retries %llu | failovers %llu "
                "| breaker trips %llu | cpu fallbacks %llu | shed %llu | "
                "plan-cache hit ratio %.4f\n",
                static_cast<unsigned long long>(T.Jobs),
                static_cast<unsigned long long>(T.Retries),
                static_cast<unsigned long long>(T.Failovers),
                static_cast<unsigned long long>(T.BreakerTrips),
                static_cast<unsigned long long>(T.CpuFallbacks),
                static_cast<unsigned long long>(T.Shed), ratio(T));
  }

private:
  static double ratio(const Tally &T) {
    uint64_t Lookups = T.PlanHits + T.PlanMisses;
    return Lookups ? static_cast<double>(T.PlanHits) /
                         static_cast<double>(Lookups)
                   : 0;
  }

  /// A pool as serve_pool.json describes it, its designated instance
  /// browning out for a quarter of the stream.
  void buildPool(std::optional<serve::Server> &Pool) const {
    Pool.emplace(Config->Accelerators, Options);
    if (Config->HasFaults && Config->Serve.FaultyInstance >= 0 &&
        static_cast<unsigned>(Config->Serve.FaultyInstance) <
            Pool->numInstances()) {
      serve::InstanceFaults Faults;
      Faults.Plan = Config->Faults;
      Faults.JobsAffected = static_cast<unsigned>(Stream.size() / 4);
      Faults.Spares = Config->SpareAccelerators;
      Pool->setInstanceFaults(
          static_cast<unsigned>(Config->Serve.FaultyInstance), Faults);
    }
  }

  void startPass(Tracer *T) {
    ScopedSpan S(T, "serve.lifecycle");
    buildPool(Current);
    Pos = 0;
  }

  void endPass() {
    if (!Current)
      return;
    Current->shutdown();
    (PassTraced ? Traced : Untraced).addStats(Current->stats());
    Current.reset();
    Pos = 0;
  }

  std::vector<serve::JobRequest> Stream;
  std::vector<uint64_t> Expected;
  std::string ConfigText;
  std::optional<parser::SystemConfig> Config;
  serve::ServerOptions Options;
  std::optional<serve::Server> Current, SetUpPool;
  size_t Pos = 0;
  uint64_t Waves = 0;
  bool PassTraced = false;
  Tally Traced, Untraced;
};

} // namespace

std::unique_ptr<Workload>
perfbench::makeServeMixedWorkload(uint64_t Seed, const std::string &Root) {
  return std::make_unique<ServeMixed>(Seed, Root);
}
