#include "workloads.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <utility>

#include "harness/trace_export.hh"
#include "sched/registry.hh"
#include "workload/benchmarks.hh"

namespace perfbench
{

using namespace schedtask;

namespace
{

TechniqueSpec
specFor(const std::string &name)
{
    TechniqueSpec spec;
    spec.name = name;
    return spec;
}

/** Fig. 7 at paper scale: 32 cores, 2X, 4 + 6 epochs, 512-bit maps. */
BenchWorkload
paper32(std::uint64_t seed)
{
    BenchWorkload w;
    w.name = "paper32";
    w.shape = "8 benchmarks x {Linux, SchedTask}, 32 cores, 2X, "
              "4+6 epochs of 250000 cycles, 512-bit heatmaps, 1 worker";
    for (const std::string &bench : BenchmarkSuite::benchmarkNames()) {
        ExperimentConfig cfg = ExperimentConfig::standard(bench, 2.0)
                                   .withCores(32)
                                   .withEpochs(4, 6)
                                   .withEpochCycles(250000)
                                   .withHeatmapBits(512)
                                   .withSeed(seed);
        cfg.machine.trace = false;
        w.sweep.addComparison(bench, schedTaskCol, cfg,
                              specFor(schedTaskCol));
    }
    return w;
}

/** The six bags at 10x the paper's epoch rate, 2048-bit maps, traced. */
BenchWorkload
epochDense(std::uint64_t seed)
{
    BenchWorkload w;
    w.name = "epoch_dense";
    w.shape = "MPW-A..F x {Linux, SchedTask}, 32 cores, 4+6 epochs of "
              "25000 cycles, 2048-bit heatmaps, epoch trace on, "
              "1 worker";
    for (const std::string &bag : Workload::bagNames()) {
        ExperimentConfig cfg = ExperimentConfig::standardBag(bag)
                                   .withCores(32)
                                   .withEpochs(4, 6)
                                   .withEpochCycles(25000)
                                   .withHeatmapBits(2048)
                                   .withSeed(seed);
        cfg.machine.trace = true;
        w.sweep.addComparison(bag, schedTaskCol, cfg,
                              specFor(schedTaskCol));
    }
    return w;
}

/** Every registered technique in the fast shape, traces exported. */
BenchWorkload
sweepMix(std::uint64_t seed)
{
    BenchWorkload w;
    w.name = "sweep_mix";
    w.workers = 2;
    w.exportTraces = true;
    w.shape = "8 benchmarks x every registered technique + Linux, "
              "8 cores, 1X, 1+2 epochs of 250000 cycles, 512-bit "
              "heatmaps, traces exported, 2 workers";
    const SchedulerRegistry &registry = SchedulerRegistry::instance();
    for (const std::string &bench : BenchmarkSuite::benchmarkNames()) {
        const ExperimentConfig cfg = fastConfig(bench, seed);
        for (const std::string &name : registry.names()) {
            if (!registry.isBaseline(name))
                w.sweep.addComparison(bench, name, cfg, specFor(name));
        }
    }
    return w;
}

void
putBits(std::string &out, std::uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%llx,",
                  static_cast<unsigned long long>(v));
    out += buf;
}

void
putDouble(std::string &out, double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    putBits(out, bits);
}

void
putVector(std::string &out, const std::vector<std::uint64_t> &values)
{
    putBits(out, values.size());
    for (std::uint64_t v : values)
        putBits(out, v);
}

} // namespace

BenchWorkload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    if (name == "paper32")
        return paper32(seed);
    if (name == "epoch_dense")
        return epochDense(seed);
    if (name == "sweep_mix")
        return sweepMix(seed);
    throw std::invalid_argument("unknown workload '" + name + "'");
}

ExperimentConfig
fastConfig(const std::string &benchmark, std::uint64_t seed)
{
    ExperimentConfig cfg = ExperimentConfig::standard(benchmark, 1.0)
                               .withCores(8)
                               .withEpochs(1, 2)
                               .withEpochCycles(250000)
                               .withHeatmapBits(512)
                               .withSeed(seed);
    cfg.machine.trace = false;
    return cfg;
}

std::uint64_t
runDigest(const RunResult &result)
{
    const SimMetrics &m = result.metrics;
    std::string text;
    putBits(text, m.cycles);
    putBits(text, m.instsRetired);
    for (std::uint64_t insts : m.instsByCategory)
        putBits(text, insts);
    putBits(text, m.overheadInsts);
    putBits(text, m.appEvents);
    putVector(text, m.appEventsByPart);
    putVector(text, m.instsByPart);
    putBits(text, m.idleCycles);
    putVector(text, m.perCoreIdleCycles);
    putBits(text, m.migrations);
    putBits(text, m.irqCount);
    putBits(text, m.irqLatencySum);
    putVector(text, m.perThreadInsts);
    putBits(text, m.epochTypeInsts.size());
    for (const auto &epoch : m.epochTypeInsts) {
        std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted(
            epoch.begin(), epoch.end());
        std::sort(sorted.begin(), sorted.end());
        for (const auto &[type, insts] : sorted) {
            putBits(text, type);
            putBits(text, insts);
        }
    }
    text += epochTraceJsonl(m.epochSamples);
    putBits(text, result.numCores);
    putBits(text, result.numThreads);
    putDouble(text, result.freqGhz);
    putDouble(text, result.iHitApp);
    putDouble(text, result.iHitOs);
    putDouble(text, result.iHitAll);
    putDouble(text, result.dHitApp);
    putDouble(text, result.dHitOs);
    putDouble(text, result.itlbHit);
    putDouble(text, result.dtlbHit);
    return stableHash64(text);
}

std::string
hex64(std::uint64_t value)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

} // namespace perfbench
