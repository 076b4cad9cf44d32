/**
 * @file
 * Simulator-performance benchmark: measures how fast the simulator
 * itself runs, not what it predicts.
 *
 * Executes the two hot-path-heavy figure workloads in their fast
 * configurations (the Figure 7 technique cross and a Figure 9 style
 * steal-policy sweep) and reports, per scenario:
 *
 *  - wall-clock time of the whole sweep (minimum over --repeat runs),
 *  - simulated instructions retired per wall-second (the headline
 *    simulator-throughput number the perf gate regresses on),
 *  - a per-phase breakdown from the EpochTrace layer (instructions
 *    by SuperFunction category, scheduler-overhead instructions,
 *    idle core-cycles, simulated cycles).
 *
 * Output is a single JSON document (schema "schedtask-bench-v1") on
 * stdout or --out FILE. tools/perf_gate.sh wraps this binary and
 * compares the result against the committed BENCH_*.json baseline.
 *
 * Wall-clock use is intentional and confined to measurement; the
 * simulation results themselves stay bitwise deterministic (the
 * sweeps run with label-derived seeds exactly like the figures).
 */

#include <chrono> // lint:allow(DET-01) this binary measures wall time
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/parse_num.hh"
#include "core/sf_type.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "workload/benchmarks.hh"

using namespace schedtask;

namespace
{

/** Aggregated per-phase counters of one sweep execution. */
struct PhaseTotals
{
    std::uint64_t runs = 0;
    std::uint64_t instsRetired = 0;
    std::uint64_t instsByCategory[numSfCategories] = {};
    std::uint64_t overheadInsts = 0;
    std::uint64_t idleCycles = 0;
    std::uint64_t simCycles = 0;
    std::uint64_t epochSamples = 0;
};

/** One measured scenario: a sweep plus its timing and totals. */
struct ScenarioResult
{
    std::string name;
    double wallMs = 0.0;
    PhaseTotals totals;

    double
    instsPerSecond() const
    {
        if (wallMs <= 0.0)
            return 0.0;
        return static_cast<double>(totals.instsRetired)
            / (wallMs / 1000.0);
    }
};

/** Fast-shape config with epoch telemetry on, so every run fills
 *  metrics.epochSamples (the EpochTrace layer) for the breakdown. */
ExperimentConfig
tracedFastConfig(const std::string &bench)
{
    ExperimentConfig config = ExperimentConfig::standard(bench, 1.0)
                                  .withCores(8)
                                  .withEpochs(1, 2);
    config.machine.trace = true;
    return config;
}

/** The Figure 7 fast cross: 8 benchmarks x 5 techniques + baselines. */
Sweep
fig07FastSweep()
{
    return Sweep::cross(BenchmarkSuite::benchmarkNames(),
                        comparedTechniques(), tracedFastConfig);
}

/** A Figure 9 style steal-policy sweep in the same fast shape. */
Sweep
fig09FastSweep()
{
    const std::vector<std::pair<StealPolicy, std::string>> policies = {
        {StealPolicy::None, "Steal nothing"},
        {StealPolicy::SameOnly, "Steal same only"},
        {StealPolicy::SameAndSimilar, "Steal similar also"},
        {StealPolicy::BusiestFirst, "Steal busiest"},
    };
    Sweep sweep;
    for (const std::string &bench : BenchmarkSuite::benchmarkNames()) {
        for (const auto &[policy, name] : policies) {
            sweep.addComparison(bench, name,
                                tracedFastConfig(bench)
                                    .withSteal(policy),
                                TechniqueSpec{"SchedTask"});
        }
    }
    return sweep;
}

/** Accumulate one finished run. The per-category and idle numbers
 *  come from the run's epoch samples (the EpochTrace layer), the
 *  whole-run totals from SimMetrics. */
void
accumulate(PhaseTotals &totals, const RunResult &result)
{
    ++totals.runs;
    totals.instsRetired += result.metrics.instsRetired;
    totals.overheadInsts += result.metrics.overheadInsts;
    totals.simCycles += result.metrics.cycles;
    totals.epochSamples += result.metrics.epochSamples.size();
    for (const EpochSample &sample : result.metrics.epochSamples) {
        totals.idleCycles += sample.idleCycles;
        for (const EpochCoreSample &core : sample.cores)
            for (unsigned cat = 0; cat < numSfCategories; ++cat)
                totals.instsByCategory[cat] +=
                    core.instsByCategory[cat];
    }
}

/** Worker threads of every measured sweep. Fixed at one so the
 *  wall time does not depend on the host's core count; the committed
 *  baselines are recorded at "jobs": 1 too. */
constexpr unsigned benchJobs = 1;

/**
 * Run one scenario --repeat times and keep the fastest wall time
 * (the standard way to suppress scheduling noise on a shared
 * machine). Phase totals come from the last repeat — the sweeps are
 * deterministic, so every repeat produces identical counters.
 */
ScenarioResult
measure(const std::string &name, const Sweep &sweep, unsigned repeats)
{
    using Clock = std::chrono::steady_clock; // lint:allow(DET-01) timing only

    ScenarioResult scenario;
    scenario.name = name;
    double best_ms = -1.0;
    for (unsigned r = 0; r < repeats; ++r) {
        SweepOptions options;
        options.jobs = benchJobs;
        options.progress = false;
        PhaseTotals totals;
        options.onRunDone = [&totals](const RunRequest &,
                                      const RunResult &result) {
            accumulate(totals, result);
        };
        const auto start = Clock::now();
        SweepRunner(options).run(sweep);
        const auto end = Clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(end - start)
                .count();
        if (best_ms < 0.0 || ms < best_ms)
            best_ms = ms;
        scenario.totals = totals;
    }
    scenario.wallMs = best_ms;
    return scenario;
}

std::string
jsonForScenario(const ScenarioResult &s)
{
    char buf[1024];
    std::string out = "    {\n";
    std::snprintf(buf, sizeof buf,
                  "      \"name\": \"%s\",\n"
                  "      \"runs\": %llu,\n"
                  "      \"wallMs\": %.1f,\n"
                  "      \"instsRetired\": %llu,\n"
                  "      \"instsPerSecond\": %.0f,\n",
                  s.name.c_str(),
                  static_cast<unsigned long long>(s.totals.runs),
                  s.wallMs,
                  static_cast<unsigned long long>(
                      s.totals.instsRetired),
                  s.instsPerSecond());
    out += buf;
    out += "      \"phases\": {\n";
    for (unsigned cat = 0; cat < numSfCategories; ++cat) {
        std::snprintf(buf, sizeof buf, "        \"%sInsts\": %llu,\n",
                      sfCategoryName(static_cast<SfCategory>(cat)),
                      static_cast<unsigned long long>(
                          s.totals.instsByCategory[cat]));
        out += buf;
    }
    std::snprintf(
        buf, sizeof buf,
        "        \"overheadInsts\": %llu,\n"
        "        \"idleCycles\": %llu,\n"
        "        \"simCycles\": %llu,\n"
        "        \"epochSamples\": %llu\n"
        "      }\n",
        static_cast<unsigned long long>(s.totals.overheadInsts),
        static_cast<unsigned long long>(s.totals.idleCycles),
        static_cast<unsigned long long>(s.totals.simCycles),
        static_cast<unsigned long long>(s.totals.epochSamples));
    out += buf;
    out += "    }";
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    unsigned repeats = 1;
    const char *out_path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--repeat") == 0 && i + 1 < argc) {
            const auto parsed = parseUnsigned(argv[++i]);
            if (!parsed || *parsed == 0) {
                std::fprintf(stderr, "bad --repeat value\n");
                return 2;
            }
            repeats = static_cast<unsigned>(*parsed);
        } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
            out_path = argv[++i];
        } else {
            std::fprintf(stderr,
                         "usage: %s [--repeat N] [--out FILE]\n",
                         argv[0]);
            return 2;
        }
    }

    std::vector<ScenarioResult> scenarios;
    scenarios.push_back(
        measure("fig07_fast", fig07FastSweep(), repeats));
    scenarios.push_back(
        measure("fig09_fast", fig09FastSweep(), repeats));

    std::string json = "{\n  \"schema\": \"schedtask-bench-v1\",\n";
    char buf[64];
    std::snprintf(buf, sizeof buf, "  \"jobs\": %u,\n", benchJobs);
    json += buf;
    json += "  \"scenarios\": [\n";
    for (std::size_t i = 0; i < scenarios.size(); ++i) {
        json += jsonForScenario(scenarios[i]);
        json += i + 1 < scenarios.size() ? ",\n" : "\n";
    }
    json += "  ]\n}\n";

    if (out_path != nullptr) {
        std::FILE *f = std::fopen(out_path, "w");
        if (f == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", out_path);
            return 1;
        }
        std::fputs(json.c_str(), f);
        std::fclose(f);
        for (const ScenarioResult &s : scenarios)
            std::fprintf(stderr, "%s: %.0f ms, %.2fM insts/s\n",
                         s.name.c_str(), s.wallMs,
                         s.instsPerSecond() / 1e6);
    } else {
        std::fputs(json.c_str(), stdout);
    }
    return 0;
}
