/**
 * @file
 * Reproduces the Section 4.4 characterization: the cosine
 * similarity of the instruction breakups (per superFuncType) of
 * consecutive epochs. The paper observes low similarity while a
 * benchmark initializes, rising as the main loops start, and
 * stabilizing above 0.995 in steady state — the property that
 * justifies profiling one epoch to schedule the next.
 */

#include <cstdio>
#include <unordered_set>

#include "common/math_utils.hh"
#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep.hh"
#include "stats/table.hh"
#include "workload/benchmarks.hh"

using namespace schedtask;

namespace
{

/** Cosine similarity between two per-type instruction maps. */
double
epochSimilarity(
    const std::unordered_map<std::uint64_t, std::uint64_t> &a,
    const std::unordered_map<std::uint64_t, std::uint64_t> &b)
{
    std::unordered_set<std::uint64_t> keys;
    for (const auto &[k, v] : a)
        keys.insert(k);
    for (const auto &[k, v] : b)
        keys.insert(k);
    std::vector<double> va, vb;
    va.reserve(keys.size());
    vb.reserve(keys.size());
    for (std::uint64_t k : keys) {
        auto ia = a.find(k);
        auto ib = b.find(k);
        va.push_back(ia == a.end()
                         ? 0.0 : static_cast<double>(ia->second));
        vb.push_back(ib == b.end()
                         ? 0.0 : static_cast<double>(ib->second));
    }
    return cosineSimilarity(va, vb);
}

} // namespace

int
main()
{
    printHeader("Section 4.4: cosine similarity of instruction "
                "breakups across consecutive epochs (Linux baseline)");

    constexpr unsigned epochs = 10;
    TextTable table({"benchmark", "e1-2", "e2-3", "e3-4", "e4-5",
                     "e5-6", "e6-7", "e7-8", "e8-9", "e9-10"});

    // One Linux run per benchmark, measured from the first epoch on
    // (no warmup: the bring-up epochs are the point), with the
    // per-epoch breakup series recorded.
    ExperimentConfig cfg;
    cfg.withEpochs(0, epochs);
    cfg.machine.recordEpochBreakups = true;
    Sweep sweep;
    sweep.deriveSeeds(false);
    for (const std::string &bench : BenchmarkSuite::benchmarkNames()) {
        cfg.parts = {{bench, 2.0}};
        sweep.add(bench, "Linux", cfg, TechniqueSpec{"Linux"});
    }
    const SweepResults results = SweepRunner().run(sweep);

    for (const std::string &bench : sweep.rows()) {
        const auto &series =
            results.at(bench, "Linux").metrics.epochTypeInsts;
        std::vector<std::string> cells = {bench};
        for (unsigned e = 0; e + 1 < epochs; ++e) {
            cells.push_back(
                e + 1 < series.size()
                    ? TextTable::num(
                          epochSimilarity(series[e], series[e + 1]), 3)
                    : "-");
        }
        table.addRow(std::move(cells));
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("Paper: similarity rises through bring-up and "
                "stabilizes above 0.995 in steady state.\n");
    return 0;
}
