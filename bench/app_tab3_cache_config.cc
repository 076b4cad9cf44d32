/**
 * @file
 * Reproduces the appendix's Table 3: sensitivity to the cache
 * configuration.
 *
 *   Config1 — 2-level: private 32 KB L1s + shared 8 MB L2 at 18
 *             cycles (highest miss penalty -> largest gains);
 *   Config2 — 2-level: shared 8 MB L2 at 8 cycles (lowest penalty
 *             -> smallest gains);
 *   Config3 — the paper's default 3-level hierarchy.
 *
 * Paper: SchedTask +24/+21/+23% gmean for Config1/2/3.
 */

#include <cstdio>

#include "common/math_utils.hh"
#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep.hh"
#include "stats/table.hh"
#include "workload/benchmarks.hh"

using namespace schedtask;

int
main()
{
    printHeader("Appendix Table 3: impact of the cache "
                "configuration on throughput change (%)");

    const std::vector<std::pair<std::string, HierarchyParams>>
        configs = {
            {"Config1", HierarchyParams::config1()},
            {"Config2", HierarchyParams::config2()},
            {"Config3", HierarchyParams::paperDefault()},
        };

    for (const auto &[name, hier] : configs) {
        std::vector<std::string> headers = {"technique"};
        for (const std::string &b : BenchmarkSuite::benchmarkNames())
            headers.push_back(b);
        headers.push_back("gmean");
        TextTable table(headers);

        const Sweep sweep = Sweep::cross(
            BenchmarkSuite::benchmarkNames(), comparedTechniques(),
            [&hier](const std::string &bench) {
                return ExperimentConfig::standard(bench)
                    .withHierarchy(hier);
            });
        const SweepResults results = SweepRunner().run(sweep);
        const SeriesMatrix perf =
            SweepReport(sweep, results).throughputChange();

        for (const TechniqueSpec &t : comparedTechniques()) {
            const std::string &tname = t.name;
            std::vector<std::string> row = {tname};
            for (const std::string &bench :
                 BenchmarkSuite::benchmarkNames())
                row.push_back(
                    TextTable::pct(perf.get(bench, tname), 0));
            row.push_back(TextTable::pct(
                geometricMeanPercent(perf.column(tname)), 0));
            table.addRow(std::move(row));
        }
        std::printf("\n-- %s --\n%s", name.c_str(),
                    table.render().c_str());
    }
    std::printf("\nPaper: SchedTask +24/+21/+23%% gmean for "
                "Config1/2/3; all techniques gain least on Config2 "
                "(cheapest misses).\n");
    return 0;
}
