/**
 * @file
 * Reproduces the appendix's Table 4: sensitivity to the number of
 * cores (8, 16, 24, 32), at the 2X workload, throughput change
 * relative to the Linux baseline with the same core count.
 *
 * Paper: SchedTask +18/+27/+27/+23% gmean for 8/16/24/32 cores;
 * DisAggregateOS and SLICC struggle at low core counts (regions/
 * collectives cannot be cut finely enough).
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
    printHeader("Appendix Table 4: impact of the core count on "
                "throughput change (%)");

    const std::vector<unsigned> core_counts = {8, 16, 24, 32};

    for (unsigned cores : core_counts) {
        std::vector<std::string> headers = {"technique"};
        for (const std::string &b : BenchmarkSuite::benchmarkNames())
            headers.push_back(b);
        headers.push_back("gmean");
        TextTable table(headers);

        const Sweep sweep = Sweep::cross(
            BenchmarkSuite::benchmarkNames(), comparedTechniques(),
            [cores](const std::string &bench) {
                return ExperimentConfig::standard(bench).withCores(
                    cores);
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
        std::printf("\n-- %u cores --\n%s", cores,
                    table.render().c_str());
    }
    return 0;
}
