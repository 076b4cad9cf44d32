/**
 * @file
 * Reproduces Figure 9(a-c): the impact of SchedTask's work-stealing
 * strategy on instruction throughput (vs the Linux baseline), idle
 * time fraction, and the overall i-cache hit rate change.
 *
 * Strategies (Section 5.3 / 6.4):
 *   - Steal nothing          — idle cores stay idle (19% mean idle);
 *   - Steal same work only   — no extra i-cache pollution, small
 *                              idleness reduction;
 *   - Steal similar work also — the default: overlap-guided, takes
 *                              half the matching SuperFunctions;
 *                              reduces FileSrv idleness massively;
 *   - Steal from busiest     — type-agnostic alternative with
 *                              higher i-cache pollution and modest
 *                              gains (mean ~+10.8% in the paper).
 */

#include <cstdio>

#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep.hh"
#include "workload/benchmarks.hh"

using namespace schedtask;

int
main()
{
    const std::vector<std::pair<StealPolicy, std::string>> policies = {
        {StealPolicy::None, "Steal nothing"},
        {StealPolicy::SameOnly, "Steal same only"},
        {StealPolicy::SameAndSimilar, "Steal similar also"},
        {StealPolicy::BusiestFirst, "Steal busiest"},
    };

    // One Linux baseline per benchmark, shared by all four policy
    // variants (the steal policy is invisible to the baseline).
    Sweep sweep;
    for (const std::string &bench : BenchmarkSuite::benchmarkNames()) {
        for (const auto &[policy, name] : policies) {
            sweep.addComparison(
                bench, name,
                ExperimentConfig::standard(bench).withSteal(policy),
                TechniqueSpec{"SchedTask"});
        }
    }
    const SweepResults results = SweepRunner().run(sweep);
    const SweepReport report(sweep, results);

    const SeriesMatrix throughput = report.throughputChange();
    const SeriesMatrix idle = report.idlePercent();
    const SeriesMatrix ihit =
        report.matrix([](const RunResult &base, const RunResult &run) {
            return pointChange(base.iHitAll, run.iHitAll);
        });

    printHeader("Figure 9a: change in instruction throughput (%) "
                "by stealing strategy");
    std::printf("%s", throughput.renderWithGmean("benchmark").c_str());
    printHeader("Figure 9b: fraction of idle time (%)");
    std::printf("%s", idle.render("benchmark").c_str());
    printHeader("Figure 9c: change in overall i-cache hit rate (pp)");
    std::printf("%s", ihit.render("benchmark").c_str());
    return 0;
}
