/**
 * @file
 * Ablation of SchedTask's TAlloc design choices (the knobs
 * DESIGN.md calls out beyond the paper's own Figure 9/11 studies):
 *
 *  - epoch length: 0.4x / 1x / 2x the default (the paper's 3 ms);
 *  - interrupt routing: TAlloc programming the IRQ controller
 *    versus leaving interrupts round-robin;
 *  - demand smoothing: the EMA on per-type shares that damps
 *    allocation ping-pong (0 = react fully each epoch).
 *
 * Reported for the two most scheduler-sensitive benchmarks (Apache,
 * FileSrv) at 2X as throughput change vs the Linux baseline.
 */

#include <cstdio>
#include <functional>

#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep.hh"
#include "stats/table.hh"

using namespace schedtask;

int
main()
{
    printHeader("TAlloc ablations: SchedTask throughput change (%) "
                "vs Linux");

    const std::vector<std::string> benches = {"Apache", "FileSrv"};

    // Variant name -> config derivation. The four variants that only
    // touch SchedTask knobs share one deduplicated Linux baseline
    // per benchmark; the epoch variants change the machine and get
    // their own.
    using Variant = std::pair<
        std::string,
        std::function<ExperimentConfig(const std::string &)>>;
    const std::vector<Variant> variants = {
        {"default (250k-cycle epoch)",
         [](const std::string &b) {
             return ExperimentConfig::standard(b);
         }},
        {"short epoch (100k)",
         [](const std::string &b) {
             return ExperimentConfig::standard(b).withEpochCycles(
                 100000);
         }},
        {"long epoch (500k)",
         [](const std::string &b) {
             return ExperimentConfig::standard(b)
                 .withEpochCycles(500000)
                 .withEpochs(3, 4);
         }},
        {"no interrupt routing",
         [](const std::string &b) {
             return ExperimentConfig::standard(b)
                 .withRouteInterrupts(false);
         }},
        {"no demand smoothing",
         [](const std::string &b) {
             // React fully to each epoch's measurement.
             return ExperimentConfig::standard(b)
                 .withDemandSmoothing(1.0);
         }},
        {"steal busiest (type-blind)",
         [](const std::string &b) {
             return ExperimentConfig::standard(b).withSteal(
                 StealPolicy::BusiestFirst);
         }},
    };

    Sweep sweep;
    for (const std::string &bench : benches) {
        for (const auto &[name, make] : variants) {
            sweep.addComparison(bench, name, make(bench),
                                TechniqueSpec{"SchedTask"});
        }
    }
    const SweepResults results = SweepRunner().run(sweep);
    const SeriesMatrix gains =
        SweepReport(sweep, results).throughputChange();

    TextTable table({"variant", "Apache", "FileSrv"});
    for (const auto &[name, make] : variants) {
        std::vector<std::string> cells = {name};
        for (const std::string &bench : benches)
            cells.push_back(TextTable::pct(gains.get(bench, name)));
        table.addRow(std::move(cells));
    }

    std::printf("%s\n", table.render().c_str());
    std::printf("Expected: the default dominates; short epochs "
                "re-allocate on noise, no-routing leaks interrupt "
                "pollution onto every core, type-blind stealing "
                "(the paper's 'modest benefits' alternative) gives "
                "up i-cache locality.\n");
    return 0;
}
