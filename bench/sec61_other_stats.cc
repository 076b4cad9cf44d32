/**
 * @file
 * Reproduces the "Other statistics" of Section 6.1 plus the TLB,
 * interrupt-latency and fairness results:
 *
 *  (1) SchedTask overheads — TAlloc is negligible (<0.01% of
 *      execution), TMigrate ~3.2%, comparable to the Linux
 *      scheduler's share in the baseline;
 *  (2) iTLB/dTLB hit-rate improvements (+0.98 pp / +0.65 pp);
 *  (3) mean interrupt dispatch latency (+0.53% for SchedTask);
 *  (4) Jain's fairness index of per-thread instruction throughput
 *      (0.99 for SchedTask, thanks to FCFS queues).
 */

#include <cstdio>
#include <vector>

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
    printHeader("Section 6.1 other statistics (2X workload, "
                "aggregated over the 8 benchmarks)");

    Sweep sweep;
    for (const std::string &bench : BenchmarkSuite::benchmarkNames())
        sweep.addComparison(bench, "SchedTask",
                            ExperimentConfig::standard(bench),
                            TechniqueSpec{"SchedTask"});
    const SweepResults results = SweepRunner().run(sweep);
    const SweepReport report(sweep, results);

    std::vector<double> overhead_frac, itlb_delta, dtlb_delta;
    std::vector<double> irq_latency_change, fairness;
    std::vector<double> irq_latency_base, irq_latency_st;

    for (const std::string &bench : BenchmarkSuite::benchmarkNames()) {
        const RunResult &base = report.baselineOf(bench);
        const RunResult &st = report.run(bench, "SchedTask");

        overhead_frac.push_back(
            100.0 * static_cast<double>(st.metrics.overheadInsts)
            / static_cast<double>(st.metrics.instsRetired));
        itlb_delta.push_back(pointChange(base.itlbHit, st.itlbHit));
        dtlb_delta.push_back(pointChange(base.dtlbHit, st.dtlbHit));
        irq_latency_change.push_back(
            percentChange(base.metrics.meanIrqLatency(),
                          st.metrics.meanIrqLatency()));
        irq_latency_base.push_back(base.metrics.meanIrqLatency());
        irq_latency_st.push_back(st.metrics.meanIrqLatency());

        // Fairness over threads' retired instructions.
        std::vector<double> per_thread;
        for (std::uint64_t v : st.metrics.perThreadInsts)
            per_thread.push_back(static_cast<double>(v));
        fairness.push_back(jainFairness(per_thread));
    }

    TextTable table({"statistic", "measured (mean)", "paper"});
    table.addRow({"scheduler routine share of insts (%)",
                  TextTable::num(arithmeticMean(overhead_frac), 2),
                  "~3.2"});
    table.addRow({"iTLB hit-rate change (pp)",
                  TextTable::pct(arithmeticMean(itlb_delta), 2),
                  "+0.98"});
    table.addRow({"dTLB hit-rate change (pp)",
                  TextTable::pct(arithmeticMean(dtlb_delta), 2),
                  "+0.65"});
    table.addRow({"mean interrupt latency change (%)",
                  TextTable::pct(arithmeticMean(irq_latency_change),
                                 2),
                  "+0.53"});
    table.addRow({"mean interrupt latency (cycles)",
                  TextTable::num(arithmeticMean(irq_latency_base), 0)
                      + " -> "
                      + TextTable::num(arithmeticMean(irq_latency_st),
                                       0),
                  "(absolute; small either way)"});
    table.addRow({"Jain fairness index",
                  TextTable::num(arithmeticMean(fairness), 3),
                  "0.99"});
    std::printf("%s\n", table.render().c_str());
    return 0;
}
