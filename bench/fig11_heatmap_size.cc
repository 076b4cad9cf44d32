/**
 * @file
 * Reproduces Figure 11 and the Section 6.5 discussion: the quality
 * of the Bloom-filter overlap ranking versus the exact footprint
 * ranking, as a function of the Page-heatmap register width.
 *
 * For each benchmark we build the system-wide stats table of a
 * steady-state epoch under SchedTask, rank every superFuncType's
 * peers by (a) the Hamming weight of ANDed heatmaps and (b) the
 * exact common-page counts of the footprints, and report Kendall's
 * tau-b between the two rankings, averaged over the types.
 *
 * The second table reports the mean SchedTask performance benefit
 * per register width (paper: 128b +15.9%, 256b +19.4%, 512b +22.8%,
 * 1024b +22.6%, 2048b +22.7%, ideal ranking +25.0%).
 */

#include <cstdio>
#include <unordered_set>

#include "common/math_utils.hh"
#include "core/schedtask_sched.hh"
#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep.hh"
#include "sim/machine.hh"
#include "stats/table.hh"
#include "workload/benchmarks.hh"

using namespace schedtask;

namespace
{

const std::vector<unsigned> widths = {128, 256, 512, 1024, 2048};

/**
 * Mean Kendall tau-b between the Bloom-filter ranking and the
 * ranking over the *actual touched page sets* (the paper compares
 * against "the actual set of i-cache line addresses").
 */
double
rankingQuality(const std::string &bench, unsigned bits)
{
    BenchmarkSuite suite;
    Workload workload = Workload::buildSingle(suite, bench, 2.0, 32);
    MachineParams mp;
    mp.numCores = 32;
    mp.heatmapBits = bits;
    mp.trackExactPages = true;
    SchedTaskScheduler sched;
    Machine machine(mp, HierarchyParams::paperDefault(), suite,
                    workload, sched);
    // Align the exact-page window with the stats table's window:
    // TAlloc aggregates exactly the final epoch.
    machine.run(4 * mp.epochCycles);
    machine.clearExactPages();
    machine.run(mp.epochCycles);

    const StatsTable &stats = sched.talloc().systemStats();
    const OverlapTable bloom = OverlapTable::fromHeatmaps(stats);
    const auto &exact_pages = machine.exactPagesByType();

    auto exactOverlap = [&](SfType a, SfType b) -> double {
        auto ia = exact_pages.find(a.raw());
        auto ib = exact_pages.find(b.raw());
        if (ia == exact_pages.end() || ib == exact_pages.end())
            return 0.0;
        double common = 0.0;
        for (Addr pf : ia->second)
            common += ib->second.count(pf) ? 1.0 : 0.0;
        return common;
    };

    std::vector<double> taus;
    for (const auto &[raw, entry] : stats.rows()) {
        const SfType type = SfType::fromRaw(raw);
        const auto &peers = bloom.peersOf(type);
        if (peers.size() < 3)
            continue;
        std::vector<double> bloom_scores, exact_scores;
        std::unordered_set<std::uint64_t> distinct;
        for (const OverlapPeer &peer : peers) {
            bloom_scores.push_back(static_cast<double>(peer.overlap));
            const double ex = exactOverlap(type, peer.type);
            exact_scores.push_back(ex);
            distinct.insert(static_cast<std::uint64_t>(ex));
        }
        // A ranking with fewer than three distinct levels carries
        // no ordering information; tau over it is pure tie noise.
        if (distinct.size() < 3)
            continue;
        taus.push_back(kendallTauB(bloom_scores, exact_scores));
    }
    return arithmeticMean(taus);
}

} // namespace

int
main()
{
    printHeader("Figure 11: Kendall rank correlation of the "
                "Bloom-filter overlap ranking vs the exact ranking");

    const auto &benchmarks = BenchmarkSuite::benchmarkNames();
    std::vector<std::string> cols;
    for (unsigned b : widths)
        cols.push_back(std::to_string(b) + " bits");
    SeriesMatrix tau(benchmarks, cols);

    // The tau study drives Machine by hand (it needs the stats table
    // and the exact page sets mid-run), so it parallelizes over the
    // benchmark x width grid rather than through a Sweep.
    parallelFor(benchmarks.size() * widths.size(),
                [&](std::size_t i) {
                    const std::string &bench =
                        benchmarks[i / widths.size()];
                    const unsigned b = widths[i % widths.size()];
                    tau.set(bench, std::to_string(b) + " bits",
                            rankingQuality(bench, b));
                    std::fprintf(stderr, ".");
                });
    std::fprintf(stderr, " tau grid done\n");
    std::printf("%s\n", tau.render("benchmark", 2).c_str());

    printHeader("Section 6.5: mean SchedTask throughput benefit (%) "
                "per register width (gmean over benchmarks)");

    // One sweep over benchmark x {widths, ideal}. The Linux baseline
    // does not consult the heatmap, so each benchmark's baseline
    // deduplicates to a single run shared by every column.
    Sweep sweep;
    std::vector<std::string> perf_cols = cols;
    perf_cols.push_back("ideal ranking");
    for (const std::string &bench : benchmarks) {
        for (unsigned b : widths)
            sweep.addComparison(
                bench, std::to_string(b) + " bits",
                ExperimentConfig::standard(bench).withHeatmapBits(b),
                TechniqueSpec{"SchedTask"});
        // Ideal ranking: exact footprint overlap, no Bloom filter.
        sweep.addComparison(
            bench, "ideal ranking",
            ExperimentConfig::standard(bench).withExactOverlap(),
            TechniqueSpec{"SchedTask"});
    }
    const SweepResults results = SweepRunner().run(sweep);
    const SeriesMatrix gains =
        SweepReport(sweep, results).throughputChange();

    TextTable perf({"configuration", "gmean benefit (%)"});
    for (const std::string &col : perf_cols)
        perf.addRow({col, TextTable::pct(geometricMeanPercent(
                              gains.column(col)))});
    std::printf("%s\n", perf.render().c_str());
    std::printf("Paper: 128b +15.9, 256b +19.4, 512b +22.8, "
                "1024b +22.6, 2048b +22.7, ideal +25.0\n");
    return 0;
}
