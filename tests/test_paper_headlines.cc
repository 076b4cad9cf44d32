/**
 * @file
 * The paper's headline comparative claims, as executable
 * assertions on small machines. These are the results a reader
 * would check first; if a refactor breaks one of these, the
 * reproduction is broken in a way the unit tests cannot see.
 */

#include <gtest/gtest.h>

#include "harness/experiment.hh"
#include "workload/benchmarks.hh"

using namespace schedtask;

namespace
{

ExperimentConfig
smallConfig(const std::string &bench, double scale = 2.0)
{
    ExperimentConfig cfg = ExperimentConfig::standard(bench, scale);
    cfg.baselineCores = 16;
    cfg.warmupEpochs = 4;
    cfg.measureEpochs = 4;
    cfg.machine.epochCycles = 100000;
    return cfg;
}

} // namespace

TEST(PaperHeadlines, SchedTaskBeatsLinuxOnOsIntensiveWork)
{
    // The headline: SchedTask improves OS-intensive applications.
    for (const char *bench : {"Apache", "FileSrv", "MailSrvIO"}) {
        const ExperimentConfig cfg = smallConfig(bench);
        const RunResult base = runOnce(cfg, TechniqueSpec{"Linux"});
        const RunResult st = runOnce(cfg, TechniqueSpec{"SchedTask"});
        EXPECT_GT(st.instThroughput(), base.instThroughput() * 1.05)
            << bench;
    }
}

TEST(PaperHeadlines, SchedTaskBeatsSliccOnFileSrv)
{
    // Figure 7's largest gap ("up to 29 percentage points over
    // SLICC") is on FileSrv.
    const ExperimentConfig cfg = smallConfig("FileSrv");
    const RunResult base = runOnce(cfg, TechniqueSpec{"Linux"});
    const RunResult st = runOnce(cfg, TechniqueSpec{"SchedTask"});
    const RunResult slicc = runOnce(cfg, TechniqueSpec{"SLICC"});
    const double st_gain =
        percentChange(base.appPerformance(), st.appPerformance());
    const double slicc_gain =
        percentChange(base.appPerformance(), slicc.appPerformance());
    EXPECT_GT(st_gain, slicc_gain + 5.0);
}

TEST(PaperHeadlines, FlexSCDestroysSingleThreadedApps)
{
    // Section 6.1: FlexSC's single-threaded performance collapses
    // (yield to the Linux scheduler on every system call).
    const ExperimentConfig cfg = smallConfig("Find");
    const RunResult base = runOnce(cfg, TechniqueSpec{"Linux"});
    const RunResult fx = runOnce(cfg, TechniqueSpec{"FlexSC"});
    EXPECT_LT(fx.appPerformance(), base.appPerformance() * 0.4);
}

TEST(PaperHeadlines, SelectiveOffloadFlatAcrossScales)
{
    // Table 4: SelectiveOffload's throughput is the same at every
    // workload scale (one admitted thread per application core).
    const ExperimentConfig cfg2 = smallConfig("OLTP", 2.0);
    const ExperimentConfig cfg4 = smallConfig("OLTP", 4.0);
    const RunResult so2 = runOnce(cfg2, TechniqueSpec{"SelectiveOffload"});
    const RunResult so4 = runOnce(cfg4, TechniqueSpec{"SelectiveOffload"});
    const double ratio = so4.instThroughput() / so2.instThroughput();
    EXPECT_GT(ratio, 0.85);
    EXPECT_LT(ratio, 1.15);
    // While the Linux baseline and SchedTask do scale.
    const RunResult st2 = runOnce(cfg2, TechniqueSpec{"SchedTask"});
    const RunResult st4 = runOnce(cfg4, TechniqueSpec{"SchedTask"});
    EXPECT_GT(st4.metrics.appEvents, 0u);
    EXPECT_GT(st2.metrics.appEvents, 0u);
}

TEST(PaperHeadlines, SelectiveOffloadIdlesHalfTheMachine)
{
    const ExperimentConfig cfg = smallConfig("Apache");
    const RunResult so = runOnce(cfg, TechniqueSpec{"SelectiveOffload"});
    EXPECT_GT(so.idlePercent(), 35.0);
    EXPECT_LT(so.idlePercent(), 75.0);
}

TEST(PaperHeadlines, SchedTaskIdlesLeastAtDoubleLoad)
{
    // Table 4 at 2X: SchedTask's idle fraction is ~0 and at most
    // everyone else's.
    const ExperimentConfig cfg = smallConfig("Apache");
    const RunResult st = runOnce(cfg, TechniqueSpec{"SchedTask"});
    EXPECT_LT(st.idlePercent(), 8.0);
    const RunResult da = runOnce(cfg, TechniqueSpec{"DisAggregateOS"});
    EXPECT_LE(st.idlePercent(), da.idlePercent() + 3.0);
}

TEST(PaperHeadlines, SliccMigratesTheMost)
{
    // Figure 10: SLICC's hardware migration dwarfs the baseline's.
    const ExperimentConfig cfg = smallConfig("Apache");
    const RunResult base = runOnce(cfg, TechniqueSpec{"Linux"});
    const RunResult slicc = runOnce(cfg, TechniqueSpec{"SLICC"});
    const RunResult st = runOnce(cfg, TechniqueSpec{"SchedTask"});
    EXPECT_GT(slicc.migrationsPerBillionInsts(),
              20 * base.migrationsPerBillionInsts());
    EXPECT_GT(st.migrationsPerBillionInsts(),
              20 * base.migrationsPerBillionInsts());
}

TEST(PaperHeadlines, SchedTaskImprovesOsCachesMost)
{
    // Figure 8d/8f: fine-grained same-type grouping gives SchedTask
    // the largest OS-side cache improvements on FileSrv.
    const ExperimentConfig cfg = smallConfig("FileSrv");
    const RunResult base = runOnce(cfg, TechniqueSpec{"Linux"});
    const RunResult st = runOnce(cfg, TechniqueSpec{"SchedTask"});
    const RunResult slicc = runOnce(cfg, TechniqueSpec{"SLICC"});
    EXPECT_GT(pointChange(base.iHitOs, st.iHitOs),
              pointChange(base.iHitOs, slicc.iHitOs));
}

TEST(PaperHeadlines, HeatmapNarrowerThan512Degrades)
{
    // Section 6.5: 128-bit heatmaps lose performance versus 512.
    ExperimentConfig cfg = smallConfig("FileSrv");
    const RunResult base = runOnce(cfg, TechniqueSpec{"Linux"});
    cfg.machine.heatmapBits = 512;
    const RunResult wide = runOnce(cfg, TechniqueSpec{"SchedTask"});
    cfg.machine.heatmapBits = 128;
    const RunResult narrow = runOnce(cfg, TechniqueSpec{"SchedTask"});
    const double wide_gain =
        percentChange(base.instThroughput(), wide.instThroughput());
    const double narrow_gain = percentChange(
        base.instThroughput(), narrow.instThroughput());
    // Narrow must not be better by a meaningful margin.
    EXPECT_LT(narrow_gain, wide_gain + 4.0);
}
