/**
 * @file
 * TimingScheduler must be pure: the benchmark's per-layer numbers are
 * only meaningful if a run through the decorator simulates exactly
 * what the run without it does.
 */

#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>

#include "common/logging.hh"
#include "core/page_heatmap.hh"
#include "harness/experiment.hh"
#include "sched/registry.hh"
#include "sim/machine.hh"
#include "timing_scheduler.hh"
#include "workloads.hh"

using namespace schedtask;
using perfbench::TimingScheduler;

namespace
{

std::unique_ptr<Scheduler>
make(const std::string &name, const ExperimentConfig &cfg)
{
    TechniqueSpec spec;
    spec.name = name;
    return makeScheduler(spec, cfg.schedTask);
}

TEST(TimingScheduler, SameDigestForEveryTechnique)
{
    const std::vector<std::string> names =
        SchedulerRegistry::instance().names();
    ASSERT_GE(names.size(), 2u);
    for (const std::string &name : names) {
        SCOPED_TRACE(name);
        // Epoch tracing on, so epochDecision() is exercised too.
        ExperimentConfig cfg = perfbench::fastConfig("Apache", 1);
        cfg.machine.trace = true;

        const std::unique_ptr<Scheduler> plain = make(name, cfg);
        const RunResult direct = runWithScheduler(cfg, *plain);

        const std::unique_ptr<Scheduler> inner = make(name, cfg);
        TimingScheduler timing(*inner);
        timing.measureAfterEpochs(cfg.warmupEpochs);
        timing.begin();
        const RunResult decorated = runWithScheduler(cfg, timing);

        EXPECT_GT(direct.metrics.instsRetired, 0u);
        EXPECT_EQ(perfbench::runDigest(direct),
                  perfbench::runDigest(decorated));
        EXPECT_GT(timing.group(perfbench::SchedGroup::Pick).calls, 0u);
        EXPECT_GT(timing.group(perfbench::SchedGroup::Epoch).calls, 0u);
        EXPECT_GT(timing.runSeconds(), 0.0);
        EXPECT_EQ(timing.mem().l1i.hitRate(), decorated.iHitAll);
        EXPECT_EQ(timing.epochs(), cfg.warmupEpochs + cfg.measureEpochs);
        EXPECT_GT(timing.measuredRunSeconds(), 0.0);
        EXPECT_LT(timing.measuredRunSeconds(), timing.runSeconds());
        EXPECT_LE(timing.measuredSchedSeconds(), timing.schedSeconds());
    }
}

TEST(TimingScheduler, SetupProbeStopsAtFirstPick)
{
    for (const std::string &name : SchedulerRegistry::instance().names()) {
        SCOPED_TRACE(name);
        const ExperimentConfig cfg = perfbench::fastConfig("Apache", 1);
        const std::unique_ptr<Scheduler> inner = make(name, cfg);
        TimingScheduler probe(*inner);
        probe.stopAtFirstPick();
        probe.begin();
        EXPECT_THROW(runWithScheduler(cfg, probe), perfbench::SetupDone);
        clearPanicContext();
        EXPECT_NE(probe.firstPick(), TimingScheduler::Clock::time_point{});
        EXPECT_EQ(probe.group(perfbench::SchedGroup::Pick).calls, 0u);
        EXPECT_EQ(probe.epochs(), 0u);
    }
}

/** Records each virtual it receives and returns marker values. */
class RecordingScheduler final : public Scheduler
{
  public:
    mutable std::set<std::string> calls;

    const char *
    name() const override
    {
        calls.insert("name");
        return "recording";
    }
    unsigned
    coresRequired(unsigned baseline_cores) const override
    {
        calls.insert("coresRequired");
        return baseline_cores * 3;
    }
    void
    configureMachine(MachineParams &params) const override
    {
        calls.insert("configureMachine");
        params.heatmapBits = 4096;
    }
    void
    attach(Machine &machine) override
    {
        calls.insert("attach");
        attached = &machine;
    }
    void onSfStart(SuperFunction *) override { calls.insert("onSfStart"); }
    void
    onSfResume(SuperFunction *, const SuperFunction *) override
    {
        calls.insert("onSfResume");
    }
    void onSfBlock(SuperFunction *) override { calls.insert("onSfBlock"); }
    void onSfWakeup(SuperFunction *) override { calls.insert("onSfWakeup"); }
    void onSfYield(SuperFunction *) override { calls.insert("onSfYield"); }
    SuperFunction *
    pickNext(CoreId) override
    {
        calls.insert("pickNext");
        return nullptr;
    }
    bool
    hasRunnable(CoreId) const override
    {
        calls.insert("hasRunnable");
        return true;
    }
    CoreId
    routeIrq(IrqId) override
    {
        calls.insert("routeIrq");
        return 7;
    }
    void onEpoch() override { calls.insert("onEpoch"); }
    SchedEpochReport
    epochDecision() const override
    {
        calls.insert("epochDecision");
        SchedEpochReport report;
        report.allocTypes = 5;
        return report;
    }
    CoreId
    midSfPlacement(SuperFunction *, CoreId current) override
    {
        calls.insert("midSfPlacement");
        return current + 1;
    }
    SchedOverhead
    overheadFor(SchedEvent, const SuperFunction *) const override
    {
        calls.insert("overheadFor");
        SchedOverhead oh;
        oh.insts = 42;
        return oh;
    }
    void
    onSliceEnd(CoreId, const SuperFunction *, Cycles, std::uint64_t,
               const PageHeatmap &) override
    {
        calls.insert("onSliceEnd");
    }
    bool
    wantsHeatmap() const override
    {
        calls.insert("wantsHeatmap");
        return true;
    }

    Machine *attached = nullptr;
};

TEST(TimingScheduler, ForwardsEveryVirtual)
{
    // A real machine to attach to, driven by its own scheduler.
    const ExperimentConfig cfg = perfbench::fastConfig("Find", 1);
    BenchmarkSuite suite;
    const Workload workload =
        Workload::build(suite, cfg.parts, cfg.baselineCores);
    const std::unique_ptr<Scheduler> baseline = make("Linux", cfg);
    MachineParams mp = cfg.machine;
    mp.numCores = cfg.baselineCores;
    Machine machine(mp, cfg.hierarchy, suite, workload, *baseline);

    RecordingScheduler rec;
    TimingScheduler timing(rec);
    const PageHeatmap heatmap(512);

    EXPECT_STREQ(timing.name(), "recording");
    EXPECT_EQ(timing.coresRequired(8), 24u);
    MachineParams params;
    timing.configureMachine(params);
    EXPECT_EQ(params.heatmapBits, 4096u);
    timing.attach(machine);
    EXPECT_EQ(rec.attached, &machine);
    EXPECT_TRUE(timing.wantsHeatmap());
    EXPECT_EQ(timing.pickNext(0), nullptr);
    timing.onSfStart(nullptr);
    timing.onSfResume(nullptr, nullptr);
    timing.onSfBlock(nullptr);
    timing.onSfWakeup(nullptr);
    timing.onSfYield(nullptr);
    EXPECT_TRUE(timing.hasRunnable(0));
    EXPECT_EQ(timing.routeIrq(0), 7u);
    timing.onEpoch();
    EXPECT_EQ(timing.epochDecision().allocTypes, 5u);
    EXPECT_EQ(timing.midSfPlacement(nullptr, 2), 3u);
    EXPECT_EQ(timing.overheadFor(SchedEvent::Dispatch, nullptr).insts,
              42u);
    timing.onSliceEnd(0, nullptr, 10, 10, heatmap);

    const std::set<std::string> expected = {
        "name",        "coresRequired", "configureMachine", "attach",
        "wantsHeatmap", "onSfStart",    "onSfResume",       "onSfBlock",
        "onSfWakeup",  "onSfYield",     "pickNext",         "hasRunnable",
        "routeIrq",    "onEpoch",       "epochDecision",
        "midSfPlacement", "overheadFor", "onSliceEnd",
    };
    EXPECT_EQ(rec.calls, expected);

    // Once running (after the first pickNext), each group is timed.
    for (unsigned g = 0; g < perfbench::numSchedGroups; ++g)
        EXPECT_GT(timing.group(static_cast<perfbench::SchedGroup>(g)).calls,
                  0u);
}

} // namespace
