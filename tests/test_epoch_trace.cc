/**
 * @file
 * Tests for the epoch-telemetry layer: the EpochTrace ring, the
 * Machine's per-epoch sampling (delta accounting, per-core category
 * occupancy, scheduler decision reports), zero observer effect on
 * results, and the JSONL / Chrome-trace exporters.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/trace_export.hh"
#include "stats/epoch_trace.hh"

using namespace schedtask;

namespace
{

/** A small traced configuration (2 warmup + 3 measured epochs). */
ExperimentConfig
tracedConfig(const std::string &bench = "Apache")
{
    ExperimentConfig cfg = ExperimentConfig::standard(bench, 1.0)
                               .withCores(8)
                               .withEpochs(2, 3);
    cfg.machine.trace = true;
    return cfg;
}

std::size_t
countOccurrences(const std::string &text, const std::string &needle)
{
    std::size_t count = 0;
    for (std::size_t pos = text.find(needle);
         pos != std::string::npos;
         pos = text.find(needle, pos + needle.size())) {
        ++count;
    }
    return count;
}

} // namespace

TEST(EpochTraceRing, KeepsMostRecentSamples)
{
    EpochTrace trace(3);
    for (std::uint64_t i = 0; i < 5; ++i) {
        EpochSample s;
        s.index = i;
        trace.record(s);
    }
    EXPECT_EQ(trace.size(), 3u);
    EXPECT_EQ(trace.totalRecorded(), 5u);
    const std::vector<EpochSample> samples = trace.samples();
    ASSERT_EQ(samples.size(), 3u);
    EXPECT_EQ(samples[0].index, 2u);
    EXPECT_EQ(samples[1].index, 3u);
    EXPECT_EQ(samples[2].index, 4u);

    trace.clear();
    EXPECT_EQ(trace.size(), 0u);
    EXPECT_EQ(trace.totalRecorded(), 0u);
    EXPECT_TRUE(trace.samples().empty());
}

TEST(EpochTraceRingDeath, ZeroCapacityPanics)
{
    EXPECT_DEATH(EpochTrace trace(0), "capacity");
}

TEST(EpochTraceMachine, OneSamplePerMeasuredEpoch)
{
    const ExperimentConfig cfg = tracedConfig();
    const RunResult r = runOnce(cfg, TechniqueSpec{"SchedTask"});
    const std::vector<EpochSample> &samples = r.metrics.epochSamples;

    // Warmup epochs are cleared by resetStats; the measured window
    // contributes exactly measureEpochs boundary samples.
    ASSERT_EQ(samples.size(),
              static_cast<std::size_t>(cfg.measureEpochs));
    const Cycles epoch = cfg.machine.epochCycles;
    for (std::size_t i = 0; i < samples.size(); ++i) {
        SCOPED_TRACE(i);
        EXPECT_EQ(samples[i].index, i);
        EXPECT_EQ(samples[i].startCycle - samples[0].startCycle,
                  i * epoch);
        EXPECT_EQ(samples[i].endCycle - samples[i].startCycle, epoch);
        EXPECT_EQ(samples[i].cores.size(), r.numCores);
    }
}

TEST(EpochTraceMachine, SamplesAreExactDeltasOfWindowTotals)
{
    const ExperimentConfig cfg = tracedConfig();
    const RunResult r = runOnce(cfg, TechniqueSpec{"SchedTask"});
    const SimMetrics &m = r.metrics;
    ASSERT_FALSE(m.epochSamples.empty());

    std::uint64_t insts = 0, overhead = 0, idle = 0;
    std::uint64_t migrations = 0, irqs = 0;
    for (const EpochSample &s : m.epochSamples) {
        insts += s.instsRetired;
        overhead += s.overheadInsts;
        idle += s.idleCycles;
        migrations += s.migrations;
        irqs += s.irqCount;

        // Per-core category occupancy covers exactly the epoch's
        // non-overhead instructions, and per-core idle cycles sum
        // to the epoch's total.
        std::uint64_t core_insts = 0, core_idle = 0;
        for (const EpochCoreSample &c : s.cores) {
            core_idle += c.idleCycles;
            for (unsigned cat = 0; cat < numSfCategories; ++cat)
                core_insts += c.instsByCategory[cat];
        }
        EXPECT_EQ(core_insts, s.instsRetired - s.overheadInsts);
        EXPECT_EQ(core_idle, s.idleCycles);
        EXPECT_GE(s.l1iMissRate, 0.0);
        EXPECT_LE(s.l1iMissRate, 1.0);
        EXPECT_GE(s.l2MissRate, 0.0);
        EXPECT_LE(s.l2MissRate, 1.0);
    }
    EXPECT_EQ(insts, m.instsRetired);
    EXPECT_EQ(overhead, m.overheadInsts);
    EXPECT_EQ(idle, m.idleCycles);
    EXPECT_EQ(migrations, m.migrations);
    EXPECT_EQ(irqs, m.irqCount);
}

TEST(EpochTraceMachine, SchedTaskDecisionReportPopulated)
{
    const RunResult r = runOnce(tracedConfig(), TechniqueSpec{"SchedTask"});
    ASSERT_FALSE(r.metrics.epochSamples.empty());
    const SchedEpochReport &sched =
        r.metrics.epochSamples.back().sched;
    EXPECT_GT(sched.allocTypes, 0u);
    EXPECT_GT(sched.allocCores, 0u);
    EXPECT_GE(sched.cosineSimilarity, -1.0);
    EXPECT_LE(sched.cosineSimilarity, 1.0);
    // Apache touches plenty of pages: the aggregated heatmaps must
    // have bits set by the end of the window.
    EXPECT_GT(sched.heatmapSetBits, 0u);
}

TEST(EpochTraceMachine, DisabledByDefault)
{
    ExperimentConfig cfg = tracedConfig();
    cfg.machine.trace = false;
    const RunResult r = runOnce(cfg, TechniqueSpec{"SchedTask"});
    EXPECT_TRUE(r.metrics.epochSamples.empty());
}

TEST(EpochTraceMachine, TracingIsPureObservation)
{
    ExperimentConfig plain = tracedConfig();
    plain.machine.trace = false;
    const RunResult traced =
        runOnce(tracedConfig(), TechniqueSpec{"SchedTask"});
    const RunResult untraced = runOnce(plain, TechniqueSpec{"SchedTask"});
    EXPECT_EQ(traced.metrics.instsRetired,
              untraced.metrics.instsRetired);
    EXPECT_EQ(traced.metrics.appEvents, untraced.metrics.appEvents);
    EXPECT_EQ(traced.metrics.migrations,
              untraced.metrics.migrations);
    EXPECT_EQ(traced.metrics.idleCycles,
              untraced.metrics.idleCycles);
    EXPECT_EQ(traced.iHitAll, untraced.iHitAll);
}

TEST(EpochTraceMachine, EveryTechniqueReports)
{
    std::vector<TechniqueSpec> techniques = comparedTechniques();
    techniques.push_back(TechniqueSpec{"Linux"});
    for (const TechniqueSpec &t : techniques) {
        SCOPED_TRACE(t.name);
        ExperimentConfig cfg = tracedConfig("Find");
        cfg.measureEpochs = 2;
        const RunResult r = runOnce(cfg, t);
        ASSERT_EQ(r.metrics.epochSamples.size(), 2u);
        EXPECT_EQ(r.metrics.epochSamples[0].cores.size(),
                  r.numCores);
    }
}

TEST(EpochTraceExport, JsonlOneValidLinePerEpoch)
{
    const RunResult r = runOnce(tracedConfig(), TechniqueSpec{"SchedTask"});
    const std::string jsonl =
        epochTraceJsonl(r.metrics.epochSamples);

    std::string error;
    EXPECT_TRUE(validateJsonLines(jsonl, &error)) << error;
    EXPECT_EQ(countOccurrences(jsonl, "\n"),
              r.metrics.epochSamples.size());
    EXPECT_EQ(countOccurrences(jsonl, "\"sched\""),
              r.metrics.epochSamples.size());
    EXPECT_EQ(countOccurrences(jsonl, "\"cosineSimilarity\""),
              r.metrics.epochSamples.size());
    // Each line also round-trips as a standalone JSON document.
    const std::string first = jsonl.substr(0, jsonl.find('\n'));
    EXPECT_TRUE(validateJson(first, &error)) << error;
}

TEST(EpochTraceExport, ChromeTraceWellFormedWithPerCoreEvents)
{
    const RunResult r = runOnce(tracedConfig(), TechniqueSpec{"SchedTask"});
    const std::string trace =
        chromeTraceJson(r.metrics.epochSamples, r.freqGhz);

    std::string error;
    EXPECT_TRUE(validateJson(trace, &error)) << error;
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    // One duration event per core per epoch, plus one thread-name
    // metadata event per core.
    EXPECT_EQ(countOccurrences(trace, "\"ph\":\"X\""),
              r.metrics.epochSamples.size() * r.numCores);
    EXPECT_EQ(countOccurrences(trace, "\"thread_name\""),
              static_cast<std::size_t>(r.numCores));
    EXPECT_NE(trace.find("\"cosineSimilarity\""), std::string::npos);
}

TEST(EpochTraceExport, EmptySamplesStillValidDocuments)
{
    const std::vector<EpochSample> none;
    std::string error;
    EXPECT_TRUE(validateJson(chromeTraceJson(none, 2.0), &error))
        << error;
    EXPECT_TRUE(validateJsonLines(epochTraceJsonl(none), &error))
        << error;
}

TEST(JsonValidator, AcceptsAndRejects)
{
    std::string error;
    EXPECT_TRUE(validateJson("{\"a\":[1,2.5e-3,true,null,\"x\\n\"]}",
                             &error))
        << error;
    EXPECT_TRUE(validateJson("  [ ]  ", &error)) << error;
    EXPECT_FALSE(validateJson("{\"a\":}", &error));
    EXPECT_FALSE(validateJson("{} trailing", &error));
    EXPECT_FALSE(validateJson("{\"a\":01}", &error));
    EXPECT_FALSE(validateJson("\"unterminated", &error));
    EXPECT_FALSE(validateJson("", &error));
    EXPECT_TRUE(validateJsonLines("{}\n[1]\n\n{\"k\":0}\n", &error))
        << error;
    EXPECT_FALSE(validateJsonLines("{}\nnot json\n", &error));
    EXPECT_NE(error.find("line 2"), std::string::npos);
}
