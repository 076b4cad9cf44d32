/**
 * @file
 * Reconstructing the paper's Figure 5 (the timeline of a thread's
 * execution): attach a tracer to a run's measured window through a
 * RunObserver and print one thread's SuperFunction lifecycle —
 * dispatches, migrations between cores at SuperFunction boundaries,
 * blocks on devices, wakeups by bottom halves.
 *
 * Run: ./build/examples/trace_inspection [benchmark] [tid]
 */

#include <cstdio>
#include <optional>
#include <string>

#include "common/parse_num.hh"
#include "example_args.hh"
#include "harness/reporting.hh"
#include "harness/sweep.hh"
#include "sim/machine.hh"
#include "sim/sf_trace.hh"
#include "workload/benchmarks.hh"

using namespace schedtask;

int
main(int argc, char **argv)
{
    const char *usage = "trace_inspection [benchmark] [tid]";
    const std::string bench = nameArg(
        argc, argv, 1, "Apache", BenchmarkSuite::benchmarkNames(), usage);
    const std::optional<std::uint64_t> tid_arg =
        argc > 2 ? parseUnsigned(argv[2]) : std::uint64_t{0};
    if (!tid_arg || *tid_arg >= invalidThread)
        usageError(usage, std::string("bad thread id '") + argv[2] + "'");
    const ThreadId tid = static_cast<ThreadId>(*tid_arg);

    printHeader("SuperFunction timeline (" + bench + ", thread "
                + std::to_string(tid) + ", SchedTask)");

    // Warm up so TAlloc has an allocation, then trace two epochs.
    // Event type names point into the run's SF catalog, so the
    // timeline is rendered before the run ends.
    ExperimentConfig cfg;
    cfg.parts = {{bench, 1.0}};
    cfg.withCores(8).withEpochCycles(60000).withEpochs(3, 2);
    SfTracer tracer(1 << 18);
    std::string timeline;
    Sweep sweep;
    sweep.deriveSeeds(false);
    sweep.add(bench, "SchedTask", cfg, TechniqueSpec{"SchedTask"})
        .observe(RunObserver{
            [&](Machine &machine) { machine.attachTracer(&tracer); },
            [&](const Machine &, const Scheduler &) {
                timeline = tracer.render(tid, 80);
            }});
    SweepOptions options;
    options.progress = false;
    SweepRunner(options).run(sweep);

    std::printf("%s\n", timeline.c_str());
    std::printf("(%llu events recorded in total; showing thread %u "
                "only)\n",
                static_cast<unsigned long long>(
                    tracer.totalRecorded()),
                tid);
    std::printf("\nRead the timeline like the paper's Figure 5: the "
                "thread's system-call SuperFunctions run on the "
                "cores TAlloc assigned to their types, and the "
                "application SuperFunction resumes on its own core "
                "after each call completes (migrate events).\n");
    return 0;
}
