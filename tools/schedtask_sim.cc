/**
 * @file
 * schedtask-sim: command-line front end to the simulator.
 *
 * Runs one benchmark under one scheduling technique and prints the
 * headline metrics, optionally a full gem5-style stats dump, epoch
 * telemetry exports and a SuperFunction trace excerpt.
 *
 * Run with --help for the flags. Every flag combination runs one
 * Sweep; the stats, viz and SF-trace outputs come from an observer
 * on the technique's run. Invalid flag values (e.g. "--cores xyz",
 * "--bag MPW-Z", "--heatmap-bits 100") exit 2 before any run starts.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "common/parse_num.hh"
#include "core/page_heatmap.hh"
#include "core/schedtask_sched.hh"
#include "sched/registry.hh"
#include "harness/experiment.hh"
#include "harness/reporting.hh"
#include "harness/sweep.hh"
#include "harness/trace_export.hh"
#include "harness/visualize.hh"
#include "sim/machine.hh"
#include "sim/sf_trace.hh"
#include "stats/stat_set.hh"
#include "stats/table.hh"
#include "workload/benchmarks.hh"

using namespace schedtask;

namespace
{

[[noreturn]] void
usage(int code)
{
    std::printf(
        "schedtask-sim: run one benchmark under one scheduling "
        "technique\n\n"
        "  --benchmark NAME   one of the 8 paper benchmarks "
        "(default Apache)\n"
        "  --bag NAME         multi-programmed bag MPW-A..MPW-F\n"
        "  --technique SPEC   NAME[:key=val,...], any registered "
        "technique\n"
        "                     (see --list-techniques; default "
        "SchedTask)\n"
        "  --list-techniques  print registered techniques and their\n"
        "                     option keys, sorted, and exit\n"
        "  --cores N          baseline cores (default 32)\n"
        "  --scale X          workload scale (default 2.0)\n"
        "  --warmup N         warmup epochs (default 4)\n"
        "  --measure N        measured epochs (default 6)\n"
        "  --fast             shortcut for --warmup 1 --measure 2\n"
        "  --heatmap-bits N   Page-heatmap width, a power of two in\n"
        "                     [64, 65536] (default 512)\n"
        "  --seed N           master seed (default 1)\n"
        "  --jobs N           worker threads for --compare (default:\n"
        "                     SCHEDTASK_JOBS or the hardware "
        "concurrency)\n"
        "  --stats            print the full stats dump\n"
        "  --json             print the stats dump as JSON\n"
        "  --viz              print per-core utilization bars and\n"
        "                     (SchedTask) the allocation table\n"
        "  --trace [FILE]     write a Chrome trace-event file of the\n"
        "                     measured epochs (default\n"
        "                     schedtask.trace.json); open in Perfetto\n"
        "  --trace-jsonl FILE write epoch telemetry as JSON Lines\n"
        "  --trace-dir DIR    per-run traces in DIR (one pair per run)\n"
        "  --sf-trace [TID]   print a SuperFunction trace excerpt\n"
        "  --compare          also run the Linux baseline\n");
    std::exit(code);
}

/** "a, b, c" */
std::string
joined(const std::vector<std::string> &names)
{
    std::string out;
    for (const std::string &name : names)
        out += out.empty() ? name : ", " + name;
    return out;
}

/**
 * Parse and validate "--technique NAME[:key=val,...]" against the
 * registry. Unknown names exit 2 listing the registered techniques;
 * grammar errors and unknown option keys exit 2 with the registry's
 * diagnostic. Option *values* are validated when the scheduler is
 * built (see probeTechnique()).
 */
TechniqueSpec
parseTechniqueArg(const std::string &text)
{
    try {
        TechniqueSpec spec = parseTechniqueSpec(text);
        const SchedulerRegistry &reg = SchedulerRegistry::instance();
        const SchedulerInfo *info = reg.find(spec.name);
        if (info == nullptr) {
            std::fprintf(stderr,
                         "schedtask-sim: unknown technique '%s'\n"
                         "registered techniques: %s\n",
                         spec.name.c_str(), joined(reg.names()).c_str());
            std::exit(2);
        }
        spec.name = info->name; // canonical display casing
        reg.validateOptions(*info, spec.options);
        return spec;
    } catch (const SchedulerOptionError &e) {
        std::fprintf(stderr, "schedtask-sim: %s\n", e.what());
        std::exit(2);
    }
}

/** Build-and-discard the scheduler so malformed option values are
 *  reported with exit 2 before any simulation starts. */
void
probeTechnique(const TechniqueSpec &spec)
{
    try {
        (void)makeScheduler(spec);
    } catch (const SchedulerOptionError &e) {
        std::fprintf(stderr, "schedtask-sim: %s\n", e.what());
        std::exit(2);
    }
}

/** --list-techniques: names + option keys, deterministically
 *  sorted (registry names are sorted; option keys sorted at
 *  registration). */
[[noreturn]] void
listTechniques()
{
    const SchedulerRegistry &reg = SchedulerRegistry::instance();
    std::printf("registered techniques:\n");
    for (const std::string &name : reg.names()) {
        const SchedulerInfo *info = reg.find(name);
        std::printf("  %-18s %s%s\n", name.c_str(),
                    info->description.c_str(),
                    info->isBaseline ? " [baseline]" : "");
        for (const SchedulerOptionSpec &opt : info->options)
            std::printf("    %-18s %s\n", opt.key.c_str(),
                        opt.help.c_str());
    }
    std::printf("universal options (any technique):\n");
    for (const SchedulerOptionSpec &opt :
         SchedulerRegistry::universalOptions())
        std::printf("    %-18s %s\n", opt.key.c_str(),
                    opt.help.c_str());
    std::exit(0);
}

/** Reject a flag value with exit 2, saying what was expected. */
[[noreturn]] void
badValue(const char *flag, const char *text, const std::string &expected)
{
    std::fprintf(stderr,
                 "schedtask-sim: invalid value '%s' for %s (expected %s)\n",
                 text, flag, expected.c_str());
    std::exit(2);
}

/** Largest value of the `unsigned` fields the counting flags fill. */
constexpr std::uint64_t kMaxUnsigned = std::numeric_limits<unsigned>::max();

/**
 * Strictly parsed unsigned flag value in [min, max]; exits 2 on bad
 * input, so a value never wraps when it is narrowed to its field.
 */
std::uint64_t
requireUnsigned(const char *flag, const char *text, std::uint64_t min,
                std::uint64_t max = std::numeric_limits<std::uint64_t>::max())
{
    const std::optional<std::uint64_t> value = parseUnsigned(text);
    if (!value || *value < min || *value > max)
        badValue(flag, text,
                 "an unsigned integer in [" + std::to_string(min) + ", "
                     + std::to_string(max) + "]");
    return *value;
}

/** Strictly parsed positive double flag value; exits 2 on bad input. */
double
requirePositiveDouble(const char *flag, const char *text)
{
    const std::optional<double> value = parseDouble(text);
    if (!value || *value <= 0.0)
        badValue(flag, text, "a number > 0");
    return *value;
}

/** Flag value that must be one of `valid`; exits 2 listing them. */
std::string
requireOneOf(const char *flag, const char *text,
             const std::vector<std::string> &valid)
{
    if (std::find(valid.begin(), valid.end(), text) == valid.end())
        badValue(flag, text, "one of: " + joined(valid));
    return text;
}

/** The headline-metrics table. */
TextTable
headlineTable(const RunResult &r)
{
    TextTable table({"metric", "value"});
    table.addRow({"cores", std::to_string(r.numCores)});
    table.addRow({"threads", std::to_string(r.numThreads)});
    table.addRow({"IPC/core", TextTable::num(r.metrics.ipc(r.numCores), 3)});
    table.addRow({"Ginsts/s", TextTable::num(r.instThroughput() / 1e9, 2)});
    table.addRow({"app events/s (x1e6)",
                  TextTable::num(r.appPerformance() / 1e6, 2)});
    table.addRow({"idle (%)", TextTable::num(r.idlePercent())});
    table.addRow({"migrations/1e9 insts",
                  TextTable::num(r.migrationsPerBillionInsts(), 0)});
    return table;
}

} // namespace

int
main(int argc, char **argv)
{
    ExperimentConfig cfg; // cores, epochs, heatmap width, seed
    std::string benchmark = "Apache";
    std::optional<std::string> bag;
    TechniqueSpec spec; // defaults to SchedTask, no options
    double scale = 2.0;
    unsigned jobs = 0;
    bool want_stats = false, want_compare = false;
    bool want_json = false, want_viz = false;
    std::optional<SfTracer> tracer; // --sf-trace
    ThreadId sf_trace_tid = invalidThread; // all threads
    std::optional<std::string> trace_file;
    std::optional<std::string> trace_jsonl_file;
    std::string trace_dir;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(2);
            return argv[++i];
        };
        if (arg == "--help" || arg == "-h") {
            usage(0);
        } else if (arg == "--benchmark") {
            benchmark = requireOneOf("--benchmark", next(),
                                     BenchmarkSuite::benchmarkNames());
        } else if (arg == "--bag") {
            bag = requireOneOf("--bag", next(), Workload::bagNames());
        } else if (arg == "--technique") {
            spec = parseTechniqueArg(next());
        } else if (arg == "--list-techniques") {
            listTechniques();
        } else if (arg == "--cores") {
            cfg.baselineCores = static_cast<unsigned>(
                requireUnsigned("--cores", next(), 1, kMaxUnsigned));
        } else if (arg == "--scale") {
            scale = requirePositiveDouble("--scale", next());
        } else if (arg == "--warmup") {
            cfg.warmupEpochs = static_cast<unsigned>(
                requireUnsigned("--warmup", next(), 0, kMaxUnsigned));
        } else if (arg == "--measure") {
            cfg.measureEpochs = static_cast<unsigned>(
                requireUnsigned("--measure", next(), 1, kMaxUnsigned));
        } else if (arg == "--fast") {
            cfg.withEpochs(1, 2);
        } else if (arg == "--heatmap-bits") {
            const char *text = next();
            const std::optional<std::uint64_t> bits = parseUnsigned(text);
            if (!bits || !PageHeatmap::validWidth(*bits))
                badValue("--heatmap-bits", text,
                         "a power of two in [64, 65536]");
            cfg.machine.heatmapBits = static_cast<unsigned>(*bits);
        } else if (arg == "--seed") {
            cfg.machine.seed = requireUnsigned("--seed", next(), 0);
        } else if (arg == "--jobs") {
            jobs = static_cast<unsigned>(
                requireUnsigned("--jobs", next(), 1, kMaxUnsigned));
        } else if (arg == "--stats") {
            want_stats = true;
        } else if (arg == "--json") {
            want_json = true;
        } else if (arg == "--viz") {
            want_viz = true;
        } else if (arg == "--compare") {
            want_compare = true;
        } else if (arg == "--trace") {
            trace_file = "schedtask.trace.json";
            if (i + 1 < argc && argv[i + 1][0] != '-')
                trace_file = argv[++i];
        } else if (arg == "--trace-jsonl") {
            trace_jsonl_file = next();
        } else if (arg == "--trace-dir") {
            trace_dir = next();
        } else if (arg == "--sf-trace") {
            tracer.emplace(1 << 18);
            if (i + 1 < argc && argv[i + 1][0] != '-')
                sf_trace_tid = static_cast<ThreadId>(
                    requireUnsigned("--sf-trace", argv[++i], 0,
                                    invalidThread - 1));
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage(2);
        }
    }

    cfg.parts = bag ? Workload::bagParts(*bag)
                    : std::vector<WorkloadPart>{{benchmark, scale}};
    cfg.machine.trace =
        trace_file.has_value() || trace_jsonl_file.has_value();

    // Surface malformed option *values* (keys were checked at parse
    // time) as a usage error before any simulation starts.
    probeTechnique(spec);
    const bool compare = want_compare
        && !SchedulerRegistry::instance().isBaseline(spec.name);

    // --compare runs the baseline and the technique on concurrent
    // workers (--jobs or SCHEDTASK_JOBS); both see --seed verbatim.
    const std::string run_name = spec.str();
    Sweep sweep;
    sweep.deriveSeeds(false);
    if (compare)
        sweep.addComparison("run", run_name, cfg, spec);
    else
        sweep.add("run", run_name, cfg, spec);

    // What --stats/--json/--viz/--sf-trace read from the live run.
    StatSet stats;
    std::optional<std::string> allocation;
    std::string timeline;
    sweep.observe(RunObserver{
        [&](Machine &machine) {
            if (tracer)
                machine.attachTracer(&*tracer);
        },
        [&](const Machine &machine, const Scheduler &sched) {
            if (want_stats || want_json)
                machine.exportStats(stats);
            if (const auto *st =
                    dynamic_cast<const SchedTaskScheduler *>(&sched);
                want_viz && st != nullptr)
                allocation = allocationView(*st);
            // Event type names point into the run's SF catalog, so
            // render before the run ends.
            if (tracer)
                timeline = tracer->render(sf_trace_tid, 60);
        }});

    SweepOptions opts;
    opts.jobs = jobs;
    opts.progress = false;
    opts.traceDir = trace_dir;
    const SweepResults results = SweepRunner(opts).run(sweep);
    const RunResult &r = results.at("run", run_name);

    printHeader(run_name + " on " + (bag ? *bag : benchmark));
    std::printf("%s\n", headlineTable(r).render().c_str());
    if (compare) {
        const RunResult &base = results.at(baselineLabelFor("run", cfg));
        std::printf("vs Linux baseline: throughput %+0.1f%%, "
                    "app performance %+0.1f%%\n\n",
                    percentChange(base.instThroughput(),
                                  r.instThroughput()),
                    percentChange(base.appPerformance(),
                                  r.appPerformance()));
    }

    if (want_stats)
        std::printf("%s\n", stats.dump().c_str());
    if (want_json)
        std::printf("%s", stats.dumpJson().c_str());

    if (want_viz) {
        std::printf("%s\n", utilizationBars(r.metrics, r.numCores).c_str());
        if (allocation)
            std::printf("allocation table:\n%s\n", allocation->c_str());
    }

    try {
        if (trace_file) {
            writeTextFile(*trace_file,
                          chromeTraceJson(r.metrics.epochSamples,
                                          r.freqGhz));
            std::printf("chrome trace written to %s "
                        "(open in ui.perfetto.dev)\n",
                        trace_file->c_str());
        }
        if (trace_jsonl_file) {
            writeTextFile(*trace_jsonl_file,
                          epochTraceJsonl(r.metrics.epochSamples));
            std::printf("epoch telemetry written to %s\n",
                        trace_jsonl_file->c_str());
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "schedtask-sim: %s\n", e.what());
        return 1;
    }
    if (!trace_dir.empty())
        std::printf("epoch traces written under %s/\n", trace_dir.c_str());

    if (tracer)
        std::printf("%s\n", timeline.c_str());
    return 0;
}
