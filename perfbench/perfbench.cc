/**
 * @file
 * The repository benchmark's runner (driven by run.py).
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --golden FILE --out-dir DIR [--result-file FILE]
 *   perfbench --workload NAME --seed N --write-golden --out-dir DIR
 *
 * --trace 0 sets up every run of the workload several times (setup_s
 * is the median; each set-up is runWithScheduler() stopped at its
 * first pickNext()), then repeats the untraced sweep through
 * SweepRunner for about S seconds and prints the end-to-end metrics
 * as medians over those passes. --trace 1 runs the untraced sweep
 * once, then re-executes the same RunRequests through
 * runWithScheduler with a TimingScheduler around each scheduler, and
 * prints the per-layer metrics. For a workload with more than one
 * worker it also runs the untraced sweep once on one worker, the
 * reference the traced pass's overhead is measured against. Every
 * run of every pass is checked against the committed golden digests;
 * in --trace 1 the traced digest must also equal the untraced one run
 * for run.
 *
 * The seed selects golden seed 1 + (seed - 1) mod kGoldenSeeds (seed
 * 1 is the seed the figure binaries use), so every seed's outputs are
 * checked against a committed digest. The last line of stdout is one
 * JSON object: {"correct", "attempted", "failed", "metrics"}.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/math_utils.hh"
#include "common/parse_num.hh"
#include "harness/experiment.hh"
#include "harness/sweep.hh"
#include "harness/trace_export.hh"
#include "timing_scheduler.hh"
#include "workloads.hh"

using namespace schedtask;
using perfbench::BenchWorkload;
using perfbench::SchedGroup;
using perfbench::TimingScheduler;

namespace
{

using Clock = std::chrono::steady_clock;

/** setup_s is the median of at least kSetupMinReps set-ups, repeated
 *  until kSetupSeconds have passed (at most kSetupMaxReps). */
constexpr int kSetupMinReps = 5;
constexpr int kSetupMaxReps = 100;
constexpr double kSetupSeconds = 1.0;

/** The golden files hold simulation seeds 1..kGoldenSeeds; run.py's
 *  GOLDEN_SEEDS must match. */
constexpr std::uint64_t kGoldenSeeds = 16;

/** The paper's Fig. 7 SchedTask gmean, printed as a reference only. */
constexpr double kPaperFig7SchedTaskGain = 22.8;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

struct Options
{
    std::string workload;
    std::int64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool writeGolden = false;
    std::string golden;
    std::string outDir;
    std::string resultFile;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 --golden FILE "
                 "--out-dir DIR [--result-file FILE] | --workload NAME "
                 "--seed N --write-golden --out-dir DIR\n",
                 why.c_str());
    std::exit(2);
}

std::int64_t
parseSeed(const std::string &text)
{
    const bool negative = !text.empty() && text[0] == '-';
    const auto magnitude =
        parseUnsigned(negative ? text.substr(1) : text);
    if (!magnitude || *magnitude > (1ULL << 62))
        usage("bad --seed '" + text + "'");
    const auto value = static_cast<std::int64_t>(*magnitude);
    return negative ? -value : value;
}

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        if (arg == "--workload") {
            opt.workload = value();
        } else if (arg == "--seed") {
            opt.seed = parseSeed(value());
        } else if (arg == "--seconds") {
            const std::string text = value();
            const auto s = parseDouble(text);
            if (!s || *s <= 0.0 || *s > 3600.0)
                usage("bad --seconds '" + text + "'");
            opt.seconds = *s;
        } else if (arg == "--trace") {
            const std::string text = value();
            if (text != "0" && text != "1")
                usage("--trace takes 0 or 1");
            opt.trace = text == "1";
        } else if (arg == "--golden") {
            opt.golden = value();
        } else if (arg == "--out-dir") {
            opt.outDir = value();
        } else if (arg == "--result-file") {
            opt.resultFile = value();
        } else if (arg == "--write-golden") {
            opt.writeGolden = true;
        } else {
            usage("unknown argument '" + arg + "'");
        }
    }
    if (opt.outDir.empty())
        usage("--out-dir is required");
    if (!opt.writeGolden && opt.golden.empty())
        usage("--golden is required");
    return opt;
}

BenchWorkload
workloadOrUsage(const std::string &name, std::uint64_t seed)
{
    try {
        return perfbench::makeWorkload(name, seed);
    } catch (const std::invalid_argument &e) {
        usage(e.what());
    }
}

// ---- Golden digests ------------------------------------------------

struct GoldenEntry
{
    std::string digest;
    std::string traceDigest; ///< "-" when the workload exports none
};

/** seed -> run label -> digests. */
using Golden = std::map<std::uint64_t, std::map<std::string, GoldenEntry>>;

Golden
loadGolden(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read golden file '" + path + "'");
    Golden golden;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string seed, label;
        GoldenEntry entry;
        if (!(fields >> seed >> label >> entry.digest >> entry.traceDigest))
            throw std::runtime_error("malformed golden line: " + line);
        const auto s = parseUnsigned(seed);
        if (!s)
            throw std::runtime_error("bad golden seed: " + line);
        golden[*s][label] = entry;
    }
    if (golden.size() != kGoldenSeeds || golden.begin()->first != 1
        || golden.rbegin()->first != kGoldenSeeds)
        throw std::runtime_error("golden file '" + path
                                 + "' does not hold exactly seeds 1.."
                                 + std::to_string(kGoldenSeeds));
    return golden;
}

/** The golden seed a benchmark seed selects. */
std::uint64_t
effectiveSeed(std::int64_t seed)
{
    const auto k = static_cast<std::int64_t>(kGoldenSeeds);
    return 1 + static_cast<std::uint64_t>(((seed - 1) % k + k) % k);
}

// ---- One run's checked outcome --------------------------------------

struct RunCheck
{
    std::string digest;
    std::string traceDigest = "-";
    std::string error; ///< empty when the run passed its checks
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read '" + path + "'");
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Validate one run's exported traces and return their digest. */
std::string
checkTraces(const std::string &json, const std::string &jsonl)
{
    std::string error;
    if (!validateJson(json, &error))
        throw std::runtime_error("chrome trace invalid: " + error);
    if (!validateJsonLines(jsonl, &error))
        throw std::runtime_error("jsonl trace invalid: " + error);
    char both[40];
    std::snprintf(both, sizeof(both), "%llx,%llx,",
                  static_cast<unsigned long long>(stableHash64(json)),
                  static_cast<unsigned long long>(stableHash64(jsonl)));
    return perfbench::hex64(stableHash64(both));
}

/** Same flattening as SweepRunner's per-run trace file names. */
std::string
fileStem(const std::string &label)
{
    std::string out = label;
    for (char &c : out) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
            || (c >= '0' && c <= '9') || c == '.' || c == '-'
            || c == '_' || c == '@';
        if (!ok)
            c = '_';
    }
    return out;
}

void
compareToGolden(RunCheck &check, const GoldenEntry *golden)
{
    if (!check.error.empty())
        return;
    if (golden == nullptr) {
        check.error = "no golden digest";
    } else if (check.digest != golden->digest) {
        check.error = "digest " + check.digest + " != golden "
            + golden->digest;
    } else if (check.traceDigest != golden->traceDigest) {
        check.error = "trace digest " + check.traceDigest
            + " != golden " + golden->traceDigest;
    }
}

// ---- The untraced pass ----------------------------------------------

struct UntracedPass
{
    double wallSeconds = 0.0;
    double runSecondsSum = 0.0;
    double makespan = 0.0;
    double tailRunSeconds = 0.0;
    std::uint64_t measuredInsts = 0;
    std::vector<RunCheck> checks; ///< one per request
    double appGain = 0.0;
    double thrGain = 0.0;
    bool complete = false;
};

UntracedPass
runUntraced(const BenchWorkload &w, const std::string &trace_dir,
            unsigned jobs)
{
    const std::vector<RunRequest> &requests = w.sweep.requests();
    const std::size_t n = requests.size();
    std::vector<Clock::time_point> started(n), done(n);
    auto index = [&](const RunRequest &req) {
        return static_cast<std::size_t>(&req - requests.data());
    };

    SweepOptions options;
    options.jobs = jobs;
    options.progress = false;
    options.traceDir = w.exportTraces ? trace_dir : "";
    // Each hook writes only its own request's slot.
    options.onRunStart = [&](const RunRequest &req) {
        started[index(req)] = Clock::now();
    };
    options.onRunDone = [&](const RunRequest &req, const RunResult &) {
        done[index(req)] = Clock::now();
    };

    // Every pass must write its own trace files.
    if (w.exportTraces)
        std::filesystem::remove_all(trace_dir);

    UntracedPass pass;
    std::vector<std::string> failures;
    const Clock::time_point t0 = Clock::now();
    const SweepResults results =
        SweepRunner(options).runPartial(w.sweep, failures);
    pass.wallSeconds = secondsSince(t0);

    Clock::time_point first = Clock::time_point::max();
    Clock::time_point last = Clock::time_point::min();
    pass.checks.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        RunCheck &check = pass.checks[i];
        const std::string label = requests[i].label();
        if (!results.has(label)) {
            check.error = "run did not finish";
            for (const std::string &f : failures) {
                if (f.compare(0, label.size() + 1, label + ":") == 0)
                    check.error = f;
            }
            continue;
        }
        const RunResult &result = results.at(label);
        const double secs =
            std::chrono::duration<double>(done[i] - started[i]).count();
        pass.runSecondsSum += secs;
        pass.tailRunSeconds = std::max(pass.tailRunSeconds, secs);
        first = std::min(first, started[i]);
        last = std::max(last, done[i]);
        pass.measuredInsts += result.metrics.instsRetired;
        check.digest = perfbench::hex64(perfbench::runDigest(result));
        if (w.exportTraces) {
            try {
                const std::string stem =
                    trace_dir + "/" + fileStem(label);
                check.traceDigest = checkTraces(
                    readFile(stem + ".trace.json"),
                    readFile(stem + ".jsonl"));
            } catch (const std::exception &e) {
                check.error = e.what();
            }
        }
    }
    if (first < last)
        pass.makespan = std::chrono::duration<double>(last - first).count();

    pass.complete = failures.empty() && results.size() == n;
    if (pass.complete) {
        const SweepReport report(w.sweep, results);
        pass.appGain = geometricMeanPercent(
            report.appPerfChange().column(perfbench::schedTaskCol));
        pass.thrGain = geometricMeanPercent(
            report.throughputChange().column(perfbench::schedTaskCol));
    }
    return pass;
}

// ---- Set-up time ----------------------------------------------------

/** Effective config of a request, as SweepRunner derives it. */
ExperimentConfig
runConfig(const BenchWorkload &w, const RunRequest &req)
{
    ExperimentConfig cfg = req.config;
    cfg.machine.seed = runSeed(req);
    if (w.exportTraces)
        cfg.machine.trace = true;
    return cfg;
}

/**
 * Summed host time to build every run's scheduler, BenchmarkSuite,
 * Workload and Machine: makeScheduler() plus runWithScheduler() up
 * to its first pickNext(), where a TimingScheduler set to stop
 * there ends the run. Teardown is not counted.
 */
double
setupSeconds(const BenchWorkload &w)
{
    double total = 0.0;
    for (const RunRequest &req : w.sweep.requests()) {
        const ExperimentConfig cfg = runConfig(w, req);
        const Clock::time_point t0 = Clock::now();
        const std::unique_ptr<Scheduler> inner =
            makeScheduler(req.spec, cfg.schedTask);
        TimingScheduler probe(*inner);
        probe.stopAtFirstPick();
        try {
            runWithScheduler(cfg, probe);
            throw std::runtime_error(req.label() + ": set-up probe ran "
                                     "without a pickNext()");
        } catch (const perfbench::SetupDone &) {
            // The machine loop was left by the probe, not by a panic.
            clearPanicContext();
        }
        total += std::chrono::duration<double>(probe.firstPick() - t0)
                     .count();
    }
    return total;
}

// ---- The traced pass ------------------------------------------------

/** Per-layer sums over one traced pass (see README.md). */
struct LayerTotals
{
    double workloadBuild = 0.0;
    double threads = 0.0;
    double machineInit = 0.0;
    double simRun = 0.0;
    double schedTotal = 0.0;
    double measuredSelf = 0.0; ///< sim self time in the measured window
    double hostRun = 0.0; ///< begin() -> runWithScheduler() return
    double cycles = 0.0;
    double insts = 0.0;
    double migrations = 0.0;
    double irqs = 0.0;
    AccessCounts l1i, l1d, l2;
    double itlbRateSum = 0.0;
    double dtlbRateSum = 0.0;
    double cohInvalidations = 0.0;
    perfbench::GroupTime groups[perfbench::numSchedGroups];
    double epochSamples = 0.0;
    double exportSeconds = 0.0;
    double exportBytes = 0.0;
    std::size_t runs = 0;
    std::vector<RunCheck> checks;
};

void
addCounts(AccessCounts &into, const AccessCounts &c)
{
    into.accesses += c.accesses;
    into.hits += c.hits;
}

LayerTotals
runTraced(const BenchWorkload &w, const std::string &trace_dir)
{
    LayerTotals t;
    if (w.exportTraces)
        std::filesystem::create_directories(trace_dir);
    for (const RunRequest &req : w.sweep.requests()) {
        RunCheck &check = t.checks.emplace_back();
        try {
            const ExperimentConfig cfg = runConfig(w, req);
            const std::unique_ptr<Scheduler> inner =
                makeScheduler(req.spec, cfg.schedTask);
            TimingScheduler timing(*inner);
            timing.measureAfterEpochs(cfg.warmupEpochs);
            const Clock::time_point t0 = Clock::now();
            timing.begin();
            const RunResult result = runWithScheduler(cfg, timing);
            t.hostRun += secondsSince(t0);

            if (w.exportTraces) {
                const std::string stem =
                    trace_dir + "/" + fileStem(req.label());
                const Clock::time_point e0 = Clock::now();
                const std::string json = chromeTraceJson(
                    result.metrics.epochSamples, result.freqGhz);
                const std::string jsonl =
                    epochTraceJsonl(result.metrics.epochSamples);
                writeTextFile(stem + ".trace.json", json);
                writeTextFile(stem + ".jsonl", jsonl);
                t.exportSeconds += secondsSince(e0);
                t.exportBytes +=
                    static_cast<double>(json.size() + jsonl.size());
                check.traceDigest = checkTraces(json, jsonl);
            }
            check.digest = perfbench::hex64(perfbench::runDigest(result));

            // The decorator's last epoch snapshot must be the
            // measured window the result's rates come from.
            const perfbench::MemSnapshot &mem = timing.mem();
            if (mem.l1i.hitRate() != result.iHitAll
                || mem.itlbHitRate != result.itlbHit
                || mem.dtlbHitRate != result.dtlbHit)
                check.error = "epoch snapshot disagrees with result";
            if (timing.epochs() != cfg.warmupEpochs + cfg.measureEpochs)
                check.error = "run did not end on its last epoch";

            ++t.runs;
            t.workloadBuild += timing.workloadBuildSeconds();
            t.threads += result.numThreads;
            t.machineInit += timing.machineInitSeconds();
            t.simRun += timing.runSeconds();
            t.schedTotal += timing.schedSeconds();
            t.measuredSelf += timing.measuredRunSeconds()
                - timing.measuredSchedSeconds();
            t.cycles += static_cast<double>(result.metrics.cycles);
            t.insts += static_cast<double>(result.metrics.instsRetired);
            t.migrations += static_cast<double>(result.metrics.migrations);
            t.irqs += static_cast<double>(result.metrics.irqCount);
            addCounts(t.l1i, mem.l1i);
            addCounts(t.l1d, mem.l1d);
            addCounts(t.l2, mem.l2);
            t.itlbRateSum += mem.itlbHitRate;
            t.dtlbRateSum += mem.dtlbHitRate;
            t.cohInvalidations +=
                static_cast<double>(mem.cohInvalidations);
            for (unsigned g = 0; g < perfbench::numSchedGroups; ++g) {
                const auto &gt = timing.group(static_cast<SchedGroup>(g));
                t.groups[g].calls += gt.calls;
                t.groups[g].seconds += gt.seconds;
            }
            t.epochSamples +=
                static_cast<double>(result.metrics.epochSamples.size());
        } catch (const std::exception &e) {
            check.error = e.what();
        }
    }
    return t;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

// ---- Output ---------------------------------------------------------

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

std::string
jsonEscape(const std::string &text)
{
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out;
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i != 0)
            out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": "
            + jsonNumber(metrics[i].value) + ", \"unit\": \""
            + metrics[i].unit + "\"}";
    }
    return out + "}";
}

std::string
envOr(const char *name, const char *fallback)
{
    const char *value = std::getenv(name);
    return value != nullptr ? value : fallback;
}

/** What must match before two results may be compared. */
std::vector<std::pair<std::string, std::string>>
record(const BenchWorkload &w)
{
    return {
        {"workload", w.name},
        {"shape", w.shape},
        {"workers", std::to_string(w.workers)},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"build_type", PERFBENCH_BUILD_TYPE},
        {"compile_flags", PERFBENCH_COMPILE_FLAGS},
        {"SCHEDTASK_SIMD", envOr("SCHEDTASK_SIMD", "unset")},
        {"SCHEDTASK_L0", envOr("SCHEDTASK_L0", "unset")},
    };
}

std::string
recordJson(const std::vector<std::pair<std::string, std::string>> &rec)
{
    std::string out = "{";
    for (std::size_t i = 0; i < rec.size(); ++i) {
        if (i != 0)
            out += ", ";
        out += "\"" + rec[i].first + "\": \""
            + jsonEscape(rec[i].second) + "\"";
    }
    return out + "}";
}

double
peakRssMb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MiB
}

/**
 * The per-layer metrics of a traced run. Times are medians over the
 * traced passes; counts repeat exactly, so they come from the first.
 * `untraced` ran on the workload's workers, `serial` on one.
 */
std::vector<Metric>
layerMetrics(const std::vector<LayerTotals> &passes,
             const UntracedPass &untraced, const UntracedPass &serial,
             unsigned workers)
{
    using Fn = std::function<double(const LayerTotals &)>;
    auto med = [&](const Fn &f) {
        std::vector<double> values;
        for (const LayerTotals &p : passes)
            values.push_back(f(p));
        return median(values);
    };
    auto self = [](const LayerTotals &p) {
        return p.simRun - p.schedTotal;
    };
    const LayerTotals &t = passes.front();
    const double runs = static_cast<double>(std::max<std::size_t>(t.runs, 1));
    const double accesses =
        static_cast<double>(t.l1i.accesses + t.l1d.accesses);
    auto count = [](std::uint64_t n) { return static_cast<double>(n); };

    std::vector<Metric> m = {
        {"workload.build_s",
         med([](const LayerTotals &p) { return p.workloadBuild; }), "s"},
        {"workload.threads", t.threads, "count"},
        {"sim.machine_init_s",
         med([](const LayerTotals &p) { return p.machineInit; }), "s"},
        {"sim.run_s", med([](const LayerTotals &p) { return p.simRun; }),
         "s"},
        {"sim.self_s", med(self), "s"},
        {"sim.self_share",
         med([&](const LayerTotals &p) { return ratio(self(p), p.simRun); }),
         "ratio"},
        {"sim.cycles", t.cycles, "cycles"},
        {"sim.insts", t.insts, "count"},
        {"sim.migrations", t.migrations, "count"},
        {"sim.irqs", t.irqs, "count"},
        {"mem.l1i.accesses", count(t.l1i.accesses), "count"},
        {"mem.l1i.hit_rate", t.l1i.hitRate(), "ratio"},
        {"mem.l1d.accesses", count(t.l1d.accesses), "count"},
        {"mem.l1d.hit_rate", t.l1d.hitRate(), "ratio"},
        {"mem.l2.accesses", count(t.l2.accesses), "count"},
        {"mem.l2.hit_rate", t.l2.hitRate(), "ratio"},
        {"mem.itlb.hit_rate", t.itlbRateSum / runs, "ratio"},
        {"mem.dtlb.hit_rate", t.dtlbRateSum / runs, "ratio"},
        {"mem.coh.invalidations", t.cohInvalidations, "count"},
        {"mem.host_ns_per_access",
         med([&](const LayerTotals &p) {
             return ratio(p.measuredSelf * 1e9, accesses);
         }),
         "ns"},
    };
    static const char *const groupNames[] = {"place", "pick", "epoch",
                                             "slice", "other"};
    for (unsigned g = 0; g < perfbench::numSchedGroups; ++g) {
        const std::string base = std::string("sched.") + groupNames[g];
        m.push_back({base + "_calls", count(t.groups[g].calls), "count"});
        m.push_back(
            {base + "_s",
             med([g](const LayerTotals &p) { return p.groups[g].seconds; }),
             "s"});
    }
    const auto epoch = static_cast<unsigned>(SchedGroup::Epoch);
    m.insert(m.end(), {
        {"sched.share",
         med([](const LayerTotals &p) {
             return ratio(p.schedTotal, p.simRun);
         }),
         "ratio"},
        {"sched.epoch_share",
         med([&](const LayerTotals &p) {
             return ratio(p.groups[epoch].seconds, p.simRun);
         }),
         "ratio"},
        {"stats.epoch_samples", t.epochSamples, "count"},
        {"harness.export_s",
         med([](const LayerTotals &p) { return p.exportSeconds; }), "s"},
        {"harness.export_bytes", t.exportBytes, "bytes"},
        {"harness.sweep_busy_frac",
         ratio(untraced.runSecondsSum, workers * untraced.makespan),
         "ratio"},
        {"harness.tail_run_s", untraced.tailRunSeconds, "s"},
        {"harness.setup_share",
         med([&](const LayerTotals &p) {
             const double setup = p.workloadBuild + p.machineInit;
             return ratio(setup, setup + p.simRun);
         }),
         "ratio"},
        {"harness.trace_overhead_frac",
         med([&](const LayerTotals &p) {
             return ratio(p.hostRun, serial.runSecondsSum) - 1.0;
         }),
         "ratio"},
    });
    return m;
}

/** Tally checks into attempted/failed, printing each failure. */
void
tally(const BenchWorkload &w, const std::vector<RunCheck> &checks,
      const char *pass, std::uint64_t &attempted, std::uint64_t &failed)
{
    const std::vector<RunRequest> &requests = w.sweep.requests();
    for (std::size_t i = 0; i < checks.size(); ++i) {
        ++attempted;
        if (!checks[i].error.empty()) {
            ++failed;
            std::printf("FAILED %s run %s: %s\n", pass,
                        requests[i].label().c_str(),
                        checks[i].error.c_str());
        }
    }
}

/** --write-golden: one untraced and one traced pass that must agree. */
int
writeGolden(const BenchWorkload &w, std::uint64_t seed,
            const std::string &out_dir)
{
    const UntracedPass untraced =
        runUntraced(w, out_dir + "/untraced", w.workers);
    const LayerTotals traced = runTraced(w, out_dir + "/traced");
    const std::vector<RunRequest> &requests = w.sweep.requests();
    int status = untraced.complete ? 0 : 1;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        const RunCheck &a = untraced.checks[i];
        const RunCheck &b = traced.checks[i];
        if (!a.error.empty() || !b.error.empty() || a.digest != b.digest
            || a.traceDigest != b.traceDigest) {
            std::fprintf(stderr, "perfbench: %s: untraced '%s' traced '%s'\n",
                         requests[i].label().c_str(), a.error.c_str(),
                         b.error.c_str());
            status = 1;
            continue;
        }
        std::printf("%llu %s %s %s\n",
                    static_cast<unsigned long long>(seed),
                    requests[i].label().c_str(), a.digest.c_str(),
                    a.traceDigest.c_str());
    }
    std::fprintf(stderr, "perfbench: %s seed %llu: st_app_gain_pct %.4f "
                 "st_thr_gain_pct %.4f\n",
                 w.name.c_str(), static_cast<unsigned long long>(seed),
                 untraced.appGain, untraced.thrGain);
    return status;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    // The benchmark sets epochs, workers and trace directories
    // itself; these would otherwise change them silently.
    unsetenv("SCHEDTASK_FAST");
    unsetenv("SCHEDTASK_JOBS");
    unsetenv("SCHEDTASK_TRACE_DIR");

    try {
        if (opt.writeGolden) {
            if (opt.seed < 1)
                usage("--write-golden needs a seed >= 1");
            const auto seed = static_cast<std::uint64_t>(opt.seed);
            return writeGolden(workloadOrUsage(opt.workload, seed), seed,
                               opt.outDir);
        }

        const Golden golden = loadGolden(opt.golden);
        const std::uint64_t seed = effectiveSeed(opt.seed);
        const BenchWorkload w = workloadOrUsage(opt.workload, seed);
        const std::map<std::string, GoldenEntry> &expect = golden.at(seed);
        const auto rec = record(w);

        std::printf("perfbench %s: seed %lld -> golden seed %llu, %zu runs\n",
                    w.name.c_str(), static_cast<long long>(opt.seed),
                    static_cast<unsigned long long>(seed),
                    w.sweep.size());
        std::printf("record: %s\n", recordJson(rec).c_str());

        auto goldenFor = [&](const RunRequest &req) -> const GoldenEntry * {
            const auto it = expect.find(req.label());
            return it == expect.end() ? nullptr : &it->second;
        };
        const std::vector<RunRequest> &requests = w.sweep.requests();

        std::uint64_t attempted = 0;
        std::uint64_t failed = 0;
        std::vector<Metric> metrics;
        // Deterministic per seed and pinned by the golden digests;
        // printed and stored, not part of the gated result.
        std::vector<Metric> simulated;

        if (!opt.trace) {
            std::vector<double> setups;
            const Clock::time_point setup_start = Clock::now();
            while (static_cast<int>(setups.size()) < kSetupMinReps
                   || (static_cast<int>(setups.size()) < kSetupMaxReps
                       && secondsSince(setup_start) < kSetupSeconds))
                setups.push_back(setupSeconds(w));

            std::vector<double> walls, rates;
            double app_gain = 0.0, thr_gain = 0.0;
            const Clock::time_point passes = Clock::now();
            for (;;) {
                UntracedPass pass =
                    runUntraced(w, opt.outDir + "/untraced", w.workers);
                for (std::size_t i = 0; i < requests.size(); ++i)
                    compareToGolden(pass.checks[i], goldenFor(requests[i]));
                tally(w, pass.checks, "untraced", attempted, failed);
                walls.push_back(pass.wallSeconds);
                rates.push_back(ratio(
                    static_cast<double>(pass.measuredInsts) / 1e6,
                    pass.runSecondsSum));
                app_gain = pass.appGain;
                thr_gain = pass.thrGain;
                if (!pass.complete
                    || secondsSince(passes) + pass.wallSeconds > opt.seconds)
                    break;
            }
            std::printf("%zu set-ups; %zu untraced passes, wall_s "
                        "min %.4f max %.4f\n",
                        setups.size(), walls.size(),
                        *std::min_element(walls.begin(), walls.end()),
                        *std::max_element(walls.begin(), walls.end()));
            metrics = {
                {"wall_s", median(walls), "s"},
                {"sim_minsts_per_s", median(rates), "Minst/s"},
                {"setup_s", median(setups), "s"},
                {"peak_rss_mb", peakRssMb(), "MB"},
            };
            simulated = {
                {"st_app_gain_pct", app_gain, "%"},
                {"st_thr_gain_pct", thr_gain, "%"},
            };
        } else {
            const Clock::time_point start = Clock::now();
            UntracedPass untraced =
                runUntraced(w, opt.outDir + "/untraced", w.workers);
            for (std::size_t i = 0; i < requests.size(); ++i)
                compareToGolden(untraced.checks[i], goldenFor(requests[i]));
            tally(w, untraced.checks, "untraced", attempted, failed);
            // The traced pass runs serially; its overhead is measured
            // against an untraced pass that does too.
            UntracedPass serial;
            if (w.workers != 1) {
                serial = runUntraced(w, opt.outDir + "/serial", 1);
                for (std::size_t i = 0; i < requests.size(); ++i)
                    compareToGolden(serial.checks[i],
                                    goldenFor(requests[i]));
                tally(w, serial.checks, "serial", attempted, failed);
            }

            std::vector<LayerTotals> passes;
            for (;;) {
                const Clock::time_point p0 = Clock::now();
                LayerTotals t = runTraced(w, opt.outDir + "/traced");
                for (std::size_t i = 0; i < requests.size(); ++i) {
                    RunCheck &check = t.checks[i];
                    compareToGolden(check, goldenFor(requests[i]));
                    if (check.error.empty()
                        && check.digest != untraced.checks[i].digest)
                        check.error = "traced digest differs from untraced";
                }
                tally(w, t.checks, "traced", attempted, failed);
                const bool ok = t.runs == requests.size();
                passes.push_back(std::move(t));
                if (!ok
                    || secondsSince(start) + secondsSince(p0) > opt.seconds)
                    break;
            }
            std::printf("%zu traced passes\n", passes.size());

            metrics = layerMetrics(passes, untraced,
                                   w.workers != 1 ? serial : untraced,
                                   w.workers);
        }

        std::vector<Metric> printed = metrics;
        printed.insert(printed.end(), simulated.begin(), simulated.end());
        for (const Metric &m : printed) {
            std::printf("%-28s %16.6f %s", m.name.c_str(), m.value,
                        m.unit.c_str());
            if (m.name == "st_app_gain_pct" && w.name == "paper32")
                std::printf("   (paper Fig. 7 SchedTask gmean: +%.1f; "
                            "reference only, the model is not "
                            "validated on hardware)",
                            kPaperFig7SchedTaskGain);
            std::printf("\n");
        }
        std::printf("runs_attempted %llu runs_failed %llu\n",
                    static_cast<unsigned long long>(attempted),
                    static_cast<unsigned long long>(failed));

        const bool correct = failed == 0;
        const std::string result = "{\"correct\": "
            + std::string(correct ? "true" : "false")
            + ", \"attempted\": " + std::to_string(attempted)
            + ", \"failed\": " + std::to_string(failed)
            + ", \"metrics\": " + metricsJson(metrics) + "}";
        if (!opt.resultFile.empty()) {
            writeTextFile(opt.resultFile,
                          "{\"record\": " + recordJson(rec)
                              + ", \"seed\": " + std::to_string(opt.seed)
                              + ", \"golden_seed\": " + std::to_string(seed)
                              + ", \"trace\": " + (opt.trace ? "1" : "0")
                              + ", \"simulated\": " + metricsJson(simulated)
                              + ", \"result\": " + result + "}\n");
        }
        std::printf("%s\n", result.c_str());
        std::fflush(stdout);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
