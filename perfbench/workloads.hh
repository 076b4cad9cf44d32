/**
 * @file
 * The benchmark's workloads and the per-run result digest.
 *
 * Every input the environment could change is fixed here: epochs are
 * set explicitly (ExperimentConfig::standard() shrinks them when
 * SCHEDTASK_FAST is set), and so are the worker count and whether a
 * workload exports traces. Why each workload exists is in README.md.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "harness/sweep.hh"

namespace perfbench
{

struct BenchWorkload
{
    std::string name;
    schedtask::Sweep sweep;
    /** SweepRunner worker threads. */
    unsigned workers = 1;
    /** Each run writes a Chrome trace and a JSONL file. */
    bool exportTraces = false;
    /** Human-readable shape, recorded with every result. */
    std::string shape;
};

/** Column (and technique) of SchedTask's runs in every workload. */
inline const std::string schedTaskCol = "SchedTask";

/** Build a workload for a simulation seed; throws
 *  std::invalid_argument on an unknown name. */
BenchWorkload makeWorkload(const std::string &name, std::uint64_t seed);

/**
 * The fast shape (8 cores, 1X, 1 warm-up + 2 measured epochs) that
 * sweep_mix and the decorator test use.
 */
schedtask::ExperimentConfig fastConfig(const std::string &benchmark,
                                       std::uint64_t seed);

/**
 * FNV-1a digest (stableHash64) of a run's deterministic results:
 * the SimMetrics counts, per-category instructions, per-part,
 * per-core and per-thread vectors, the epoch samples (as their
 * JSONL export) and the hierarchy-derived rates, bit for bit.
 */
std::uint64_t runDigest(const schedtask::RunResult &result);

/** Lower-case 16-digit hex. */
std::string hex64(std::uint64_t value);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
