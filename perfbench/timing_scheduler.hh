/**
 * @file
 * A forwarding Scheduler that times every call the Machine makes
 * into the scheduler interface, for the benchmark's traced run.
 *
 * The decorator owns no scheduling state: each virtual forwards to
 * the wrapped scheduler unchanged, so a run through it must produce
 * bitwise the same results as a run without it (the benchmark checks
 * this with the per-run digest, and decorator_test checks every
 * virtual is forwarded).
 *
 * Besides per-group call counts and host time, it marks the phases
 * of one runWithScheduler() call as seen from the scheduler
 * interface:
 *   begin()                      -> coresRequired()   workload build
 *   configureMachine() returns   -> first pickNext()   machine init
 *   first pickNext()             -> last onEpoch()     simulation
 *   onEpoch() numbered warmupEpochs -> last onEpoch()  measured window
 * and it snapshots the MemHierarchy counters at every epoch
 * boundary; runs end on an epoch boundary, so the last snapshot
 * holds the measured window's counts.
 */

#ifndef PERFBENCH_TIMING_SCHEDULER_HH
#define PERFBENCH_TIMING_SCHEDULER_HH

#include <array>
#include <chrono>
#include <cstdint>

#include "mem/hierarchy.hh"
#include "sched/scheduler.hh"

namespace perfbench
{

/** Scheduler-interface call groups (see README.md, "Layers"). */
enum class SchedGroup : unsigned
{
    Place, ///< onSfStart, onSfResume, onSfWakeup, onSfYield
    Pick,  ///< pickNext (including stealing)
    Epoch, ///< onEpoch (TAlloc + OverlapTable)
    Slice, ///< onSliceEnd (StatsTable + heatmap merge)
    Other, ///< routeIrq, midSfPlacement, onSfBlock, hasRunnable,
           ///< overheadFor, epochDecision
};

inline constexpr unsigned numSchedGroups = 5;

/** Calls and host seconds of one group. */
struct GroupTime
{
    std::uint64_t calls = 0;
    double seconds = 0.0;
};

/** MemHierarchy counters read at an epoch boundary. */
struct MemSnapshot
{
    schedtask::AccessCounts l1i;
    schedtask::AccessCounts l1d;
    schedtask::AccessCounts l2;
    double itlbHitRate = 1.0;
    double dtlbHitRate = 1.0;
    std::uint64_t cohInvalidations = 0;
};

/** Thrown by a set-up probe at the first pickNext(). It derives
 *  from nothing, so no handler in the program catches it. */
struct SetupDone
{
};

class TimingScheduler final : public schedtask::Scheduler
{
  public:
    using Clock = std::chrono::steady_clock;

    explicit TimingScheduler(schedtask::Scheduler &inner)
        : inner_(inner)
    {
    }

    /** Mark the start of runWithScheduler(); call right before it. */
    void begin() { begin_ = Clock::now(); }

    /** The run warms up for this many epochs (its config's
     *  warmupEpochs); the measured window starts after them. */
    void measureAfterEpochs(unsigned warmup_epochs)
    {
        warmup_epochs_ = warmup_epochs;
    }

    /** Make the first pickNext() throw SetupDone, so that
     *  runWithScheduler() stops at its first simulated cycle. */
    void stopAtFirstPick() { stop_at_first_pick_ = true; }

    /** When the first pickNext() came (a default time_point if none
     *  came). */
    Clock::time_point firstPick() const { return first_pick_; }

    /** Host seconds from begin() to the first coresRequired(). */
    double workloadBuildSeconds() const;

    /** Host seconds from configureMachine() to the first pickNext(). */
    double machineInitSeconds() const;

    /** Host seconds from the first pickNext() to the last onEpoch(). */
    double runSeconds() const;

    /** runSeconds() restricted to the measured window. */
    double measuredRunSeconds() const;

    /** schedSeconds() restricted to the measured window. */
    double measuredSchedSeconds() const;

    /** onEpoch() calls so far. */
    unsigned epochs() const { return epochs_; }

    /** Per-group times, counted from the first pickNext() on. */
    const GroupTime &group(SchedGroup g) const
    {
        return groups_[static_cast<unsigned>(g)];
    }

    /** Sum of every group's host seconds. */
    double schedSeconds() const;

    /** Counters at the last epoch boundary (the measured window). */
    const MemSnapshot &mem() const { return mem_; }

    // ---- The Scheduler interface, forwarded ----------------------

    const char *name() const override { return inner_.name(); }
    unsigned coresRequired(unsigned baseline_cores) const override;
    void configureMachine(schedtask::MachineParams &params) const override;
    void attach(schedtask::Machine &machine) override;
    void onSfStart(schedtask::SuperFunction *sf) override;
    void onSfResume(schedtask::SuperFunction *parent,
                    const schedtask::SuperFunction *completed_child)
        override;
    void onSfBlock(schedtask::SuperFunction *sf) override;
    void onSfWakeup(schedtask::SuperFunction *sf) override;
    void onSfYield(schedtask::SuperFunction *sf) override;
    schedtask::SuperFunction *pickNext(schedtask::CoreId core) override;
    bool hasRunnable(schedtask::CoreId core) const override;
    schedtask::CoreId routeIrq(schedtask::IrqId irq) override;
    void onEpoch() override;
    schedtask::SchedEpochReport epochDecision() const override;
    schedtask::CoreId midSfPlacement(schedtask::SuperFunction *sf,
                                     schedtask::CoreId current) override;
    schedtask::SchedOverhead
    overheadFor(schedtask::SchedEvent event,
                const schedtask::SuperFunction *sf) const override;
    void onSliceEnd(schedtask::CoreId core,
                    const schedtask::SuperFunction *sf,
                    schedtask::Cycles elapsed, std::uint64_t insts,
                    const schedtask::PageHeatmap &heatmap) override;
    bool wantsHeatmap() const override { return inner_.wantsHeatmap(); }

  private:
    /** Times one forwarded call into its group once running. */
    class Timed
    {
      public:
        Timed(const TimingScheduler &owner, SchedGroup g)
            : owner_(owner), group_(g),
              start_(owner.running_ ? Clock::now() : Clock::time_point{})
        {
        }
        ~Timed();
        Timed(const Timed &) = delete;
        Timed &operator=(const Timed &) = delete;

      private:
        const TimingScheduler &owner_;
        SchedGroup group_;
        Clock::time_point start_;
    };

    schedtask::Scheduler &inner_;
    Clock::time_point begin_{};
    mutable Clock::time_point cores_at_{};
    mutable Clock::time_point configured_at_{};
    Clock::time_point first_pick_{};
    Clock::time_point measure_start_{};
    Clock::time_point last_epoch_{};
    double sched_at_measure_start_ = 0.0;
    unsigned warmup_epochs_ = 0;
    unsigned epochs_ = 0;
    bool stop_at_first_pick_ = false;
    bool running_ = false;
    mutable std::array<GroupTime, numSchedGroups> groups_{};
    MemSnapshot mem_;
};

} // namespace perfbench

#endif // PERFBENCH_TIMING_SCHEDULER_HH
