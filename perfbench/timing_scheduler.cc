#include "timing_scheduler.hh"

#include "sim/machine.hh"

namespace perfbench
{

using namespace schedtask;

namespace
{

double
secondsBetween(TimingScheduler::Clock::time_point from,
               TimingScheduler::Clock::time_point to)
{
    if (from == TimingScheduler::Clock::time_point{}
        || to == TimingScheduler::Clock::time_point{})
        return 0.0;
    return std::chrono::duration<double>(to - from).count();
}

} // namespace

TimingScheduler::Timed::~Timed()
{
    if (!owner_.running_)
        return;
    GroupTime &g = owner_.groups_[static_cast<unsigned>(group_)];
    ++g.calls;
    g.seconds += std::chrono::duration<double>(Clock::now() - start_)
                     .count();
}

double
TimingScheduler::workloadBuildSeconds() const
{
    return secondsBetween(begin_, cores_at_);
}

double
TimingScheduler::machineInitSeconds() const
{
    return secondsBetween(configured_at_, first_pick_);
}

double
TimingScheduler::runSeconds() const
{
    return secondsBetween(first_pick_, last_epoch_);
}

double
TimingScheduler::measuredRunSeconds() const
{
    return secondsBetween(measure_start_, last_epoch_);
}

double
TimingScheduler::measuredSchedSeconds() const
{
    return schedSeconds() - sched_at_measure_start_;
}

double
TimingScheduler::schedSeconds() const
{
    double total = 0.0;
    for (const GroupTime &g : groups_)
        total += g.seconds;
    return total;
}

unsigned
TimingScheduler::coresRequired(unsigned baseline_cores) const
{
    if (cores_at_ == Clock::time_point{})
        cores_at_ = Clock::now();
    return inner_.coresRequired(baseline_cores);
}

void
TimingScheduler::configureMachine(MachineParams &params) const
{
    inner_.configureMachine(params);
    configured_at_ = Clock::now();
}

void
TimingScheduler::attach(Machine &machine)
{
    Scheduler::attach(machine);
    inner_.attach(machine);
}

void
TimingScheduler::onSfStart(SuperFunction *sf)
{
    Timed t(*this, SchedGroup::Place);
    inner_.onSfStart(sf);
}

void
TimingScheduler::onSfResume(SuperFunction *parent,
                            const SuperFunction *completed_child)
{
    Timed t(*this, SchedGroup::Place);
    inner_.onSfResume(parent, completed_child);
}

void
TimingScheduler::onSfBlock(SuperFunction *sf)
{
    Timed t(*this, SchedGroup::Other);
    inner_.onSfBlock(sf);
}

void
TimingScheduler::onSfWakeup(SuperFunction *sf)
{
    Timed t(*this, SchedGroup::Place);
    inner_.onSfWakeup(sf);
}

void
TimingScheduler::onSfYield(SuperFunction *sf)
{
    Timed t(*this, SchedGroup::Place);
    inner_.onSfYield(sf);
}

SuperFunction *
TimingScheduler::pickNext(CoreId core)
{
    if (!running_) {
        first_pick_ = Clock::now();
        if (stop_at_first_pick_)
            throw SetupDone{};
        running_ = true;
        if (warmup_epochs_ == 0)
            measure_start_ = first_pick_;
    }
    Timed t(*this, SchedGroup::Pick);
    return inner_.pickNext(core);
}

bool
TimingScheduler::hasRunnable(CoreId core) const
{
    Timed t(*this, SchedGroup::Other);
    return inner_.hasRunnable(core);
}

CoreId
TimingScheduler::routeIrq(IrqId irq)
{
    Timed t(*this, SchedGroup::Other);
    return inner_.routeIrq(irq);
}

void
TimingScheduler::onEpoch()
{
    {
        Timed t(*this, SchedGroup::Epoch);
        inner_.onEpoch();
    }
    last_epoch_ = Clock::now();
    if (++epochs_ == warmup_epochs_) {
        measure_start_ = last_epoch_;
        sched_at_measure_start_ = schedSeconds();
    }
    const MemHierarchy &hier = machine_->hierarchy();
    mem_.l1i = hier.iCountsTotal();
    mem_.l1d = hier.dCountsTotal();
    mem_.l2 = hier.l2Counts();
    mem_.itlbHitRate = hier.itlbHitRate();
    mem_.dtlbHitRate = hier.dtlbHitRate();
    mem_.cohInvalidations = hier.coherenceInvalidations();
}

SchedEpochReport
TimingScheduler::epochDecision() const
{
    Timed t(*this, SchedGroup::Other);
    return inner_.epochDecision();
}

CoreId
TimingScheduler::midSfPlacement(SuperFunction *sf, CoreId current)
{
    Timed t(*this, SchedGroup::Other);
    return inner_.midSfPlacement(sf, current);
}

SchedOverhead
TimingScheduler::overheadFor(SchedEvent event,
                             const SuperFunction *sf) const
{
    Timed t(*this, SchedGroup::Other);
    return inner_.overheadFor(event, sf);
}

void
TimingScheduler::onSliceEnd(CoreId core, const SuperFunction *sf,
                            Cycles elapsed, std::uint64_t insts,
                            const PageHeatmap &heatmap)
{
    Timed t(*this, SchedGroup::Slice);
    inner_.onSliceEnd(core, sf, elapsed, insts, heatmap);
}

} // namespace perfbench
