/**
 * @file
 * SuperFunction event tracing.
 *
 * When attached to a Machine, the tracer records the scheduler-level
 * life of every SuperFunction — dispatches, completions, blocks,
 * wakeups, migrations — as a compact event stream. This is the
 * moral equivalent of the paper's Qemu trace at SuperFunction
 * granularity: enough to reconstruct Figure 5's thread timeline, to
 * debug scheduler policies, and to compute custom statistics
 * offline.
 *
 * Tracing is sampling-safe: a bounded ring keeps the most recent
 * `capacity` events, so long simulations cannot exhaust memory.
 */

#ifndef SCHEDTASK_SIM_SF_TRACE_HH
#define SCHEDTASK_SIM_SF_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"
#include "core/sf_type.hh"

namespace schedtask
{

struct SfTypeInfo;

/** Kind of a trace event. */
enum class SfEventKind : std::uint8_t
{
    Dispatch, ///< a core started executing a SuperFunction slice
    Complete, ///< the SuperFunction finished
    Block,    ///< it went to the waiting state (device I/O)
    Wakeup,   ///< it became runnable again
    Pause,    ///< preempted in place by an interrupt
    Migrate,  ///< it will continue on a different core
};

/** Human-readable event-kind name. */
const char *sfEventKindName(SfEventKind kind);

/** One trace record. */
struct SfEvent
{
    Cycles when = 0;
    SfEventKind kind = SfEventKind::Dispatch;
    CoreId core = invalidCore;
    ThreadId tid = invalidThread;
    SfType type;
    std::uint64_t sfId = 0;
    /** Type name if known; points into the run's SF catalog, so it
     *  dangles once the run's BenchmarkSuite is destroyed. */
    const char *typeName = "";
};

/**
 * Bounded ring buffer of SuperFunction events.
 */
class SfTracer
{
  public:
    /** @param capacity maximum retained events (ring buffer). */
    explicit SfTracer(std::size_t capacity = 65536);

    /** Append one event (drops the oldest beyond capacity). */
    void record(const SfEvent &event);

    /** Events in chronological order (oldest retained first). */
    std::vector<SfEvent> events() const;

    /** Number of retained events. */
    std::size_t size() const;

    /** Total events ever recorded (including dropped ones). */
    std::uint64_t totalRecorded() const { return total_; }

    /** Drop everything. */
    void clear();

    /**
     * Render the retained events as an aligned text listing,
     * optionally restricted to one thread (the Figure 5 view).
     */
    std::string render(ThreadId only_tid = invalidThread,
                       std::size_t max_events = 200) const;

  private:
    std::size_t capacity_;
    std::vector<SfEvent> ring_;
    std::size_t head_ = 0; // next write position
    bool wrapped_ = false;
    std::uint64_t total_ = 0;
};

} // namespace schedtask

#endif // SCHEDTASK_SIM_SF_TRACE_HH
