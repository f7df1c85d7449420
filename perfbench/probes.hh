/**
 * @file
 * Benchmark-side tracing: host-time and call-count probes placed at the
 * simulator's public seams, from outside the program.
 *
 * - TimedApp wraps an ApplicationModel so every ActionSource::next()
 *   call (the workload layer's action generation) is counted and timed.
 *   It only forwards, so the run it drives is the same run.
 * - LayerProbe subscribes to the scheduler and runtime probe chains and
 *   counts the calls each layer makes through them, sampling the event
 *   queue depth at every scheduler callback.
 *
 * Nothing here is compiled into jscale itself.
 */

#ifndef JSCALE_PERFBENCH_PROBES_HH
#define JSCALE_PERFBENCH_PROBES_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "jvm/runtime/app.hh"
#include "jvm/runtime/listener.hh"
#include "jvm/runtime/vm.hh"
#include "os/sched_listener.hh"
#include "os/scheduler.hh"
#include "sim/simulation.hh"

namespace jscale::perfbench {

using Clock = std::chrono::steady_clock;

/** Calls through one seam and the host time spent inside them. */
struct SeamTally
{
    std::uint64_t calls = 0;
    std::int64_t ns = 0;
};

/** Times every next() of the wrapped source into a shared tally. */
class TimedSource final : public jvm::ActionSource
{
  public:
    TimedSource(std::unique_ptr<jvm::ActionSource> inner, SeamTally &tally)
        : inner_(std::move(inner)), tally_(tally)
    {}

    jvm::Action
    next() override
    {
        const auto t0 = Clock::now();
        jvm::Action a = inner_->next();
        tally_.ns += (Clock::now() - t0).count();
        ++tally_.calls;
        return a;
    }

  private:
    std::unique_ptr<jvm::ActionSource> inner_;
    SeamTally &tally_;
};

/** Forwards to @p inner, handing out TimedSources. */
class TimedApp final : public jvm::ApplicationModel
{
  public:
    TimedApp(std::unique_ptr<jvm::ApplicationModel> inner, SeamTally &tally)
        : inner_(std::move(inner)), tally_(tally)
    {}

    std::string appName() const override { return inner_->appName(); }

    void setup(jvm::AppContext &ctx) override { inner_->setup(ctx); }

    std::unique_ptr<jvm::ActionSource>
    threadSource(std::uint32_t thread_idx, jvm::AppContext &ctx) override
    {
        return std::make_unique<TimedSource>(
            inner_->threadSource(thread_idx, ctx), tally_);
    }

  private:
    std::unique_ptr<jvm::ApplicationModel> inner_;
    SeamTally &tally_;
};

/** Counts of calls made through the scheduler and runtime probes. */
struct LayerCounts
{
    std::uint64_t dispatches = 0;
    std::uint64_t objects = 0;
    std::uint64_t gc_ends = 0;
    std::uint64_t gc_full = 0;
    std::uint64_t lock_acquisitions = 0;
    std::uint64_t lock_contentions = 0;
    std::uint64_t queue_depth_max = 0;
};

/**
 * Counting listener on both probe chains of one VM. Attach through the
 * runner's VmAttachHook; the probe must outlive the run.
 */
class LayerProbe final : public os::SchedulerListener,
                         public jvm::RuntimeListener
{
  public:
    void
    attach(jvm::JavaVm &vm)
    {
        sim_ = &vm.sim();
        vm.listeners().add(this);
        vm.scheduler().listeners().add(this);
    }

    const LayerCounts &counts() const { return counts_; }

    void
    onDispatch(const os::OsThread &, machine::CoreId, Ticks, bool,
               Ticks) override
    {
        ++counts_.dispatches;
        sampleQueue();
    }

    void
    onBurstEnd(const os::OsThread &, machine::CoreId, Ticks, bool,
               Ticks) override
    {
        sampleQueue();
    }

    void
    onObjectAlloc(const jvm::ObjectRecord &, Ticks) override
    {
        ++counts_.objects;
    }

    void
    onGcEnd(const jvm::GcEvent &event, Ticks) override
    {
        ++counts_.gc_ends;
        if (event.kind == jvm::GcKind::Full)
            ++counts_.gc_full;
    }

    void
    onMonitorAcquire(jvm::MutatorIndex, jvm::MonitorId, bool, Ticks) override
    {
        ++counts_.lock_acquisitions;
    }

    void
    onMonitorContended(jvm::MutatorIndex, jvm::MonitorId, Ticks) override
    {
        ++counts_.lock_contentions;
    }

  private:
    void
    sampleQueue()
    {
        counts_.queue_depth_max = std::max<std::uint64_t>(
            counts_.queue_depth_max, sim_->queue().size());
    }

    sim::Simulation *sim_ = nullptr;
    LayerCounts counts_;
};

} // namespace jscale::perfbench

#endif // JSCALE_PERFBENCH_PROBES_HH
