#include "telemetry/recorder.hh"

#include "jvm/runtime/vm.hh"
#include "os/scheduler.hh"

namespace jscale::telemetry {

namespace {

// Thread-state span names. Tracks store these pointers and compare
// them by identity.
constexpr const char kRunning[] = "running";
constexpr const char kReadyWait[] = "ready-wait";
constexpr const char kAtSafepoint[] = "at-safepoint";
constexpr const char kBlocked[] = "blocked";
constexpr const char kLockBlocked[] = "lock-blocked";
constexpr const char kSleeping[] = "sleeping";

/** Grow @p v so index @p id exists. */
template <typename T>
T &
slot(std::vector<T> &v, std::uint32_t id)
{
    if (id >= v.size())
        v.resize(static_cast<std::size_t>(id) + 1);
    return v[id];
}

} // namespace

TelemetryRecorder::TelemetryRecorder(Timeline &timeline)
    : timeline_(timeline)
{
    timeline_.processName(kCoresPid, "cores");
    timeline_.processName(kThreadsPid, "threads");
    timeline_.processName(kVmPid, "vm");
    timeline_.threadName(kVmPid, kSafepointTid, "safepoint");
    timeline_.threadName(kVmPid, kGcTid, "gc");
    timeline_.threadName(kVmPid, kConcMarkTid, "concurrent-mark");
}

TelemetryRecorder::~TelemetryRecorder()
{
    detach();
}

void
TelemetryRecorder::attach(jvm::JavaVm &vm)
{
    detach();
    vm_ = &vm;
    vm_->listeners().add(this);
    vm_->scheduler().listeners().add(this);
}

void
TelemetryRecorder::detach()
{
    if (vm_ == nullptr)
        return;
    vm_->listeners().remove(this);
    vm_->scheduler().listeners().remove(this);
    vm_ = nullptr;
}

TelemetryRecorder::ThreadTrack &
TelemetryRecorder::threadTrack(const os::OsThread &t)
{
    ThreadTrack &tr = slot(threads_, t.id());
    if (!tr.named) {
        tr.named = true;
        tr.tid = t.id();
        timeline_.threadName(kThreadsPid, t.id(), t.name());
    }
    return tr;
}

TelemetryRecorder::CoreTrack &
TelemetryRecorder::coreTrack(machine::CoreId core)
{
    CoreTrack &ct = slot(cores_, core);
    if (!ct.named) {
        ct.named = true;
        timeline_.threadName(kCoresPid, core,
                             "core " + std::to_string(core));
    }
    return ct;
}

void
TelemetryRecorder::closeState(ThreadTrack &tr, Ticks now)
{
    const char *label = tr.label;
    if (label == nullptr)
        return;
    tr.label = nullptr;
    if (now == tr.since)
        return; // zero-length state; skip the noise
    timeline_.beginSpan(kThreadsPid, tr.tid, label, "state", tr.since, now);
    if (tr.monitor != kNoMonitor)
        timeline_.arg("monitor", std::uint64_t{tr.monitor});
    timeline_.endEvent();
}

void
TelemetryRecorder::relabelOpen(const char *from, const char *to,
                               Ticks now)
{
    for (ThreadTrack &tr : threads_) {
        if (tr.label != from)
            continue;
        closeState(tr, now);
        tr.label = to;
        tr.since = now;
        tr.monitor = kNoMonitor;
    }
}

void
TelemetryRecorder::onDispatch(const os::OsThread &t, machine::CoreId core,
                              Ticks overhead, bool stolen, Ticks now)
{
    CoreTrack &ct = coreTrack(core);
    if (!ct.busy && now > ct.idle_since) {
        timeline_.span(kCoresPid, core, "idle", "idle", ct.idle_since,
                       now);
    }
    ct.busy = true;
    ct.runner = t.name();
    ct.runner_id = t.id();
    ct.stolen = stolen;
    ct.overhead = overhead;
    ct.burst_since = now;
}

void
TelemetryRecorder::onBurstEnd(const os::OsThread &t, machine::CoreId core,
                              Ticks started, bool preempted, Ticks now)
{
    CoreTrack &ct = coreTrack(core);
    timeline_.beginSpan(kCoresPid, core, t.name(), "burst", started, now);
    timeline_.arg("thread", std::uint64_t{t.id()});
    timeline_.arg("overhead_ns", std::uint64_t{ct.overhead});
    if (ct.stolen)
        timeline_.arg("stolen", "true");
    if (preempted)
        timeline_.arg("preempted", "true");
    timeline_.endEvent();
    if (preempted) {
        timeline_.instant(kCoresPid, core, "preempt", "sched", now,
                          {targ("thread",
                                static_cast<std::uint64_t>(t.id()))});
    }
    ct.busy = false;
    ct.idle_since = now;
}

void
TelemetryRecorder::onMigrate(const os::OsThread &t, machine::CoreId from,
                             machine::CoreId to, Ticks now)
{
    timeline_.instant(kCoresPid, to, "migrate", "sched", now,
                      {targ("thread", static_cast<std::uint64_t>(t.id())),
                       targ("from", static_cast<std::uint64_t>(from)),
                       targ("to", static_cast<std::uint64_t>(to))});
}

void
TelemetryRecorder::onThreadState(const os::OsThread &t,
                                 os::ThreadState prev, Ticks now)
{
    (void)prev;
    ThreadTrack &tr = threadTrack(t);
    const char *label = nullptr;
    std::uint32_t monitor = kNoMonitor;
    switch (t.state()) {
      case os::ThreadState::Running:
        label = kRunning;
        break;
      case os::ThreadState::Ready:
        label = in_safepoint_ ? kAtSafepoint : kReadyWait;
        break;
      case os::ThreadState::Blocked: {
        label = kBlocked;
        if (t.kind() == os::ThreadKind::Mutator) {
            // Mutators are registered first, so ThreadId == MutatorIndex.
            const auto it = pending_monitor_.find(
                static_cast<jvm::MutatorIndex>(t.id()));
            if (it != pending_monitor_.end()) {
                label = kLockBlocked;
                monitor = it->second;
                pending_monitor_.erase(it);
            }
        }
        break;
      }
      case os::ThreadState::Sleeping:
        label = kSleeping;
        break;
      case os::ThreadState::New:
      case os::ThreadState::Finished:
        break;
    }
    closeState(tr, now);
    if (label == nullptr)
        return;
    tr.label = label;
    tr.since = now;
    tr.monitor = monitor;
}

void
TelemetryRecorder::onWorldStopRequested(Ticks now)
{
    in_safepoint_ = true;
    // Threads already queued keep waiting through the safepoint; relabel
    // the remainder of their wait so safepoint time is visible per thread.
    relabelOpen(kReadyWait, kAtSafepoint, now);
}

void
TelemetryRecorder::onWorldResumed(Ticks now)
{
    in_safepoint_ = false;
    relabelOpen(kAtSafepoint, kReadyWait, now);
}

void
TelemetryRecorder::onMonitorContended(jvm::MutatorIndex thread,
                                      jvm::MonitorId monitor, Ticks now)
{
    (void)now;
    pending_monitor_[thread] = monitor;
}

void
TelemetryRecorder::onSafepointReached(std::uint64_t sequence, Ticks ttsp,
                                      Ticks now)
{
    timeline_.span(kVmPid, kSafepointTid, "bring-to-stop", "safepoint",
                   now - ttsp, now, {targ("sequence", sequence)});
}

void
TelemetryRecorder::onGcPhase(std::uint64_t sequence, jvm::GcKind kind,
                             const char *phase, Ticks begin, Ticks end)
{
    timeline_.span(kVmPid, kGcTid, phase, "gc-phase", begin, end,
                   {targ("sequence", sequence),
                    targ("kind", jvm::gcKindName(kind))});
}

void
TelemetryRecorder::onGcEnd(const jvm::GcEvent &event, Ticks now)
{
    (void)now;
    timeline_.span(
        kVmPid, kGcTid, jvm::gcKindName(event.kind), "gc",
        event.safepoint_at, event.finished_at,
        {targ("sequence", event.sequence),
         targ("ttsp_ns", static_cast<std::uint64_t>(
                             event.timeToSafepoint())),
         targ("moved_bytes", static_cast<std::uint64_t>(event.moved_bytes)),
         targ("promoted_bytes",
              static_cast<std::uint64_t>(event.promoted_bytes)),
         targ("reclaimed_bytes",
              static_cast<std::uint64_t>(event.reclaimed_bytes))});
}

void
TelemetryRecorder::onConcurrentMarkBegin(std::uint64_t cycle, Ticks now)
{
    mark_open_ = true;
    mark_cycle_ = cycle;
    mark_since_ = now;
}

void
TelemetryRecorder::onConcurrentMarkEnd(std::uint64_t cycle, bool aborted,
                                       Ticks now)
{
    if (!mark_open_)
        return;
    mark_open_ = false;
    TraceArgs args = {targ("cycle", cycle)};
    if (aborted)
        args.push_back(targ("aborted", "true"));
    timeline_.span(kVmPid, kConcMarkTid, "concurrent-mark", "gc",
                   mark_since_, now, args);
}

void
TelemetryRecorder::onGovernorDecision(std::uint32_t target,
                                      std::uint32_t active,
                                      std::uint32_t parked,
                                      std::uint64_t tasks_delta, Ticks now)
{
    timeline_.counter(
        kVmPid, "governor", now,
        {targ("target", static_cast<std::uint64_t>(target)),
         targ("active", static_cast<std::uint64_t>(active)),
         targ("parked", static_cast<std::uint64_t>(parked)),
         targ("tasks", tasks_delta)});
}

void
TelemetryRecorder::trafficCounter(Ticks now)
{
    timeline_.counter(
        kVmPid, "traffic", now,
        {targ("queued",
              static_cast<std::uint64_t>(queued_requests_.size())),
         targ("inflight", requests_inflight_)});
}

void
TelemetryRecorder::onRequestArrival(std::uint32_t tenant,
                                    std::uint64_t request, Ticks now)
{
    (void)tenant; // one recorder per VM; probes arrive on its chain only
    queued_requests_.insert(request);
    trafficCounter(now);
}

void
TelemetryRecorder::onRequestShed(std::uint32_t tenant,
                                 std::uint64_t request, Ticks now)
{
    (void)tenant;
    ++requests_shed_;
    timeline_.instant(kVmPid, kSafepointTid, "request-shed", "traffic",
                      now,
                      {targ("request", request),
                       targ("shed_total", requests_shed_)});
    if (queued_requests_.erase(request) > 0)
        trafficCounter(now);
}

void
TelemetryRecorder::onRequestDispatched(std::uint32_t tenant,
                                       std::uint64_t request,
                                       jvm::MutatorIndex thread, Ticks now)
{
    (void)tenant;
    (void)thread;
    queued_requests_.erase(request);
    ++requests_inflight_;
    trafficCounter(now);
}

void
TelemetryRecorder::onRequestCompleted(std::uint32_t tenant,
                                      std::uint64_t request,
                                      jvm::MutatorIndex thread, Ticks now)
{
    (void)tenant;
    (void)request;
    (void)thread;
    if (requests_inflight_ > 0)
        --requests_inflight_;
    trafficCounter(now);
}

void
TelemetryRecorder::finish(Ticks end)
{
    if (finished_)
        return;
    finished_ = true;
    for (ThreadTrack &tr : threads_)
        closeState(tr, end);
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const CoreTrack &ct = cores_[i];
        if (!ct.named)
            continue;
        const auto core = static_cast<machine::CoreId>(i);
        if (ct.busy) {
            timeline_.span(kCoresPid, core, ct.runner, "burst",
                           ct.burst_since, end,
                           {targ("thread", static_cast<std::uint64_t>(
                                               ct.runner_id)),
                            targ("truncated", "true")});
        } else if (end > ct.idle_since) {
            timeline_.span(kCoresPid, core, "idle", "idle", ct.idle_since,
                           end);
        }
    }
    if (mark_open_) {
        mark_open_ = false;
        timeline_.span(kVmPid, kConcMarkTid, "concurrent-mark", "gc",
                       mark_since_, end,
                       {targ("cycle", mark_cycle_),
                        targ("truncated", "true")});
    }
}

} // namespace jscale::telemetry
