/**
 * @file
 * Tests for the discrete-event kernel: ordering guarantees, tie
 * breaking, cancellation, rescheduling, the simulation loop and the
 * calendar's bounded memory.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "base/random.hh"
#include "sim/event.hh"
#include "sim/simulation.hh"

namespace {

using namespace jscale;
using sim::Event;
using sim::EventQueue;
using sim::Simulation;

/** Test event recording its firing into a shared log. */
class LogEvent : public Event
{
  public:
    LogEvent(std::vector<int> &log, int id) : log_(log), id_(id) {}

    void process() override { log_.push_back(id_); }
    std::string name() const override { return "log-event"; }

  private:
    std::vector<int> &log_;
    int id_;
};

TEST(EventQueue, ProcessesInTimeOrder)
{
    Simulation sim;
    std::vector<int> log;
    LogEvent e1(log, 1);
    LogEvent e2(log, 2);
    LogEvent e3(log, 3);
    sim.schedule(&e2, 20);
    sim.schedule(&e1, 10);
    sim.schedule(&e3, 30);
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(sim.now(), 30u);
}

TEST(EventQueue, SameTickFiresInScheduleOrder)
{
    Simulation sim;
    std::vector<int> log;
    std::vector<std::unique_ptr<LogEvent>> events;
    for (int i = 0; i < 10; ++i) {
        events.push_back(std::make_unique<LogEvent>(log, i));
        sim.schedule(events.back().get(), 5);
    }
    sim.run();
    std::vector<int> expect(10);
    for (int i = 0; i < 10; ++i)
        expect[i] = i;
    EXPECT_EQ(log, expect);
}

TEST(EventQueue, DescheduleCancels)
{
    Simulation sim;
    std::vector<int> log;
    LogEvent keep(log, 1);
    LogEvent cancel(log, 2);
    sim.schedule(&keep, 10);
    sim.schedule(&cancel, 5);
    EXPECT_TRUE(cancel.scheduled());
    sim.queue().deschedule(&cancel);
    EXPECT_FALSE(cancel.scheduled());
    sim.run();
    EXPECT_EQ(log, std::vector<int>{1});
}

TEST(EventQueue, DescheduleIdempotent)
{
    Simulation sim;
    std::vector<int> log;
    LogEvent e(log, 1);
    sim.schedule(&e, 10);
    sim.queue().deschedule(&e);
    sim.queue().deschedule(&e); // no-op
    EXPECT_TRUE(sim.queue().empty());
}

TEST(EventQueue, RescheduleMovesEvent)
{
    Simulation sim;
    std::vector<int> log;
    LogEvent a(log, 1);
    LogEvent b(log, 2);
    sim.schedule(&a, 10);
    sim.schedule(&b, 20);
    sim.queue().reschedule(&b, 5); // b now fires first
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{2, 1}));
}

TEST(EventQueue, RescheduleAfterFiringWorks)
{
    Simulation sim;
    std::vector<int> log;
    LogEvent e(log, 7);
    sim.schedule(&e, 1);
    sim.run();
    sim.schedule(&e, sim.now() + 1); // reuse is allowed once unscheduled
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{7, 7}));
}

TEST(EventQueue, DoubleScheduleDies)
{
    Simulation sim;
    std::vector<int> log;
    LogEvent e(log, 1);
    sim.schedule(&e, 10);
    EXPECT_DEATH(sim.schedule(&e, 20), "already scheduled");
    sim.queue().deschedule(&e);
}

TEST(EventQueue, SizeTracksLiveEvents)
{
    Simulation sim;
    std::vector<int> log;
    LogEvent a(log, 1);
    LogEvent b(log, 2);
    EXPECT_TRUE(sim.queue().empty());
    sim.schedule(&a, 1);
    sim.schedule(&b, 2);
    EXPECT_EQ(sim.queue().size(), 2u);
    sim.queue().deschedule(&a);
    EXPECT_EQ(sim.queue().size(), 1u);
    sim.run();
    EXPECT_TRUE(sim.queue().empty());
}

TEST(Simulation, SchedulingInThePastDies)
{
    Simulation sim;
    sim.scheduleAfter(100, [] {}, "later");
    sim.run();
    std::vector<int> log;
    LogEvent e(log, 1);
    EXPECT_DEATH(sim.schedule(&e, 5), "in the past");
}

TEST(Simulation, LambdaEventsSelfDelete)
{
    Simulation sim;
    int fired = 0;
    for (int i = 0; i < 100; ++i)
        sim.scheduleAfter(i, [&fired] { ++fired; }, "inc");
    sim.run();
    EXPECT_EQ(fired, 100);
    // ASAN (when enabled) verifies no leaks; here we check the queue
    // drained.
    EXPECT_TRUE(sim.queue().empty());
}

TEST(Simulation, RunUntilStopsAtLimit)
{
    Simulation sim;
    int fired = 0;
    sim.scheduleAfter(10, [&fired] { ++fired; }, "a");
    sim.scheduleAfter(1000, [&fired] { ++fired; }, "b");
    sim.run(100);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(sim.now(), 100u);
    sim.run();
    EXPECT_EQ(fired, 2);
}

TEST(Simulation, RequestStopExitsLoop)
{
    Simulation sim;
    int fired = 0;
    sim.scheduleAfter(10, [&] {
        ++fired;
        sim.requestStop();
    }, "stopper");
    sim.scheduleAfter(20, [&fired] { ++fired; }, "later");
    sim.run();
    EXPECT_EQ(fired, 1);
    sim.run(); // resumes
    EXPECT_EQ(fired, 2);
}

TEST(Simulation, EventsProcessedCounter)
{
    Simulation sim;
    for (int i = 0; i < 7; ++i)
        sim.scheduleAfter(i, [] {}, "noop");
    sim.run();
    EXPECT_EQ(sim.eventsProcessed(), 7u);
}

TEST(Simulation, NestedSchedulingFromHandlers)
{
    Simulation sim;
    std::vector<Ticks> times;
    std::function<void(int)> chain = [&](int depth) {
        times.push_back(sim.now());
        if (depth > 0) {
            sim.scheduleAfter(5, [&chain, depth] { chain(depth - 1); },
                              "chain");
        }
    };
    sim.scheduleAfter(0, [&chain] { chain(3); }, "start");
    sim.run();
    EXPECT_EQ(times, (std::vector<Ticks>{0, 5, 10, 15}));
}

TEST(Simulation, ForkRngDeterministicPerStream)
{
    Simulation a(77);
    Simulation b(77);
    Rng ra = a.forkRng(3);
    Rng rb = b.forkRng(3);
    for (int i = 0; i < 50; ++i)
        EXPECT_EQ(ra.next(), rb.next());
}

/** Property: random schedules always dispatch in nondecreasing time. */
class EventOrderProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EventOrderProperty, MonotoneDispatch)
{
    Simulation sim(GetParam());
    Rng rng(GetParam());
    std::vector<Ticks> fired;
    for (int i = 0; i < 2000; ++i) {
        const Ticks when = rng.below(100000);
        sim.scheduleAt(when, [&fired, &sim] { fired.push_back(sim.now()); },
                       "prop");
    }
    sim.run();
    ASSERT_EQ(fired.size(), 2000u);
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventOrderProperty,
                         ::testing::Values(1, 2, 3, 42, 99, 12345));

/** Self-deleting event that reports its destruction. */
class TrackedLambdaEvent : public sim::LambdaEvent
{
  public:
    TrackedLambdaEvent(int &deleted, std::function<void()> fn)
        : LambdaEvent(std::move(fn), "tracked"), deleted_(deleted)
    {}

    ~TrackedLambdaEvent() override { ++deleted_; }

  private:
    int &deleted_;
};

TEST(EventQueue, DescheduleDeletesSelfDeletingEvent)
{
    // Regression: descheduling a pending self-deleting event is its
    // last reachable moment — the queue must delete it there instead
    // of leaking it.
    Simulation sim;
    int deleted = 0;
    int fired = 0;
    auto *ev = new TrackedLambdaEvent(deleted, [&fired] { ++fired; });
    sim.schedule(ev, 10);
    sim.queue().deschedule(ev);
    EXPECT_EQ(deleted, 1);
    sim.scheduleAfter(20, [] {}, "later");
    sim.run();
    EXPECT_EQ(fired, 0);
    EXPECT_EQ(deleted, 1);
}

TEST(EventQueue, DescheduleOfUnscheduledSelfDeleterIsNoOp)
{
    // An idempotent second deschedule must not double-delete.
    Simulation sim;
    int deleted = 0;
    auto *ev = new TrackedLambdaEvent(deleted, [] {});
    sim.schedule(ev, 10);
    sim.queue().deschedule(ev);
    EXPECT_EQ(deleted, 1);
    // ev is gone; a *different* unscheduled member event must survive
    // repeated deschedules untouched.
    std::vector<int> log;
    LogEvent member(log, 1);
    sim.queue().deschedule(&member);
    sim.queue().deschedule(&member);
    EXPECT_EQ(deleted, 1);
}

TEST(EventQueue, RescheduleNeverDeletes)
{
    // reschedule() moves a pending self-deleting event without the
    // deschedule-time deletion: it is live again on exit.
    Simulation sim;
    int deleted = 0;
    int fired = 0;
    auto *ev = new TrackedLambdaEvent(deleted, [&fired] { ++fired; });
    sim.schedule(ev, 100);
    sim.queue().reschedule(ev, 5);
    EXPECT_EQ(deleted, 0);
    EXPECT_TRUE(ev->scheduled());
    sim.run();
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(deleted, 1); // deleted after firing, not before
}

TEST(EventQueue, ManyCancellationsInterleaved)
{
    // Stress the sorted cancellation vector: cancel a pseudo-random
    // half of a large schedule and check exactly the survivors fire.
    Simulation sim;
    std::vector<int> log;
    std::vector<std::unique_ptr<LogEvent>> events;
    std::vector<int> expect;
    Rng rng(99);
    for (int i = 0; i < 500; ++i) {
        events.push_back(std::make_unique<LogEvent>(log, i));
        sim.schedule(events.back().get(), 1 + rng.below(50));
    }
    for (int i = 0; i < 500; ++i) {
        if (rng.below(2) == 0)
            sim.queue().deschedule(events[i].get());
        else
            expect.push_back(i);
    }
    sim.run();
    EXPECT_EQ(log.size(), expect.size());
    std::sort(log.begin(), log.end());
    EXPECT_EQ(log, expect);
    EXPECT_TRUE(sim.queue().empty());
}

TEST(CallbackEvent, ReusableAcrossFirings)
{
    Simulation sim;
    int fired = 0;
    sim::CallbackEvent ev([&fired] { ++fired; }, "reuse");
    for (int i = 1; i <= 5; ++i) {
        sim.schedule(&ev, sim.now() + 1);
        sim.run();
    }
    EXPECT_EQ(fired, 5);
}

TEST(RecurringEvent, FiresPeriodicallyUntilStopped)
{
    Simulation sim;
    std::vector<Ticks> fire_times;
    sim::RecurringEvent tick(sim.queue(), 10,
                             [&] { fire_times.push_back(sim.now()); },
                             "tick");
    tick.start(10);
    sim.scheduleAfter(35, [&tick] { tick.stop(); }, "stopper");
    sim.run();
    EXPECT_EQ(fire_times, (std::vector<Ticks>{10, 20, 30}));
    EXPECT_TRUE(sim.queue().empty());
}

TEST(RecurringEvent, DestructorDeschedules)
{
    Simulation sim;
    int fired = 0;
    {
        sim::RecurringEvent tick(sim.queue(), 10, [&fired] { ++fired; },
                                 "tick");
        tick.start(10);
    } // destroyed while scheduled
    sim.scheduleAfter(100, [] {}, "later");
    sim.run();
    EXPECT_EQ(fired, 0);
}

TEST(RecurringEvent, CallbackMayStopItself)
{
    Simulation sim;
    int fired = 0;
    sim::RecurringEvent *self = nullptr;
    sim::RecurringEvent tick(sim.queue(), 10,
                             [&] {
                                 if (++fired == 3)
                                     self->stop();
                             },
                             "tick");
    self = &tick;
    tick.start(10);
    sim.run();
    EXPECT_EQ(fired, 3);
    EXPECT_TRUE(sim.queue().empty());
}

TEST(EventQueue, TombstoneSafetyAfterOwnerGone)
{
    // An owner that deschedules its event may be destroyed before the
    // queue; the stale heap entry must never be dereferenced.
    Simulation sim;
    std::vector<int> log;
    {
        auto ev = std::make_unique<LogEvent>(log, 1);
        sim.schedule(ev.get(), 50);
        sim.queue().deschedule(ev.get());
        // ev destroyed here while its tombstone sits in the heap.
    }
    sim.scheduleAfter(100, [] {}, "later");
    sim.run();
    EXPECT_TRUE(log.empty());
}

TEST(EventQueue, CancelHeadOfNonCurrentBucket)
{
    // Regression for the calendar layout: cancel the head event of a
    // bucket the cursor has not reached yet (the queue starts with
    // 1-tick buckets, so distinct ticks land in distinct buckets of
    // the initial window). The tombstone must be skimmed when the
    // cursor arrives, without disturbing the bucket's other entries.
    EventQueue q;
    std::vector<int> log;
    LogEvent a(log, 1), head(log, 2), follower(log, 3), c(log, 4);
    LogEvent far(log, 5);
    q.schedule(&a, 100);        // snaps the window to t=100
    q.schedule(&head, 105);     // head of the (future) t=105 bucket
    q.schedule(&follower, 105); // second entry of the same bucket
    q.schedule(&c, 107);
    q.schedule(&far, 100000);   // beyond the window: overflow store
    Event *first = q.pop();
    ASSERT_EQ(first, &a);
    q.deschedule(&head);        // cancel a non-current bucket's head
    while (Event *ev = q.pop())
        ev->process();
    EXPECT_EQ(log, (std::vector<int>{3, 4, 5}));
    EXPECT_FALSE(head.scheduled());
}

TEST(EventQueue, CancelHeadOfOverflowedBucket)
{
    // Same regression, but the cancelled head lives beyond the current
    // window (overflow store) when cancelled, and the queue must drop
    // it during redistribution rather than dispatch.
    Simulation sim;
    std::vector<int> log;
    LogEvent near1(log, 1);
    LogEvent far1(log, 2);
    LogEvent far2(log, 3);
    sim.schedule(&near1, 5);
    sim.schedule(&far1, 1'000'000);     // far beyond the initial window
    sim.schedule(&far2, 1'000'001);
    sim.queue().deschedule(&far1);      // cancel the overflow head
    sim.run();
    EXPECT_EQ(log, (std::vector<int>{1, 3}));
    EXPECT_FALSE(far1.scheduled());
}

TEST(EventQueue, RebucketRetunesWindowToPendingSpan)
{
    // Introspection: a deep backlog must grow the calendar (more lanes,
    // wider buckets) instead of crawling one initial-width day at a
    // time; rebucketCount records the re-tunes.
    EventQueue q;
    std::vector<int> log;
    std::vector<std::unique_ptr<LogEvent>> events;
    Rng rng(19);
    // One near event anchors the window; everything else lands far
    // beyond it in the overflow store.
    for (int i = 0; i < 4096; ++i) {
        events.push_back(std::make_unique<LogEvent>(log, i));
        const Ticks when =
            i == 0 ? 1 : 32 + rng.below(Ticks{1} << 30);
        q.schedule(events.back().get(), when);
    }
    // The first pops drain the anchor and force the deep overflow
    // through a rebucket: ~1 entry per lane, lane width matched to the
    // head-of-backlog event spacing.
    for (int i = 0; i < 64; ++i)
        q.pop()->process();
    EXPECT_GE(q.rebucketCount(), 1u);
    EXPECT_GE(q.laneCount(), 1024u);
    EXPECT_GT(q.bucketWidth(), 1u);
    while (Event *ev = q.pop())
        ev->process();
    EXPECT_EQ(log.size(), 4096u);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, ScheduleBehindCursorStillDispatchesFirst)
{
    // The min-heap accepted events scheduled before the earliest
    // pending time; the calendar clamps them into the current bucket,
    // where they must still sort ahead of later-timed entries.
    EventQueue q;
    std::vector<int> log;
    LogEvent a(log, 1), past(log, 2);
    q.schedule(&a, 100);  // snaps the window to t=100
    q.schedule(&past, 10); // behind the cursor: clamped, sorts first
    EXPECT_EQ(q.nextTime(), 10u);
    EXPECT_EQ(q.pop(), &past);
    EXPECT_EQ(q.pop(), &a);
    EXPECT_EQ(q.pop(), nullptr);
}

TEST(EventQueue, LaneThatNeverDrainsStaysBounded)
{
    // A shallow queue with one far-future straggler: the re-tune sizes
    // the lane width from the whole pending span, so every short event
    // keeps landing in the current lane and the lane never drains. Its
    // consumed prefix must be reclaimed as the run goes on, not
    // retained until the lane drains.
    EventQueue q;
    std::vector<std::unique_ptr<sim::RecurringEvent>> events;
    for (Ticks i = 0; i < 48; ++i) {
        events.push_back(std::make_unique<sim::RecurringEvent>(
            q, 40 + i % 17, [] {}));
        events.back()->start(1 + i);
    }
    std::vector<int> log;
    LogEvent straggler(log, 1);
    q.schedule(&straggler, Ticks{1} << 40);

    std::size_t max_retained = 0;
    std::size_t max_live = 0;
    Ticks last = 0;
    bool ordered = true;
    constexpr int kCycles = 1 << 20;
    for (int n = 0; n < kCycles; ++n) {
        Event *ev = q.pop();
        ASSERT_NE(ev, nullptr);
        ASSERT_NE(ev, &straggler);
        ordered = ordered && ev->when() >= last;
        last = ev->when();
        ev->process();
        max_retained = std::max(max_retained, q.retainedEntries());
        max_live = std::max(max_live, q.size());
    }
    EXPECT_TRUE(ordered);
    EXPECT_EQ(max_live, 49u);
    EXPECT_LE(max_retained, 2 * max_live + 64);
    // The pathology needs one lane wide enough to hold every short
    // event for the whole run.
    EXPECT_GT(q.bucketWidth(), last);

    for (auto &ev : events)
        ev->stop();
    EXPECT_EQ(q.pop(), &straggler);
    EXPECT_EQ(q.pop(), nullptr);
}

} // namespace
