/**
 * @file
 * Discrete-event kernel: events and the event queue.
 *
 * Events are processed in (time, sequence) order, so two events scheduled
 * for the same tick always fire in the order they were scheduled — the
 * determinism guarantee the rest of the simulator builds on.
 *
 * The queue is a *calendar queue*: an array of time-bucketed FIFO lanes
 * (one "day" of simulated time per lane) plus an overflow store for
 * events beyond the current window. Scheduling appends to a lane in O(1);
 * dispatch walks the current lane, lazily sorting it by (time, sequence)
 * the first time it is consumed, so the dispatch order is identical to
 * the min-heap this structure replaced while deep queues stay
 * cache-friendly: a 256k-event backlog costs a handful of contiguous
 * lane scans instead of log-depth pointer-hops through a binary heap.
 * When the window drains, the overflow is redistributed and the bucket
 * width re-tuned to the pending events' span (see rebucket()).
 *
 * Cancellation is tombstone-based: descheduling records the entry's
 * sequence number in a cancellation set, and stale lane entries are
 * skimmed off without ever dereferencing the (possibly already
 * destroyed) event. The contract for event owners is therefore simple:
 * deschedule your events in your destructor and the queue may safely
 * outlive you. Cancellations are rare relative to dispatches, so the
 * set is a sorted small-vector probed by binary search, and the check on
 * every pop reduces to a single emptiness branch when nothing is
 * cancelled.
 */

#ifndef JSCALE_SIM_EVENT_HH
#define JSCALE_SIM_EVENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/units.hh"

namespace jscale::sim {

class EventQueue;

/**
 * An occurrence scheduled at a simulated time. Subclasses implement
 * process(). Events are owned by their components (they are *not* deleted
 * by the queue) unless they opt into self-deletion via selfDeleting().
 */
class Event
{
  public:
    virtual ~Event();

    Event(const Event &) = delete;
    Event &operator=(const Event &) = delete;

    /** Invoked when the event's scheduled time is reached. */
    virtual void process() = 0;

    /** Human-readable name for diagnostics. */
    virtual std::string name() const { return "event"; }

    /** Whether the queue should delete this event after processing. */
    virtual bool selfDeleting() const { return false; }

    /** Time this event is scheduled for (valid only while scheduled). */
    Ticks when() const { return when_; }

    /** True while the event sits in a queue awaiting dispatch. */
    bool scheduled() const { return scheduled_; }

  protected:
    Event() = default;

  private:
    friend class EventQueue;

    Ticks when_ = 0;
    std::uint64_t seq_ = 0;
    bool scheduled_ = false;
};

/** Convenience event wrapping a callable; self-deletes after firing. */
class LambdaEvent : public Event
{
  public:
    /** @param fn callback to run; @param what diagnostic label. */
    explicit LambdaEvent(std::function<void()> fn,
                         std::string what = "lambda")
        : fn_(std::move(fn)), what_(std::move(what))
    {}

    void process() override { fn_(); }
    std::string name() const override { return what_; }
    bool selfDeleting() const override { return true; }

  private:
    std::function<void()> fn_;
    std::string what_;
};

/**
 * Reusable callback event: the closure is allocated once at
 * construction and the event can be scheduled again after each firing,
 * so recurring uses pay no per-occurrence heap allocation (unlike a
 * fresh LambdaEvent per tick). Owned by its creator, never the queue.
 */
class CallbackEvent : public Event
{
  public:
    explicit CallbackEvent(std::function<void()> fn,
                           std::string what = "callback")
        : fn_(std::move(fn)), what_(std::move(what))
    {}

    void process() override { fn_(); }
    std::string name() const override { return what_; }

  private:
    std::function<void()> fn_;
    std::string what_;
};

/**
 * Deterministic calendar queue of events keyed by (time, insertion
 * sequence). Dispatch order is a total order — identical to a min-heap
 * keyed the same way — but schedule and dispatch are O(1) amortized
 * regardless of backlog depth.
 */
class EventQueue
{
  public:
    EventQueue();
    ~EventQueue();

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /**
     * Schedule @p ev at absolute time @p when. Scheduling an
     * already-scheduled event is a simulator bug.
     */
    void schedule(Event *ev, Ticks when);

    /**
     * Remove @p ev from the queue; no-op if not scheduled. A
     * self-deleting event is deleted here (it can never be popped
     * again, so this is its last reachable moment); the caller must
     * not touch it afterwards.
     */
    void deschedule(Event *ev);

    /**
     * Deschedule (if needed) and schedule at a new time. Unlike
     * deschedule(), never deletes: the event is live again on exit.
     */
    void reschedule(Event *ev, Ticks when);

    /** True when no live events remain. */
    bool empty() const { return live_ == 0; }

    /** Number of live (non-cancelled) events. */
    std::size_t size() const { return live_; }

    /** Time of the earliest live event; queue must not be empty. */
    Ticks nextTime();

    /**
     * Pop and return the earliest live event, marking it unscheduled.
     * Returns nullptr when empty. The caller runs process() and honours
     * selfDeleting().
     */
    Event *pop();

    /** @name Calendar introspection (tests, benchmarks, docs) */
    /** @{ */
    /** Current number of lanes (always a power of two). */
    std::size_t laneCount() const { return lane_count_; }
    /** Current bucket width in ticks (one lane covers one width). */
    Ticks bucketWidth() const { return width_; }
    /** Times the window was re-tuned (lane count / width resized). */
    std::uint64_t rebucketCount() const { return rebuckets_; }
    /**
     * Entries held in the lanes' spill vectors, consumed prefixes
     * included: the memory a long-lived lane retains (O(lanes)).
     */
    std::size_t retainedEntries() const;
    /** @} */

  private:
    struct Entry
    {
        Ticks when;
        std::uint64_t seq;
        Event *ev;

        bool
        operator<(const Entry &o) const
        {
            if (when != o.when)
                return when < o.when;
            return seq < o.seq;
        }
    };

    /**
     * Consumption state of one lane. Bulk entries (laid out by the
     * counting sort in rebucket()) and spill entries (appended by
     * schedule() afterwards) are folded together lazily, the first time
     * the lane is consumed from.
     */
    enum class LaneState : std::uint8_t
    {
        /** Untouched since rebucket/reset; bulk unsorted, spill maybe. */
        Raw,
        /** Bulk range sorted, no spill: consume straight from the arena. */
        Bulk,
        /** Bulk folded into spill and sorted: consume from the spill. */
        SpillSorted,
        /** Spill received an out-of-order append: re-sort on consume. */
        SpillDirty,
    };

    /** Remove @p ev from the queue without the self-deletion step. */
    void cancel(Event *ev);

    /** Place an entry into its lane, or the overflow when out-of-window. */
    void insertEntry(const Entry &e);

    /**
     * Settle the calendar on the earliest live entry and return it
     * (always the head of the current lane), or nullptr when no live
     * events remain. Advances past tombstones, sorts the current lane
     * when dirty, and refills the window from the overflow when a full
     * window drains.
     */
    Entry *front();

    /** Prepare the current lane for consumption (fold/sort as needed). */
    void settleLane(std::size_t i);

    /** Step past the consumed head entry of the current (settled) lane. */
    void consumeHead(std::size_t i);

    /** Erase lane @p i's consumed spill prefix (entries stay in order). */
    void dropConsumedSpill(std::size_t i);

    /**
     * True when lane @p i holds no unconsumed entries. Reads only the
     * flat index columns — never the spill vectors themselves — so the
     * day-by-day drain walk stays within a few densely packed arrays.
     */
    bool
    laneDrained(std::size_t i) const
    {
        if (lane_head_[i] < lane_begin_[i + 1])
            return false;
        return spill_head_[i] >= spill_count_[i];
    }

    /** Recycle a drained lane for its next day. */
    void resetLane(std::size_t i);

    /** Spill every unconsumed lane entry into the overflow. */
    void collapseLanes();

    /**
     * Re-tune the calendar to the overflow's contents: lane count scales
     * with the number of pending events, bucket width with their time
     * span (so the whole pending horizon fits in one window), and the
     * entries are laid out into the flat arena with a two-pass counting
     * sort — no per-lane allocation. Cancelled entries are dropped here.
     */
    void rebucket();

    /** Drop all remaining tombstones and reset the calendar (live_==0). */
    void purge();

    bool
    isCancelled(std::uint64_t seq) const
    {
        if (cancelled_.empty()) [[likely]]
            return false;
        return isCancelledSlow(seq);
    }

    bool isCancelledSlow(std::uint64_t seq) const;
    void dropCancelled(std::uint64_t seq);

    std::size_t laneOf(std::uint64_t day) const
    {
        return day & (lane_count_ - 1);
    }

    /** Number of lanes (power of two). */
    std::size_t lane_count_;
    /**
     * Flat bulk arena: rebucket() lays all in-window entries out here,
     * grouped by lane. Lane i owns [lane_begin_[i], lane_begin_[i+1])
     * and consumes from lane_head_[i].
     */
    std::vector<Entry> arena_;
    std::vector<std::uint32_t> lane_begin_;
    std::vector<std::uint32_t> lane_head_;
    /** Post-rebucket appends, per lane; consumed from spill_head_. */
    std::vector<std::vector<Entry>> spill_;
    std::vector<std::uint32_t> spill_head_;
    /** spill_[i].size() mirrored flat (drain never touches spill_). */
    std::vector<std::uint32_t> spill_count_;
    std::vector<LaneState> lane_state_;
    /** Unconsumed entries sitting in spill vectors (fast empty check). */
    std::size_t spill_used_ = 0;
    /** Entries beyond the current window, in no particular order. */
    std::vector<Entry> overflow_;
    /** Scratch buffer for rebucket()'s head-spacing sample. */
    std::vector<Ticks> head_whens_;
    /** Sequence numbers of cancelled entries, kept sorted. */
    std::vector<std::uint64_t> cancelled_;
    std::uint64_t next_seq_ = 0;
    std::size_t live_ = 0;
    /** Entries resident in lanes (tombstoned ones included). */
    std::size_t in_lanes_ = 0;
    /** Ticks covered by one lane (always 1 << width_shift_). */
    Ticks width_ = 1;
    /** log2(width_): day extraction is a shift, never a division. */
    unsigned width_shift_ = 0;
    /** Virtual day (when / width_) the calendar is currently draining. */
    std::uint64_t cur_day_ = 0;
    /**
     * Earliest day of any overflow entry (kNoDay when empty). The
     * cursor must never dispatch a lane entry of that day or later
     * without first folding the overflow back in — the window slides
     * forward as days drain, so "beyond the window at insert time" does
     * not stay beyond the window forever.
     */
    std::uint64_t overflow_min_day_ = ~std::uint64_t{0};
    /** Consecutive empty lanes stepped over (sparse-window detector). */
    std::size_t empty_streak_ = 0;
    std::uint64_t rebuckets_ = 0;
};

/**
 * Self-rescheduling periodic event: fires every @p period ticks from
 * start() until stop() or destruction. The callback is allocated once,
 * so periodic activities (metric sampling, phase rotation) stop paying
 * a heap-allocated closure per occurrence. The owner controls lifetime;
 * the destructor deschedules, so it may die before the queue.
 */
class RecurringEvent : public Event
{
  public:
    RecurringEvent(EventQueue &queue, TickDelta period,
                   std::function<void()> fn,
                   std::string what = "recurring")
        : queue_(queue), period_(period), fn_(std::move(fn)),
          what_(std::move(what))
    {}

    ~RecurringEvent() override { stop(); }

    /** Schedule the first firing at absolute time @p first. */
    void
    start(Ticks first)
    {
        stopped_ = false;
        queue_.schedule(this, first);
    }

    /** Cancel the pending firing and suppress rearming. */
    void
    stop()
    {
        stopped_ = true;
        queue_.deschedule(this);
    }

    void
    process() override
    {
        fn_();
        // Rearm after the callback (matching the fire-then-schedule
        // order of a hand-rolled lambda chain) unless the callback
        // stopped this event or rescheduled it itself.
        if (!stopped_ && !scheduled())
            queue_.schedule(this, when() + static_cast<Ticks>(period_));
    }

    std::string name() const override { return what_; }

    TickDelta period() const { return period_; }

  private:
    EventQueue &queue_;
    TickDelta period_;
    std::function<void()> fn_;
    std::string what_;
    bool stopped_ = false;
};

} // namespace jscale::sim

#endif // JSCALE_SIM_EVENT_HH
