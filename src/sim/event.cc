#include "sim/event.hh"

#include <algorithm>
#include <bit>

#include "base/logging.hh"

namespace jscale::sim {

namespace {

/** Smallest calendar (idle queues stay tiny). */
constexpr std::size_t kMinLanes = 16;
/** Largest calendar; deeper backlogs share lanes (still O(1) amortized). */
constexpr std::size_t kMaxLanes = 1 << 16;
/**
 * Consecutive empty lanes stepped over before the calendar collapses
 * and re-tunes itself: bounds the cost of walking a window that became
 * much sparser than it was when the bucket width was last chosen.
 */
constexpr std::size_t kCollapseStreak = 256;
/** Soonest events sampled to estimate the head's inter-event spacing. */
constexpr std::size_t kHeadSample = 64;
/** Consumed spill entries a lane may hold before it drops them. */
constexpr std::uint32_t kReclaimPrefix = 64;

} // namespace

Event::~Event()
{
    // Owners must deschedule their events before destroying them; a
    // scheduled event dying would leave a dangling pointer in the queue.
    jscale_assert(!scheduled_, "event destroyed while scheduled");
}

EventQueue::EventQueue()
    : lane_count_(kMinLanes), lane_begin_(kMinLanes + 1, 0),
      lane_head_(kMinLanes, 0), spill_(kMinLanes),
      spill_head_(kMinLanes, 0), spill_count_(kMinLanes, 0),
      lane_state_(kMinLanes, LaneState::Raw)
{}

EventQueue::~EventQueue()
{
    // Drain remaining live events, honouring self-deletion so no
    // LambdaEvents leak when a simulation ends early.
    while (Event *ev = pop()) {
        if (ev->selfDeleting())
            delete ev;
    }
}

void
EventQueue::schedule(Event *ev, Ticks when)
{
    jscale_assert(ev != nullptr, "schedule of null event");
    jscale_assert(!ev->scheduled_,
                  "event '", ev->name(), "' is already scheduled");
    ev->when_ = when;
    ev->seq_ = next_seq_++;
    ev->scheduled_ = true;
    if (in_lanes_ == 0 && overflow_.empty()) {
        // Empty calendar: snap the window to the event so it lands in a
        // lane instead of the overflow.
        cur_day_ = when >> width_shift_;
        empty_streak_ = 0;
    }
    insertEntry(Entry{when, ev->seq_, ev});
    ++live_;
}

void
EventQueue::insertEntry(const Entry &e)
{
    std::uint64_t day = e.when >> width_shift_;
    if (day < cur_day_) {
        // Scheduled behind the cursor (the min-heap allowed this too):
        // it joins the current lane and sorts to its front.
        day = cur_day_;
    }
    if (day - cur_day_ >= lane_count_) {
        overflow_.push_back(e);
        overflow_min_day_ = std::min(overflow_min_day_, day);
        return;
    }
    const std::size_t i = laneOf(day);
    std::vector<Entry> &spill = spill_[i];
    switch (lane_state_[i]) {
      case LaneState::Raw:
        break; // spill is folded and sorted on first consumption
      case LaneState::Bulk:
        // The lane's bulk remainder was being consumed directly; fold
        // it with the new spill entry when next consumed.
        lane_state_[i] = LaneState::Raw;
        break;
      case LaneState::SpillSorted:
        if (spill_head_[i] < spill.size() && e < spill.back()) {
            // Keep the active lane consumable: insert in position
            // rather than re-sorting the remainder on the next pop.
            // The memmove is bounded by the lane population, while a
            // dirty-flag re-sort would pay O(k log k) per interleaved
            // schedule/pop cycle.
            spill.insert(std::upper_bound(spill.begin() + spill_head_[i],
                                          spill.end(), e),
                         e);
            ++spill_count_[i];
            ++spill_used_;
            ++in_lanes_;
            return;
        }
        break;
      case LaneState::SpillDirty:
        break;
    }
    spill.push_back(e);
    ++spill_count_[i];
    ++spill_used_;
    ++in_lanes_;
}

void
EventQueue::cancel(Event *ev)
{
    jscale_assert(ev != nullptr, "deschedule of null event");
    if (!ev->scheduled_)
        return;
    ev->scheduled_ = false;
    cancelled_.insert(
        std::lower_bound(cancelled_.begin(), cancelled_.end(), ev->seq_),
        ev->seq_);
    --live_;
}

void
EventQueue::deschedule(Event *ev)
{
    jscale_assert(ev != nullptr, "deschedule of null event");
    if (!ev->scheduled_)
        return;
    cancel(ev);
    // A cancelled self-deleting event will never be popped again (the
    // tombstone is dropped without dereferencing it), so deleting it
    // here is the only way it is ever reclaimed.
    if (ev->selfDeleting())
        delete ev;
}

void
EventQueue::reschedule(Event *ev, Ticks when)
{
    cancel(ev);
    schedule(ev, when);
}

bool
EventQueue::isCancelledSlow(std::uint64_t seq) const
{
    const auto it =
        std::lower_bound(cancelled_.begin(), cancelled_.end(), seq);
    return it != cancelled_.end() && *it == seq;
}

void
EventQueue::dropCancelled(std::uint64_t seq)
{
    const auto it =
        std::lower_bound(cancelled_.begin(), cancelled_.end(), seq);
    jscale_assert(it != cancelled_.end() && *it == seq,
                  "tombstone missing from cancellation set");
    cancelled_.erase(it);
}

void
EventQueue::resetLane(std::size_t i)
{
    // Collapse the (drained) bulk range and recycle the spill storage;
    // its capacity is retained, so a lane that drains reuses its
    // buffer instead of reallocating it for the next day.
    lane_head_[i] = lane_begin_[i + 1];
    if (spill_count_[i] != 0) {
        spill_[i].clear();
        spill_head_[i] = 0;
        spill_count_[i] = 0;
    }
    lane_state_[i] = LaneState::Raw;
}

void
EventQueue::purge()
{
    arena_.clear();
    std::fill(lane_begin_.begin(), lane_begin_.end(), 0u);
    std::fill(lane_head_.begin(), lane_head_.end(), 0u);
    if (spill_used_ > 0) {
        for (std::vector<Entry> &s : spill_)
            s.clear();
        std::fill(spill_head_.begin(), spill_head_.end(), 0u);
        std::fill(spill_count_.begin(), spill_count_.end(), 0u);
        spill_used_ = 0;
    }
    std::fill(lane_state_.begin(), lane_state_.end(), LaneState::Raw);
    overflow_.clear();
    overflow_min_day_ = ~std::uint64_t{0};
    cancelled_.clear();
    in_lanes_ = 0;
    empty_streak_ = 0;
}

void
EventQueue::collapseLanes()
{
    for (std::size_t i = 0; i < lane_count_; ++i) {
        for (std::uint32_t b = lane_head_[i]; b < lane_begin_[i + 1]; ++b)
            overflow_.push_back(arena_[b]);
        const std::vector<Entry> &spill = spill_[i];
        for (std::size_t s = spill_head_[i]; s < spill.size(); ++s)
            overflow_.push_back(spill[s]);
        resetLane(i);
    }
    arena_.clear();
    std::fill(lane_begin_.begin(), lane_begin_.end(), 0u);
    std::fill(lane_head_.begin(), lane_head_.end(), 0u);
    spill_used_ = 0;
    in_lanes_ = 0;
    // overflow_min_day_ is refreshed by the rebucket that follows.
}

void
EventQueue::rebucket()
{
    // Compact the overflow in place, dropping tombstones (each is
    // touched exactly once here) and measuring the pending span.
    std::size_t out = 0;
    Ticks min_when = ~Ticks{0};
    Ticks max_when = 0;
    for (const Entry &e : overflow_) {
        if (isCancelled(e.seq)) {
            dropCancelled(e.seq);
            continue;
        }
        overflow_[out++] = e;
        min_when = std::min(min_when, e.when);
        max_when = std::max(max_when, e.when);
    }
    overflow_.resize(out);
    overflow_min_day_ = ~std::uint64_t{0};
    if (out == 0)
        return;

    // ~1 entry per lane, clamped.
    std::size_t nl = lane_count_;
    while (nl < kMaxLanes && nl < out)
        nl <<= 1;
    while (nl > kMinLanes && nl >= out * 4)
        nl >>= 1;
    // Lane width from the spacing of the kHeadSample soonest events
    // (Brown's calendar-queue sizing): in a deep backlog one far-future
    // straggler does not stretch every lane. With kHeadSample or fewer
    // pending events the sample is the whole backlog, so a straggler
    // does set the width and the near-term events share the current
    // lane; consumeHead() keeps that lane's memory bounded. Anything
    // beyond the window waits in the overflow until the cursor gets
    // there.
    Ticks head_gap;
    if (out <= kHeadSample) {
        head_gap = (max_when - min_when) / static_cast<Ticks>(out) + 1;
    } else {
        head_whens_.clear();
        for (const Entry &e : overflow_)
            head_whens_.push_back(e.when);
        std::nth_element(head_whens_.begin(),
                         head_whens_.begin() + (kHeadSample - 1),
                         head_whens_.end());
        head_gap = (head_whens_[kHeadSample - 1] - min_when) /
                       static_cast<Ticks>(kHeadSample) +
                   1;
    }
    // A few events per lane; power-of-two width so the per-insert day
    // extraction is a shift, never a 64-bit division (the division
    // dominated the schedule/pop cycle of a near-empty calendar).
    const Ticks span = head_gap * 3;
    width_shift_ = span <= 1 ? 0 : std::bit_width(span - 1);
    width_ = Ticks{1} << width_shift_;
    cur_day_ = min_when >> width_shift_;
    if (nl != lane_count_) {
        lane_count_ = nl;
        lane_begin_.assign(nl + 1, 0);
        lane_head_.assign(nl, 0);
        spill_.resize(nl);
        spill_head_.assign(nl, 0);
        spill_count_.assign(nl, 0);
        lane_state_.assign(nl, LaneState::Raw);
    }

    // Counting sort into the flat arena: pass 1 sizes each lane, pass 2
    // scatters. The rare boundary entry one day beyond the window stays
    // in the overflow.
    std::vector<Entry> moved;
    moved.swap(overflow_);
    std::fill(lane_begin_.begin(), lane_begin_.end(), 0u);
    std::size_t kept = 0;
    for (const Entry &e : moved) {
        const std::uint64_t day = e.when >> width_shift_;
        if (day - cur_day_ >= lane_count_) {
            overflow_.push_back(e);
            overflow_min_day_ = std::min(overflow_min_day_, day);
            continue;
        }
        ++lane_begin_[laneOf(day) + 1];
        ++kept;
    }
    for (std::size_t i = 1; i <= lane_count_; ++i)
        lane_begin_[i] += lane_begin_[i - 1];
    std::copy(lane_begin_.begin(), lane_begin_.end() - 1,
              lane_head_.begin());
    arena_.resize(kept);
    std::vector<std::uint32_t> cursor(lane_head_);
    for (const Entry &e : moved) {
        const std::uint64_t day = e.when >> width_shift_;
        if (day - cur_day_ >= lane_count_)
            continue;
        arena_[cursor[laneOf(day)]++] = e;
    }
    in_lanes_ = kept;
    ++rebuckets_;
}

void
EventQueue::settleLane(std::size_t i)
{
    std::vector<Entry> &spill = spill_[i];
    switch (lane_state_[i]) {
      case LaneState::Raw: {
        const std::uint32_t bulk_begin = lane_head_[i];
        const std::uint32_t bulk_end = lane_begin_[i + 1];
        if (spill_head_[i] >= spill_count_[i]) {
            // No spill: consume the arena range directly.
            if (bulk_end - bulk_begin > 1) {
                std::sort(arena_.begin() + bulk_begin,
                          arena_.begin() + bulk_end);
            }
            lane_state_[i] = LaneState::Bulk;
            return;
        }
        // Fold the bulk remainder into the spill and sort the whole
        // unconsumed range once.
        for (std::uint32_t b = bulk_begin; b < bulk_end; ++b)
            spill.push_back(arena_[b]);
        spill_count_[i] += bulk_end - bulk_begin;
        spill_used_ += bulk_end - bulk_begin;
        lane_head_[i] = bulk_end;
        if (spill.size() - spill_head_[i] > 1)
            std::sort(spill.begin() + spill_head_[i], spill.end());
        lane_state_[i] = LaneState::SpillSorted;
        return;
      }
      case LaneState::Bulk:
      case LaneState::SpillSorted:
        return;
      case LaneState::SpillDirty:
        std::sort(spill.begin() + spill_head_[i], spill.end());
        lane_state_[i] = LaneState::SpillSorted;
        return;
    }
}

void
EventQueue::consumeHead(std::size_t i)
{
    if (lane_state_[i] == LaneState::Bulk) {
        ++lane_head_[i];
    } else {
        const std::uint32_t head = ++spill_head_[i];
        --spill_used_;
        // A lane that never drains (every pending event inside one
        // lane width, refilled as fast as it is consumed) would
        // otherwise keep its whole consumed history. Dropping the
        // prefix once it is at least half the vector costs amortised
        // O(1) per pop and bounds the lane at about twice its
        // unconsumed entries.
        if (head >= kReclaimPrefix && 2 * head >= spill_count_[i])
            dropConsumedSpill(i);
    }
    --in_lanes_;
    // Eagerly recycle a drained lane: the cursor may be repositioned by
    // a later schedule() without revisiting it.
    if (laneDrained(i))
        resetLane(i);
}

void
EventQueue::dropConsumedSpill(std::size_t i)
{
    std::vector<Entry> &spill = spill_[i];
    spill.erase(spill.begin(), spill.begin() + spill_head_[i]);
    spill_count_[i] -= spill_head_[i];
    spill_head_[i] = 0;
}

EventQueue::Entry *
EventQueue::front()
{
    for (;;) {
        if (live_ == 0) {
            if (in_lanes_ > 0 || !overflow_.empty())
                purge(); // only tombstones remain; drop them all
            return nullptr;
        }
        if (cur_day_ >= overflow_min_day_) [[unlikely]] {
            // The cursor caught up to overflow territory: fold
            // everything together and re-tune so (time, sequence) order
            // holds across lanes and overflow alike.
            collapseLanes();
            rebucket();
            empty_streak_ = 0;
            continue;
        }
        const std::size_t i = laneOf(cur_day_);
        if (!laneDrained(i)) {
            empty_streak_ = 0;
            settleLane(i);
            Entry &e = lane_state_[i] == LaneState::Bulk
                           ? arena_[lane_head_[i]]
                           : spill_[i][spill_head_[i]];
            if (isCancelled(e.seq)) [[unlikely]] {
                dropCancelled(e.seq);
                consumeHead(i);
                continue;
            }
            return &e;
        }
        resetLane(i);
        if (in_lanes_ > 0) {
            ++cur_day_;
            if (++empty_streak_ >= kCollapseStreak) {
                // The window went sparse (events drained or cancelled
                // out from under the chosen width): re-tune instead of
                // crawling lane by lane.
                collapseLanes();
                rebucket();
                empty_streak_ = 0;
            }
            continue;
        }
        // Window fully drained; refill from the overflow.
        jscale_assert(!overflow_.empty(),
                      "live events missing from the calendar");
        rebucket();
    }
}

std::size_t
EventQueue::retainedEntries() const
{
    std::size_t n = 0;
    for (const std::vector<Entry> &s : spill_)
        n += s.size();
    return n;
}

Ticks
EventQueue::nextTime()
{
    Entry *e = front();
    jscale_assert(e != nullptr, "nextTime() on empty event queue");
    return e->when;
}

Event *
EventQueue::pop()
{
    Entry *e = front();
    if (e == nullptr)
        return nullptr;
    Event *ev = e->ev;
    consumeHead(laneOf(cur_day_));
    --live_;
    ev->scheduled_ = false;
    return ev;
}

} // namespace jscale::sim
