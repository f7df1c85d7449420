/**
 * @file
 * Timeline: a streaming Chrome trace-event JSON writer.
 *
 * Produces the "JSON Array Format" understood by Perfetto and
 * chrome://tracing: one object per event with pid/tid (track), phase
 * ("X" complete span, "i" instant, "C" counter, "M" metadata), a
 * microsecond timestamp and optional args. Events are written as they
 * are recorded, so memory stays O(1) in trace length; Perfetto sorts by
 * timestamp at load time, so emission order does not matter.
 *
 * Timestamps are rendered from integer nanosecond Ticks as exact
 * "<us>.<ns>" decimals — no double rounding — so span totals in the
 * JSON match the simulator's tick accounting.
 *
 * Events are formatted into one reusable buffer that is handed to the
 * stream in ~64 KiB blocks (the tail at finish()), so the per-event
 * cost is appends and integer conversions, not ostream insertions.
 * A stream failure stays on the stream for the caller to check.
 */

#ifndef JSCALE_TELEMETRY_TIMELINE_HH
#define JSCALE_TELEMETRY_TIMELINE_HH

#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "base/units.hh"

namespace jscale::telemetry {

/** Escape a string for embedding inside a JSON string literal. */
std::string jsonEscape(std::string_view s);

/** One key/value argument attached to a trace event. */
struct TraceArg
{
    std::string key;
    /** Rendered value; quoted and escaped when @p quoted. */
    std::string value;
    bool quoted = true;
};

/** String argument. */
TraceArg targ(std::string key, std::string value);
TraceArg targ(std::string key, const char *value);

/** Numeric arguments (rendered unquoted). */
TraceArg targ(std::string key, std::uint64_t value);
TraceArg targ(std::string key, std::int64_t value);
TraceArg targ(std::string key, std::uint32_t value);

/** Trace-event argument list. */
using TraceArgs = std::vector<TraceArg>;

/**
 * The streaming writer. Construct over an output stream, record events,
 * then call finish() (the destructor finishes implicitly). Not
 * thread-safe; the simulator is single-threaded by design.
 */
class Timeline
{
  public:
    explicit Timeline(std::ostream &os);
    ~Timeline();

    Timeline(const Timeline &) = delete;
    Timeline &operator=(const Timeline &) = delete;

    /** Name the track group @p pid ("process_name" metadata). */
    void processName(std::uint32_t pid, std::string_view name);

    /** Name track @p tid within @p pid ("thread_name" metadata). */
    void threadName(std::uint32_t pid, std::uint32_t tid,
                    std::string_view name);

    /** Complete span [begin, end] on track (pid, tid). */
    void span(std::uint32_t pid, std::uint32_t tid, std::string_view name,
              std::string_view cat, Ticks begin, Ticks end,
              const TraceArgs &args = {});

    /** Instant event at @p at on track (pid, tid). */
    void instant(std::uint32_t pid, std::uint32_t tid,
                 std::string_view name, std::string_view cat, Ticks at,
                 const TraceArgs &args = {});

    /**
     * Counter event: every numeric arg becomes one series on the
     * counter track @p name of process @p pid.
     */
    void counter(std::uint32_t pid, std::string_view name, Ticks at,
                 const TraceArgs &args);

    /**
     * @name Fixed-shape spans
     * span() is beginSpan(), the args, then endEvent(). Hot producers
     * with a fixed argument shape call these directly and build no
     * TraceArgs.
     */
    /** @{ */
    void beginSpan(std::uint32_t pid, std::uint32_t tid,
                   std::string_view name, std::string_view cat,
                   Ticks begin, Ticks end);
    /** Numeric argument (rendered unquoted). */
    void arg(std::string_view key, std::uint64_t value);
    /** String argument (quoted and escaped). */
    void arg(std::string_view key, std::string_view value);
    /** Close the event opened by beginSpan(). */
    void endEvent();
    /** @} */

    /**
     * Terminate the JSON document and hand the remaining bytes to the
     * stream; further events are rejected.
     */
    void finish();

    /** Total events written so far (including metadata). */
    std::uint64_t events() const { return events_; }

  private:
    void beginEvent(std::string_view name, std::string_view cat, char ph,
                    std::uint32_t pid, std::uint32_t tid, Ticks ts);
    void argKey(std::string_view key);
    void writeArgs(const TraceArgs &args);

    /** Buffer space for @p n more bytes, flushing a full block first. */
    char *room(std::size_t n);
    void put(std::string_view text);
    void put(char c);
    void putUnsigned(std::uint64_t v);
    void putMicros(Ticks ns);
    void putString(std::string_view s);
    /** Hand the buffered bytes to the stream. */
    void flush();

    std::ostream &os_;
    /** Pending bytes: one block, reused for the whole document. */
    std::unique_ptr<char[]> buf_;
    std::size_t len_ = 0;
    std::uint64_t events_ = 0;
    bool in_event_ = false;
    bool in_args_ = false;
    bool finished_ = false;
};

} // namespace jscale::telemetry

#endif // JSCALE_TELEMETRY_TIMELINE_HH
