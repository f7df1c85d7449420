#include "telemetry/timeline.hh"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <memory>

#include "base/logging.hh"

namespace jscale::telemetry {

namespace {

/** Bytes buffered before a block is handed to the stream. */
constexpr std::size_t kBlockBytes = 64 * 1024;

/** True when @p c must be escaped inside a JSON string literal. */
bool
needsEscape(char c)
{
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
}

} // namespace

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

TraceArg
targ(std::string key, std::string value)
{
    return {std::move(key), std::move(value), /*quoted=*/true};
}

TraceArg
targ(std::string key, const char *value)
{
    return {std::move(key), std::string(value), /*quoted=*/true};
}

TraceArg
targ(std::string key, std::uint64_t value)
{
    return {std::move(key), std::to_string(value), /*quoted=*/false};
}

TraceArg
targ(std::string key, std::int64_t value)
{
    return {std::move(key), std::to_string(value), /*quoted=*/false};
}

TraceArg
targ(std::string key, std::uint32_t value)
{
    return targ(std::move(key), static_cast<std::uint64_t>(value));
}

Timeline::Timeline(std::ostream &os)
    : os_(os), buf_(std::make_unique<char[]>(kBlockBytes))
{
    put("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
}

Timeline::~Timeline()
{
    finish();
}

char *
Timeline::room(std::size_t n)
{
    if (kBlockBytes - len_ < n)
        flush();
    return buf_.get() + len_;
}

void
Timeline::put(std::string_view text)
{
    if (text.size() > kBlockBytes) {
        flush();
        os_.write(text.data(), static_cast<std::streamsize>(text.size()));
        return;
    }
    std::memcpy(room(text.size()), text.data(), text.size());
    len_ += text.size();
}

void
Timeline::put(char c)
{
    *room(1) = c;
    ++len_;
}

void
Timeline::putUnsigned(std::uint64_t v)
{
    constexpr std::size_t kDigits = 20; // any uint64
    char *at = room(kDigits);
    len_ += static_cast<std::size_t>(
        std::to_chars(at, at + kDigits, v).ptr - at);
}

void
Timeline::putMicros(Ticks ns)
{
    // Exact "<us>.<3-digit ns>": no floating point, no rounding.
    putUnsigned(ns / 1000);
    const auto frac = static_cast<unsigned>(ns % 1000);
    char *at = room(4);
    at[0] = '.';
    at[1] = static_cast<char>('0' + frac / 100);
    at[2] = static_cast<char>('0' + frac / 10 % 10);
    at[3] = static_cast<char>('0' + frac % 10);
    len_ += 4;
}

void
Timeline::putString(std::string_view s)
{
    put('"');
    if (std::none_of(s.begin(), s.end(), needsEscape))
        put(s);
    else
        put(jsonEscape(s));
    put('"');
}

void
Timeline::flush()
{
    os_.write(buf_.get(), static_cast<std::streamsize>(len_));
    len_ = 0;
}

void
Timeline::beginEvent(std::string_view name, std::string_view cat,
                     char ph, std::uint32_t pid, std::uint32_t tid,
                     Ticks ts)
{
    jscale_assert(!finished_, "event recorded after Timeline::finish");
    jscale_assert(!in_event_, "Timeline event begun inside another");
    put(events_ > 0 ? ",\n{\"name\":" : "\n{\"name\":");
    putString(name);
    if (!cat.empty()) {
        put(",\"cat\":");
        putString(cat);
    }
    put(",\"ph\":\"");
    put(ph);
    put("\",\"pid\":");
    putUnsigned(pid);
    put(",\"tid\":");
    putUnsigned(tid);
    put(",\"ts\":");
    putMicros(ts);
    ++events_;
    in_event_ = true;
}

void
Timeline::beginSpan(std::uint32_t pid, std::uint32_t tid,
                    std::string_view name, std::string_view cat,
                    Ticks begin, Ticks end)
{
    jscale_assert(end >= begin, "span '", name, "' ends before it begins");
    beginEvent(name, cat, 'X', pid, tid, begin);
    put(",\"dur\":");
    putMicros(end - begin);
}

void
Timeline::argKey(std::string_view key)
{
    jscale_assert(in_event_, "Timeline arg outside an event");
    put(in_args_ ? "," : ",\"args\":{");
    in_args_ = true;
    putString(key);
    put(':');
}

void
Timeline::arg(std::string_view key, std::uint64_t value)
{
    argKey(key);
    putUnsigned(value);
}

void
Timeline::arg(std::string_view key, std::string_view value)
{
    argKey(key);
    putString(value);
}

void
Timeline::writeArgs(const TraceArgs &args)
{
    for (const TraceArg &a : args) {
        argKey(a.key);
        if (a.quoted)
            putString(a.value);
        else
            put(a.value);
    }
}

void
Timeline::endEvent()
{
    jscale_assert(in_event_, "Timeline::endEvent without an open event");
    put(in_args_ ? "}}" : "}");
    in_event_ = false;
    in_args_ = false;
}

void
Timeline::processName(std::uint32_t pid, std::string_view name)
{
    beginEvent("process_name", "", 'M', pid, 0, 0);
    arg("name", name);
    endEvent();
}

void
Timeline::threadName(std::uint32_t pid, std::uint32_t tid,
                     std::string_view name)
{
    beginEvent("thread_name", "", 'M', pid, tid, 0);
    arg("name", name);
    endEvent();
}

void
Timeline::span(std::uint32_t pid, std::uint32_t tid, std::string_view name,
               std::string_view cat, Ticks begin, Ticks end,
               const TraceArgs &args)
{
    beginSpan(pid, tid, name, cat, begin, end);
    writeArgs(args);
    endEvent();
}

void
Timeline::instant(std::uint32_t pid, std::uint32_t tid,
                  std::string_view name, std::string_view cat, Ticks at,
                  const TraceArgs &args)
{
    beginEvent(name, cat, 'i', pid, tid, at);
    put(",\"s\":\"t\""); // thread-scoped instant
    writeArgs(args);
    endEvent();
}

void
Timeline::counter(std::uint32_t pid, std::string_view name, Ticks at,
                  const TraceArgs &args)
{
    beginEvent(name, "metrics", 'C', pid, 0, at);
    writeArgs(args);
    endEvent();
}

void
Timeline::finish()
{
    if (finished_)
        return;
    jscale_assert(!in_event_, "Timeline::finish inside an open event");
    finished_ = true;
    put("\n]}\n");
    flush();
    os_.flush();
}

} // namespace jscale::telemetry
