/**
 * @file
 * Tests for the telemetry layer: JSON escaping and validation, the
 * streaming Chrome-trace writer, the probe-driven timeline recorder
 * (span accounting against RunResult) and the periodic metric sampler.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>
#include <vector>

#include "profile/profiler.hh"
#include "telemetry/json.hh"
#include "telemetry/profile_tracks.hh"
#include "telemetry/recorder.hh"
#include "telemetry/sampler.hh"
#include "telemetry/timeline.hh"
#include "test_apps.hh"

namespace {

using namespace jscale;
using test::TinyApp;
using test::TinyAppParams;
using test::VmHarness;

TEST(JsonEscape, PassesPlainText)
{
    EXPECT_EQ(telemetry::jsonEscape("core 3"), "core 3");
}

TEST(JsonEscape, EscapesQuotesBackslashesAndControls)
{
    EXPECT_EQ(telemetry::jsonEscape("a\"b"), "a\\\"b");
    EXPECT_EQ(telemetry::jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(telemetry::jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(telemetry::jsonEscape(std::string("a\x01z")), "a\\u0001z");
}

TEST(ValidateJson, AcceptsWellFormedDocuments)
{
    for (const char *ok :
         {"{}", "[]", "null", "true", "-12.5e3", "\"s\"",
          R"({"a":[1,2,{"b":null}],"c":"\u00e9\n"})"}) {
        std::string err;
        EXPECT_TRUE(telemetry::validateJson(ok, &err)) << ok << ": " << err;
    }
}

TEST(ValidateJson, RejectsMalformedDocuments)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":1,}", "{a:1}", "01", "nan", "\"\\x\"",
          "\"unterminated", "[1] garbage", "{\"a\" 1}"}) {
        EXPECT_FALSE(telemetry::validateJson(bad)) << bad;
    }
}

TEST(Timeline, EmitsParsableEventsWithExactTimestamps)
{
    std::ostringstream os;
    {
        telemetry::Timeline tl(os);
        tl.processName(1, "cores");
        tl.threadName(1, 0, "core \"0\"");
        tl.span(1, 0, "work", "burst", 1234, 6789,
                {telemetry::targ("thread", std::uint64_t{7})});
        tl.instant(1, 0, "preempt", "sched", 5000);
        tl.counter(3, "heap", 2000,
                   {telemetry::targ("eden", std::uint64_t{42})});
        EXPECT_EQ(tl.events(), 5u);
    }
    const std::string text = os.str();
    std::string err;
    ASSERT_TRUE(telemetry::validateJson(text, &err)) << err;
    // 1234 ns and a 5555 ns duration render as exact microsecond decimals.
    EXPECT_NE(text.find("\"ts\":1.234"), std::string::npos);
    EXPECT_NE(text.find("\"dur\":5.555"), std::string::npos);
    EXPECT_NE(text.find("core \\\"0\\\""), std::string::npos);
}

TEST(Timeline, FinishIsIdempotentAndTerminatesDocument)
{
    std::ostringstream os;
    telemetry::Timeline tl(os);
    tl.finish();
    tl.finish();
    EXPECT_TRUE(telemetry::validateJson(os.str()));
}

TEST(Timeline, ExactBytesForEdgeCases)
{
    constexpr std::uint64_t kMax64 = std::numeric_limits<std::uint64_t>::max();
    constexpr std::uint32_t kMax32 = std::numeric_limits<std::uint32_t>::max();
    constexpr std::int64_t kMin64 = std::numeric_limits<std::int64_t>::min();
    // '"', '\', newline, tab and a raw 0x1f control in one string.
    const std::string nasty = std::string("q\"b\\s\nt\tc") + '\x1f';
    std::ostringstream os;
    {
        telemetry::Timeline tl(os);
        tl.processName(1, "cores");
        tl.threadName(kMax32, kMax32, nasty);
        tl.span(2, 7, "n" + nasty, "burst", 5, 50,
                {telemetry::targ("k" + nasty, "v" + nasty),
                 telemetry::targ("thread", std::uint64_t{7}),
                 telemetry::targ("delta", std::int64_t{-3}),
                 telemetry::targ("min", kMin64)});
        tl.span(2, 7, "idle", "", 999, 1000);
        tl.instant(1, 3, "preempt", "sched", 1000,
                   {telemetry::targ("stolen", "true")});
        tl.instant(1, 0, "tick", "", 50);
        tl.counter(3, "heap", kMax64,
                   {telemetry::targ("eden", kMax64),
                    telemetry::targ("old", kMax32)});
        tl.span(1, 0, "long", "gc", 0, kMax64);
        EXPECT_EQ(tl.events(), 8u);
    }
    const std::string esc = R"(q\"b\\s\nt\tc\u001f)";
    const std::string expected =
        R"({"displayTimeUnit":"ms","traceEvents":[)"
        "\n"
        R"({"name":"process_name","ph":"M","pid":1,"tid":0,"ts":0.000,)"
        R"("args":{"name":"cores"}},)"
        "\n"
        R"({"name":"thread_name","ph":"M","pid":4294967295,)"
        R"("tid":4294967295,"ts":0.000,"args":{"name":")" +
        esc + R"("}},)"
        "\n"
        R"({"name":"n)" + esc +
        R"(","cat":"burst","ph":"X","pid":2,"tid":7,"ts":0.005,)"
        R"("dur":0.045,"args":{"k)" + esc + R"(":"v)" + esc +
        R"(","thread":7,"delta":-3,"min":-9223372036854775808}},)"
        "\n"
        R"({"name":"idle","ph":"X","pid":2,"tid":7,"ts":0.999,)"
        R"("dur":0.001},)"
        "\n"
        R"({"name":"preempt","cat":"sched","ph":"i","pid":1,"tid":3,)"
        R"("ts":1.000,"s":"t","args":{"stolen":"true"}},)"
        "\n"
        R"({"name":"tick","ph":"i","pid":1,"tid":0,"ts":0.050,"s":"t"},)"
        "\n"
        R"({"name":"heap","cat":"metrics","ph":"C","pid":3,"tid":0,)"
        R"("ts":18446744073709551.615,)"
        R"("args":{"eden":18446744073709551615,"old":4294967295}},)"
        "\n"
        R"({"name":"long","cat":"gc","ph":"X","pid":1,"tid":0,"ts":0.000,)"
        R"("dur":18446744073709551.615})"
        "\n]}\n";
    EXPECT_EQ(os.str(), expected);
    std::string err;
    EXPECT_TRUE(telemetry::validateJson(os.str(), &err)) << err;
}

/** A streambuf that accepts @p limit bytes, then fails every write. */
class FailingBuf : public std::streambuf
{
  public:
    explicit FailingBuf(std::size_t limit) : limit_(limit) {}

  protected:
    int_type
    overflow(int_type ch) override
    {
        if (traits_type::eq_int_type(ch, traits_type::eof()))
            return traits_type::not_eof(ch);
        if (written_ >= limit_)
            return traits_type::eof();
        ++written_;
        return ch;
    }

    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        const auto room = static_cast<std::streamsize>(limit_ - written_);
        const std::streamsize took = std::min(n, room);
        written_ += static_cast<std::size_t>(took);
        return took;
    }

  private:
    std::size_t limit_;
    std::size_t written_ = 0;
};

TEST(Timeline, WriteErrorSurvivesFinish)
{
    // A failure in the final drain (10 bytes) and one mid-stream, well
    // past any write-behind block (100 KB of a ~400 KB document).
    for (const std::size_t limit : {std::size_t{10}, std::size_t{100000}}) {
        FailingBuf buf(limit);
        std::ostream os(&buf);
        {
            telemetry::Timeline tl(os);
            for (std::uint32_t i = 0; i < 4000; ++i) {
                tl.span(1, i % 48, "burst-span", "burst", i * 1000ull,
                        i * 1000ull + 777,
                        {telemetry::targ("thread", std::uint64_t{i})});
            }
            tl.finish();
            EXPECT_TRUE(os.fail()) << "limit " << limit;
        }
        EXPECT_TRUE(os.fail()) << "limit " << limit;
    }
}

TEST(Timeline, StringLongerThanABlockIsWrittenWhole)
{
    // A token larger than the write-behind block bypasses it, in order.
    const std::string name(100000, 'n');
    std::ostringstream os;
    {
        telemetry::Timeline tl(os);
        tl.instant(1, 0, name, "", 0);
    }
    EXPECT_EQ(os.str(), R"({"displayTimeUnit":"ms","traceEvents":[)"
                        "\n{\"name\":\"" +
                            name +
                            R"(","ph":"i","pid":1,"tid":0,"ts":0.000,)"
                            R"("s":"t"})"
                            "\n]}\n");
}

/** Parse the "<us>.<3-digit-ns>" field @p key of one event line to ns. */
std::uint64_t
fieldNs(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const auto pos = line.find(needle);
    if (pos == std::string::npos)
        return 0;
    std::size_t i = pos + needle.size();
    std::uint64_t us = 0;
    while (i < line.size() && line[i] >= '0' && line[i] <= '9')
        us = us * 10 + static_cast<std::uint64_t>(line[i++] - '0');
    std::uint64_t ns = 0;
    if (i < line.size() && line[i] == '.') {
        ++i;
        for (int d = 0; d < 3; ++d)
            ns = ns * 10 + static_cast<std::uint64_t>(line[i++] - '0');
    }
    return us * 1000 + ns;
}

/** One emitted trace event, as the test sees it. */
struct Ev
{
    std::string line;
    std::uint64_t ts = 0;
    std::uint64_t dur = 0;

    bool
    has(const std::string &what) const
    {
        return line.find(what) != std::string::npos;
    }
};

/** Split a timeline document into its event lines. */
std::vector<Ev>
eventLines(const std::string &text)
{
    std::vector<Ev> out;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line)) {
        if (line.rfind("{\"name\"", 0) != 0)
            continue;
        Ev e;
        e.ts = fieldNs(line, "ts");
        e.dur = fieldNs(line, "dur");
        e.line = std::move(line);
        out.push_back(std::move(e));
    }
    return out;
}

/** A contended, GC-heavy tiny app on a small heap. */
TinyAppParams
busyParams()
{
    TinyAppParams p;
    p.name = "telemetry-app";
    p.tasks_per_thread = 120;
    p.compute_per_task = 20 * units::US;
    p.allocs_per_task = 8;
    p.alloc_size = 4096;
    p.alloc_ttl = 64 * units::KiB;
    p.use_shared_lock = 5 * units::US;
    return p;
}

jvm::VmConfig
smallHeapConfig()
{
    jvm::VmConfig cfg = VmHarness::defaultVmConfig();
    cfg.heap.capacity = 2 * units::MiB;
    return cfg;
}

/** Run one recorded VM and return (result, trace text). */
jvm::RunResult
recordedRun(std::string &text_out, Ticks *end_out = nullptr)
{
    VmHarness h(4, smallHeapConfig());
    std::ostringstream os;
    telemetry::Timeline tl(os);
    telemetry::TelemetryRecorder rec(tl);
    rec.attach(h.vm);
    TinyApp app(busyParams());
    const jvm::RunResult r = h.vm.run(app, 4);
    rec.finish(h.sim.now());
    rec.detach();
    tl.finish();
    if (end_out != nullptr)
        *end_out = h.sim.now();
    text_out = os.str();
    return r;
}

TEST(Recorder, ProducesStrictlyValidJson)
{
    std::string text;
    recordedRun(text);
    std::string err;
    EXPECT_TRUE(telemetry::validateJson(text, &err)) << err;
}

TEST(Recorder, EmitsCoreThreadAndVmTracks)
{
    std::string text;
    const jvm::RunResult r = recordedRun(text);
    ASSERT_GT(r.gc.minor_count, 0u) << "test app must trigger GC";
    ASSERT_GT(r.locks.contentions, 0u) << "test app must contend";

    const auto evs = eventLines(text);
    std::uint64_t core_names = 0;
    std::uint64_t thread_names = 0;
    std::uint64_t bursts = 0;
    std::uint64_t running = 0;
    std::uint64_t lock_blocked = 0;
    std::uint64_t at_safepoint = 0;
    std::uint64_t gc_phases = 0;
    for (const Ev &e : evs) {
        if (e.has("\"name\":\"thread_name\"") && e.has("\"pid\":1"))
            ++core_names;
        if (e.has("\"name\":\"thread_name\"") && e.has("\"pid\":2"))
            ++thread_names;
        if (e.has("\"cat\":\"burst\""))
            ++bursts;
        if (e.has("\"name\":\"running\""))
            ++running;
        if (e.has("\"name\":\"lock-blocked\""))
            ++lock_blocked;
        if (e.has("\"name\":\"at-safepoint\""))
            ++at_safepoint;
        if (e.has("\"cat\":\"gc-phase\""))
            ++gc_phases;
    }
    EXPECT_GE(core_names, 4u);
    EXPECT_GE(thread_names, 4u);
    EXPECT_GT(bursts, 0u);
    EXPECT_GT(running, 0u);
    EXPECT_GT(lock_blocked, 0u);
    EXPECT_GT(at_safepoint, 0u);
    EXPECT_GT(gc_phases, 0u);
    for (const Ev &e : evs) {
        if (e.has("\"name\":\"lock-blocked\"")) {
            EXPECT_TRUE(e.has("\"monitor\":"))
                << "lock-blocked span without monitor arg: " << e.line;
        }
    }
}

TEST(Recorder, SpanTotalsMatchRunAccounting)
{
    std::string text;
    const jvm::RunResult r = recordedRun(text);
    ASSERT_GT(r.gc_time, 0u);

    std::uint64_t ttsp = 0;
    std::uint64_t phases = 0;
    for (const Ev &e : eventLines(text)) {
        if (e.has("\"cat\":\"safepoint\""))
            ttsp += e.dur;
        if (e.has("\"cat\":\"gc-phase\""))
            phases += e.dur;
    }
    // Integer-exact by construction; 1% is the acceptance ceiling.
    EXPECT_EQ(ttsp, r.gc.total_ttsp);
    EXPECT_EQ(ttsp + phases, r.gc_time);
    EXPECT_NEAR(static_cast<double>(ttsp + phases),
                static_cast<double>(r.gc_time),
                0.01 * static_cast<double>(r.gc_time));
}

TEST(Recorder, ThreadStateSpansTileTheRunWithoutOverlap)
{
    std::string text;
    Ticks end = 0;
    recordedRun(text, &end);

    // Group state spans per tid; check begin/end monotonicity.
    std::map<std::string, std::vector<std::pair<std::uint64_t,
                                                std::uint64_t>>> per_tid;
    for (const Ev &e : eventLines(text)) {
        if (!e.has("\"cat\":\"state\""))
            continue;
        const auto tid_pos = e.line.find("\"tid\":");
        ASSERT_NE(tid_pos, std::string::npos);
        const auto tid_end = e.line.find(',', tid_pos);
        per_tid[e.line.substr(tid_pos, tid_end - tid_pos)].push_back(
            {e.ts, e.ts + e.dur});
    }
    EXPECT_GE(per_tid.size(), 4u);
    for (auto &[tid, spans] : per_tid) {
        std::sort(spans.begin(), spans.end());
        for (std::size_t i = 1; i < spans.size(); ++i) {
            EXPECT_GE(spans[i].first, spans[i - 1].second)
                << "overlapping state spans on " << tid;
        }
        EXPECT_LE(spans.back().second, end);
    }
}

TEST(Recorder, IdenticalRunsProduceIdenticalTimelines)
{
    std::string a;
    std::string b;
    recordedRun(a);
    recordedRun(b);
    EXPECT_EQ(a, b);
}

/** 64-bit FNV-1a over @p bytes. */
std::uint64_t
fnv1a64(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST(Recorder, TimelineBytesArePinned)
{
    // Every producer at once — recorder, sampler mirror (fixed tracks
    // plus a registered gauge) and profile tracks — in the order the
    // experiment runner closes them. The length and digest were
    // recorded from the original ostream-based writer; any change to
    // the timeline bytes must be deliberate.
    VmHarness h(4, smallHeapConfig());
    std::ostringstream os;
    telemetry::Timeline tl(os);
    telemetry::TelemetryRecorder rec(tl);
    rec.attach(h.vm);
    profile::TaskProfiler profiler;
    profiler.attach(h.vm);
    telemetry::MetricSampler sampler(h.sim, h.vm, 250 * units::US);
    sampler.attachTimeline(&tl);
    sampler.addGauge("depth", [&h]() {
        return static_cast<std::uint64_t>(h.sim.now() % 97);
    });
    sampler.start();
    TinyApp app(busyParams());
    h.vm.run(app, 4);
    profiler.finishRun(h.sim.now());
    sampler.finish(h.sim.now());
    rec.finish(h.sim.now());
    rec.detach();
    telemetry::emitProfileTracks(tl, profiler.summary(), h.sim.now());
    tl.finish();

    const std::string text = os.str();
    std::string err;
    ASSERT_TRUE(telemetry::validateJson(text, &err)) << err;
    for (const char *producer :
         {"\"cat\":\"burst\"", "\"cat\":\"state\"", "\"name\":\"heap\"",
          "\"name\":\"gauges\"", "\"name\":\"blame\"",
          "\"cat\":\"slow-task\""})
        EXPECT_NE(text.find(producer), std::string::npos) << producer;
    EXPECT_EQ(text.size(), std::size_t{1591896});
    EXPECT_EQ(fnv1a64(text), std::uint64_t{0xbfa80d79c17c0c86});
}

TEST(Sampler, RowCountMatchesRunTimeOverInterval)
{
    VmHarness h(4, smallHeapConfig());
    const Ticks interval = 1 * units::MS;
    telemetry::MetricSampler sampler(h.sim, h.vm, interval);
    sampler.start();
    TinyApp app(busyParams());
    const jvm::RunResult r = h.vm.run(app, 4);

    const auto expected = r.wall_time / interval;
    const auto rows = sampler.samples().size();
    EXPECT_GE(rows + 1, expected);
    EXPECT_LE(rows, expected + 1);
    ASSERT_GT(rows, 2u);

    // Samples are evenly spaced and time-ordered.
    for (std::size_t i = 0; i < rows; ++i)
        EXPECT_EQ(sampler.samples()[i].at, (i + 1) * interval);
    EXPECT_EQ(sampler.summary().running.count(), rows);
}

TEST(Sampler, CsvHasHeaderAndOneLinePerSample)
{
    VmHarness h(2, smallHeapConfig());
    telemetry::MetricSampler sampler(h.sim, h.vm, 500 * units::US);
    sampler.start();
    TinyApp app(busyParams());
    h.vm.run(app, 2);

    std::ostringstream os;
    sampler.writeCsv(os);
    std::istringstream is(os.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line, telemetry::MetricSampler::csvHeader());
    std::size_t rows = 0;
    while (std::getline(is, line)) {
        ++rows;
        EXPECT_EQ(std::count(line.begin(), line.end(), ','), 9)
            << line;
    }
    EXPECT_EQ(rows, sampler.samples().size());
}

TEST(Sampler, ObservesHeapAndSchedulerActivity)
{
    VmHarness h(4, smallHeapConfig());
    telemetry::MetricSampler sampler(h.sim, h.vm, 200 * units::US);
    sampler.start();
    TinyApp app(busyParams());
    h.vm.run(app, 4);

    ASSERT_GT(sampler.samples().size(), 0u);
    EXPECT_GT(sampler.summary().live_bytes.max(), 0.0);
    EXPECT_GT(sampler.summary().running.max(), 0.0);
}

TEST(Sampler, FinishFlushesFinalRowAtRunEnd)
{
    VmHarness h(4, smallHeapConfig());
    const Ticks interval = 1 * units::MS;
    telemetry::MetricSampler sampler(h.sim, h.vm, interval);
    sampler.start();
    TinyApp app(busyParams());
    const jvm::RunResult r = h.vm.run(app, 4);

    // Regression: runs whose length is not a multiple of the interval
    // used to lose everything after the last periodic tick. finish()
    // must append exactly one row at the run's final time.
    const std::size_t periodic = sampler.samples().size();
    ASSERT_GT(periodic, 0u);
    EXPECT_LT(sampler.samples().back().at, r.wall_time);

    sampler.finish(h.sim.now());
    ASSERT_EQ(sampler.samples().size(), periodic + 1);
    EXPECT_EQ(sampler.samples().back().at, r.wall_time);

    // Idempotent: a second finish at the same time adds nothing.
    sampler.finish(h.sim.now());
    EXPECT_EQ(sampler.samples().size(), periodic + 1);

    // The final row lands in the CSV dump.
    std::ostringstream os;
    sampler.writeCsv(os);
    const std::string csv = os.str();
    const std::string last_row = std::to_string(r.wall_time) + ",";
    EXPECT_NE(csv.find("\n" + last_row), std::string::npos);
}

TEST(Sampler, IsAPureObserver)
{
    TinyAppParams p = busyParams();
    jvm::RunResult plain;
    jvm::RunResult sampled;
    {
        VmHarness h(4, smallHeapConfig());
        TinyApp app(p);
        plain = h.vm.run(app, 4);
    }
    {
        VmHarness h(4, smallHeapConfig());
        telemetry::MetricSampler sampler(h.sim, h.vm, 300 * units::US);
        sampler.start();
        TinyApp app(p);
        sampled = h.vm.run(app, 4);
    }
    EXPECT_EQ(plain.wall_time, sampled.wall_time);
    EXPECT_EQ(plain.gc_time, sampled.gc_time);
    EXPECT_EQ(plain.gc.minor_count, sampled.gc.minor_count);
    EXPECT_EQ(plain.locks.contentions, sampled.locks.contentions);
}

} // namespace
