#include "core/run_record.hh"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <sstream>

namespace jscale::core {

namespace {

constexpr const char *kHeader = "jscale-run v1";

/** One wait-state-bucket array of a result. */
using Buckets = Ticks[jvm::kWaitBucketCount];

std::string
escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '\\')
            out += "\\\\";
        else if (c == '\n')
            out += "\\n";
        else if (c == '\r')
            out += "\\r";
        else
            out += c;
    }
    return out;
}

std::string
unescape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\' || i + 1 >= s.size()) {
            out += s[i];
            continue;
        }
        const char next = s[++i];
        if (next == 'n')
            out += '\n';
        else if (next == 'r')
            out += '\r';
        else
            out += next;
    }
    return out;
}

/** Lossless double rendering: C hexfloat (inf/nan print as names). */
std::string
fmtDouble(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

/**
 * Sequential field writer. The reader consumes fields in the exact
 * order the writer emits them, so field names double as a structural
 * checksum: any skew fails the parse instead of mis-assigning values.
 */
class Writer
{
  public:
    explicit Writer(std::ostream &os) : os_(os) {}

    void field(const char *name, std::uint64_t v)
    {
        os_ << "u " << name << ' ' << v << '\n';
    }

    void field(const char *name, std::uint32_t v)
    {
        field(name, static_cast<std::uint64_t>(v));
    }

    void field(const char *name, bool v)
    {
        field(name, static_cast<std::uint64_t>(v ? 1 : 0));
    }

    void field(const char *name, os::ThreadKind v)
    {
        field(name, static_cast<std::uint64_t>(v));
    }

    void field(const char *name, double v)
    {
        os_ << "d " << name << ' ' << fmtDouble(v) << '\n';
    }

    void field(const char *name, const std::string &v)
    {
        os_ << "s " << name << ' ' << escape(v) << '\n';
    }

    void field(const char *name, const stats::SampleStats &v)
    {
        os_ << "ss " << name << ' ' << v.count() << ' '
            << fmtDouble(v.sum()) << ' ' << fmtDouble(v.welfordMean())
            << ' ' << fmtDouble(v.m2()) << ' ' << fmtDouble(v.min())
            << ' ' << fmtDouble(v.max()) << '\n';
    }

    void field(const char *name, const stats::LogHistogram &h)
    {
        std::size_t nonzero = 0;
        for (std::size_t i = 0; i < stats::LogHistogram::kBuckets; ++i)
            nonzero += h.bucket(i) != 0;
        os_ << "lh " << name << ' ' << nonzero << '\n';
        for (std::size_t i = 0; i < stats::LogHistogram::kBuckets; ++i) {
            if (h.bucket(i) != 0)
                os_ << "lb " << i << ' ' << h.bucket(i) << '\n';
        }
    }

    void field(const char *name, const stats::LatencyHistogram &h)
    {
        std::size_t nonzero = 0;
        for (std::size_t i = 0; i < stats::LatencyHistogram::kBuckets;
             ++i) {
            nonzero += h.bucket(i) != 0;
        }
        os_ << "ah " << name << ' ' << nonzero << ' ' << h.count() << ' '
            << h.sum() << ' ' << h.min() << ' ' << h.max() << '\n';
        for (std::size_t i = 0; i < stats::LatencyHistogram::kBuckets;
             ++i) {
            if (h.bucket(i) != 0)
                os_ << "ab " << i << ' ' << h.bucket(i) << '\n';
        }
    }

    void field(const char *name, const Buckets &b)
    {
        os_ << "bk " << name;
        put(b);
        os_ << '\n';
    }

    /** A count of elements whose contents are not recorded. */
    template <typename T>
    void count(const char *name, const std::vector<T> &v)
    {
        field(name, static_cast<std::uint64_t>(v.size()));
    }

    /** A count, then @p each on every element. */
    template <typename T, typename Each>
    void list(const char *name, const std::vector<T> &v, Each each)
    {
        count(name, v);
        for (const T &e : v)
            each(e);
    }

    /** One "<tag> v..." line of space-separated integers. */
    template <typename... Ts>
    void row(const char *tag, const Ts &...vs)
    {
        os_ << tag;
        (put(vs), ...);
        os_ << '\n';
    }

  private:
    template <typename T>
    void put(const T &v)
    {
        os_ << ' ' << v;
    }

    void put(const Buckets &b)
    {
        for (const Ticks t : b)
            os_ << ' ' << t;
    }

    std::ostream &os_;
};

/**
 * Sequential field reader, the writer's mirror. The first malformed or
 * out-of-order field latches an error; later calls become no-ops so the
 * call site stays a linear field list with one error check at the end.
 */
class Reader
{
  public:
    explicit Reader(std::istream &is) : is_(is) {}

    bool ok() const { return err_.empty(); }
    const std::string &error() const { return err_; }

    /** Read one raw line; false at EOF (latches an error). */
    bool line(std::string &out)
    {
        if (!ok())
            return false;
        if (!std::getline(is_, out)) {
            fail("unexpected end of record");
            return false;
        }
        return true;
    }

    void field(const char *name, std::uint64_t &v)
    {
        v = parseU64(tagged("u", name), name);
    }

    void field(const char *name, std::uint32_t &v)
    {
        v = static_cast<std::uint32_t>(parseU64(tagged("u", name), name));
    }

    void field(const char *name, bool &v)
    {
        v = parseU64(tagged("u", name), name) != 0;
    }

    void field(const char *name, os::ThreadKind &v)
    {
        v = static_cast<os::ThreadKind>(parseU64(tagged("u", name), name));
    }

    void field(const char *name, double &v)
    {
        v = parseDouble(tagged("d", name), name);
    }

    void field(const char *name, std::string &v)
    {
        v = unescape(tagged("s", name));
    }

    void field(const char *name, stats::SampleStats &v)
    {
        std::istringstream ss(tagged("ss", name));
        std::uint64_t count = 0;
        std::string sum, mean, m2, mn, mx;
        if (ok() && !(ss >> count >> sum >> mean >> m2 >> mn >> mx))
            fail(std::string("malformed sample stats '") + name + "'");
        if (!ok())
            return;
        v = stats::SampleStats::restore(
            count, parseDouble(sum, name), parseDouble(mean, name),
            parseDouble(m2, name), parseDouble(mn, name),
            parseDouble(mx, name));
    }

    void field(const char *name, stats::LogHistogram &h)
    {
        std::istringstream ss(tagged("lh", name));
        std::uint64_t nonzero = 0;
        if (ok() && !(ss >> nonzero))
            fail(std::string("malformed histogram header '") + name +
                 "'");
        for (std::uint64_t n = 0; ok() && n < nonzero; ++n) {
            std::uint64_t i = 0, w = 0;
            row("lb", i, w);
            if (ok() && i >= stats::LogHistogram::kBuckets)
                fail(std::string("histogram bucket out of range in '") +
                     name + "'");
            // Re-add at the bucket's lower edge: exact reconstruction,
            // since bucketing only keeps the index anyway.
            if (ok())
                h.add(i == 0 ? 0 : (1ULL << (i - 1)), w);
        }
    }

    void field(const char *name, stats::LatencyHistogram &h)
    {
        std::istringstream ss(tagged("ah", name));
        std::uint64_t nonzero = 0, count = 0, sum = 0, mn = 0, mx = 0;
        if (ok() && !(ss >> nonzero >> count >> sum >> mn >> mx))
            fail(std::string("malformed histogram header '") + name +
                 "'");
        std::uint64_t restored = 0;
        for (std::uint64_t n = 0; ok() && n < nonzero; ++n) {
            std::uint64_t i = 0, w = 0;
            row("ab", i, w);
            if (ok() && i >= stats::LatencyHistogram::kBuckets)
                fail(std::string("histogram bucket out of range in '") +
                     name + "'");
            if (!ok())
                break;
            h.restoreBucket(static_cast<std::size_t>(i), w);
            restored += w;
        }
        if (ok() && restored != count)
            fail(std::string("histogram weight mismatch in '") + name +
                 "'");
        if (ok() && count > 0)
            h.restoreAggregates(sum, mn, mx);
    }

    void field(const char *name, Buckets &b)
    {
        std::string ln;
        if (!line(ln))
            return;
        std::istringstream ss(ln);
        std::string tag, got;
        if (!(ss >> tag >> got) || tag != "bk" || got != name || !get(ss, b))
            fail(std::string("malformed bucket row '") + name + "'");
    }

    /** A count of default elements (their contents are not recorded). */
    template <typename T>
    void count(const char *name, std::vector<T> &v)
    {
        std::uint64_t n = 0;
        field(name, n);
        v.resize(static_cast<std::size_t>(n));
    }

    /** A count, then @p each on every element. */
    template <typename T, typename Each>
    void list(const char *name, std::vector<T> &v, Each each)
    {
        std::uint64_t n = 0;
        field(name, n);
        for (std::uint64_t i = 0; ok() && i < n; ++i) {
            T e{};
            each(e);
            v.push_back(std::move(e));
        }
    }

    /** One "<tag> v..." line of space-separated integers. */
    template <typename... Ts>
    void row(const char *tag, Ts &...vs)
    {
        std::string ln;
        if (!line(ln))
            return;
        std::istringstream ss(ln);
        std::string got;
        if (!(ss >> got) || got != tag || !(get(ss, vs) && ...))
            fail(std::string("malformed '") + tag + "' row");
    }

    void fail(const std::string &msg)
    {
        if (err_.empty())
            err_ = msg;
    }

  private:
    template <typename T>
    static bool get(std::istream &ss, T &v)
    {
        return static_cast<bool>(ss >> v);
    }

    static bool get(std::istream &ss, Buckets &b)
    {
        for (Ticks &t : b) {
            if (!(ss >> t))
                return false;
        }
        return true;
    }

    /** Expect "<tag> <name> "; return the rest of the line. */
    std::string tagged(const char *tag, const char *name)
    {
        std::string ln;
        if (!line(ln))
            return {};
        const std::string prefix =
            std::string(tag) + ' ' + name + ' ';
        if (ln.compare(0, prefix.size(), prefix) != 0) {
            // A tag line with an empty value has no trailing space.
            const std::string bare = std::string(tag) + ' ' + name;
            if (ln == bare)
                return {};
            fail("expected field '" + std::string(name) + "', got '" +
                 ln + "'");
            return {};
        }
        return ln.substr(prefix.size());
    }

    std::uint64_t parseU64(const std::string &v, const char *name)
    {
        if (!ok())
            return 0;
        char *end = nullptr;
        const unsigned long long x = std::strtoull(v.c_str(), &end, 10);
        if (v.empty() || end != v.c_str() + v.size()) {
            fail(std::string("malformed integer field '") + name + "'");
            return 0;
        }
        return static_cast<std::uint64_t>(x);
    }

    double parseDouble(const std::string &v, const char *name)
    {
        if (!ok())
            return 0.0;
        char *end = nullptr;
        const double x = std::strtod(v.c_str(), &end);
        if (v.empty() || end != v.c_str() + v.size()) {
            fail(std::string("malformed double field '") + name + "'");
            return 0.0;
        }
        return x;
    }

    std::istream &is_;
    std::string err_;
};

/**
 * The record's field list, in record order: walked by Writer over a
 * const result to emit it and by Reader over a fresh one to parse it.
 */
template <typename Io, typename Result>
void
visitFields(Io &io, Result &r)
{
    io.field("app_name", r.app_name);
    io.field("threads", r.threads);
    io.field("cores", r.cores);
    io.field("heap_capacity", r.heap_capacity);
    io.field("wall_time", r.wall_time);
    io.field("gc_time", r.gc_time);

    auto &gc = r.gc;
    io.field("gc.minor_count", gc.minor_count);
    io.field("gc.full_count", gc.full_count);
    io.field("gc.local_count", gc.local_count);
    io.field("gc.concurrent_cycles", gc.concurrent_cycles);
    io.field("gc.concurrent_failures", gc.concurrent_failures);
    io.field("gc.remark_count", gc.remark_count);
    io.field("gc.local_pause", gc.local_pause);
    io.field("gc.total_pause", gc.total_pause);
    io.field("gc.total_ttsp", gc.total_ttsp);
    io.field("gc.copied_bytes", gc.copied_bytes);
    io.field("gc.promoted_bytes", gc.promoted_bytes);
    io.field("gc.reclaimed_bytes", gc.reclaimed_bytes);
    io.field("gc.minor_pauses", gc.minor_pauses);
    io.field("gc.full_pauses", gc.full_pauses);
    io.field("gc.pause_hist", gc.pause_hist);
    io.field("gc.nursery_survival", gc.nursery_survival);
    io.field("gc.adaptive.grows", gc.adaptive.grows);
    io.field("gc.adaptive.shrinks", gc.adaptive.shrinks);
    io.field("gc.adaptive.final_young_fraction",
             gc.adaptive.final_young_fraction);
    io.field("gc.young_resizes", gc.young_resizes);
    // Only the event count is observable after a run (snapshots and
    // reports never read individual events), so the count suffices for
    // byte-identical rendering.
    io.count("gc.events", gc.events);

    auto &heap = r.heap;
    io.field("heap.objects_allocated", heap.objects_allocated);
    io.field("heap.objects_died", heap.objects_died);
    io.field("heap.bytes_allocated", heap.bytes_allocated);
    io.field("heap.bytes_died", heap.bytes_died);
    io.field("heap.peak_live_bytes", heap.peak_live_bytes);
    io.field("heap.tlab_refills", heap.tlab_refills);
    io.field("heap.tlab_waste", heap.tlab_waste);
    io.field("heap.lifespan", heap.lifespan);

    auto &locks = r.locks;
    io.field("locks.acquisitions", locks.acquisitions);
    io.field("locks.contentions", locks.contentions);
    io.field("locks.block_time", locks.block_time);
    io.field("locks.monitors", locks.monitors);
    io.field("locks.biased_acquisitions", locks.biased_acquisitions);
    io.field("locks.thin_acquisitions", locks.thin_acquisitions);
    io.field("locks.fat_acquisitions", locks.fat_acquisitions);
    io.field("locks.bias_revocations", locks.bias_revocations);
    io.field("locks.inflations", locks.inflations);
    io.field("locks.waits", locks.waits);
    io.field("locks.notifies", locks.notifies);
    io.field("locks.handoffs", locks.handoffs);
    io.field("locks.barged_grants", locks.barged_grants);
    io.field("locks.waiters_passivated", locks.waiters_passivated);
    io.field("locks.waiters_reactivated", locks.waiters_reactivated);
    io.field("locks.coherence_penalty", locks.coherence_penalty);
    io.field("locks.circulation_sum", locks.circulation_sum);
    io.field("locks.block_hist", locks.block_hist);

    io.list("threads.count", r.thread_summaries, [&io](auto &t) {
        io.field("t.name", t.name);
        io.field("t.kind", t.kind);
        io.field("t.cpu_time", t.cpu_time);
        io.field("t.ready_time", t.ready_time);
        io.field("t.blocked_time", t.blocked_time);
        io.field("t.sleep_time", t.sleep_time);
        io.field("t.dispatches", t.dispatches);
        io.field("t.migrations", t.migrations);
        io.field("t.tasks_completed", t.tasks_completed);
        io.field("t.allocations", t.allocations);
        io.field("t.bytes_allocated", t.bytes_allocated);
    });

    auto &sc = r.sched;
    io.field("sched.dispatches", sc.dispatches);
    io.field("sched.context_switches", sc.context_switches);
    io.field("sched.migrations", sc.migrations);
    io.field("sched.steals", sc.steals);
    io.field("sched.preemptions", sc.preemptions);
    io.field("sched.admission_parks", sc.admission_parks);
    io.field("sched.admission_unparks", sc.admission_unparks);
    io.field("sched.core_offlines", sc.core_offlines);
    io.field("sched.core_onlines", sc.core_onlines);
    io.field("sched.displaced_threads", sc.displaced_threads);
    io.field("sched.forced_preemptions", sc.forced_preemptions);
    io.field("sched.forced_stalls", sc.forced_stalls);
    io.field("sched.busy_ticks", sc.busy_ticks);
    io.field("sched.overhead_ticks", sc.overhead_ticks);

    auto &gov = r.governor;
    io.field("gov.enabled", gov.enabled);
    io.field("gov.policy", gov.policy);
    io.field("gov.final_target", gov.final_target);
    io.field("gov.min_target", gov.min_target);
    io.field("gov.max_target", gov.max_target);
    io.field("gov.decisions", gov.decisions);
    io.field("gov.parks", gov.parks);
    io.field("gov.unparks", gov.unparks);
    io.field("gov.usl_sigma", gov.usl_sigma);
    io.field("gov.usl_kappa", gov.usl_kappa);
    io.field("gov.usl_nstar", gov.usl_nstar);

    auto &f = r.faults;
    io.field("faults.injections", f.injections);
    io.field("faults.recoveries", f.recoveries);
    io.field("faults.cores_offlined", f.cores_offlined);
    io.field("faults.cores_onlined", f.cores_onlined);
    io.field("faults.slowdowns", f.slowdowns);
    io.field("faults.preempt_bursts", f.preempt_bursts);
    io.field("faults.lock_holders_preempted", f.lock_holders_preempted);
    io.field("faults.mutators_killed", f.mutators_killed);
    io.field("faults.mutators_stalled", f.mutators_stalled);
    io.field("faults.heap_spikes", f.heap_spikes);
    io.field("faults.gc_worker_losses", f.gc_worker_losses);
    io.field("faults.tasks_reassigned", f.tasks_reassigned);

    auto &p = r.profile;
    io.field("profile.enabled", p.enabled);
    io.field("profile.tasks", p.tasks);
    io.field("profile.tasks_discarded", p.tasks_discarded);
    io.field("profile.bucket_total", p.bucket_total);
    io.field("profile.latency", p.latency);
    for (auto &h : p.bucket_hist)
        io.field("profile.bucket_hist", h);
    io.list("profile.slowest", p.slowest, [&io](auto &slow) {
        io.row("sl", slow.task, slow.thread, slow.start, slow.end,
               slow.buckets);
    });
    io.list("profile.lock_waits", p.lock_waits, [&io](auto &mw) {
        io.row("mw", mw.monitor, mw.wait, mw.blocks);
    });

    auto &tr = r.traffic;
    io.field("traffic.enabled", tr.enabled);
    io.field("traffic.tenant", tr.tenant);
    io.field("traffic.arrival_spec", tr.arrival_spec);
    io.field("traffic.arrivals", tr.arrivals);
    io.field("traffic.admitted", tr.admitted);
    io.field("traffic.shed", tr.shed);
    io.field("traffic.dispatched", tr.dispatched);
    io.field("traffic.completed", tr.completed);
    io.field("traffic.max_queue_depth", tr.max_queue_depth);
    io.field("traffic.sojourn", tr.sojourn);
    io.field("traffic.queueing", tr.queueing);
    io.field("traffic.service", tr.service);
    io.field("traffic.service_bucket_total", tr.service_bucket_total);

    io.field("total_tasks", r.total_tasks);
    io.field("sim_events", r.sim_events);
    io.field("timeline_file", r.timeline_file);
    io.field("metrics_file", r.metrics_file);
    io.field("timeline_events", r.timeline_events);
    io.field("metric_rows", r.metric_rows);
    io.list("artifact_errors", r.artifact_errors,
            [&io](auto &e) { io.field("ae", e); });
    io.field("run_error", r.run_error);
    io.field("skipped", r.skipped);
}

} // namespace

void
writeRunRecord(std::ostream &os, const std::string &key,
               const std::string &fingerprint, const jvm::RunResult &r)
{
    os << kHeader << '\n';
    os << "key " << escape(key) << '\n';
    os << "fp " << escape(fingerprint) << '\n';
    Writer w(os);
    visitFields(w, r);
    os << "end\n";
}

bool
readRunRecord(std::istream &is, const std::string &expect_key,
              const std::string &expect_fingerprint, jvm::RunResult &out,
              std::string &err)
{
    Reader in(is);
    std::string ln;
    if (!in.line(ln) || ln != kHeader) {
        err = in.ok() ? "not a jscale-run v1 record" : in.error();
        return false;
    }
    if (!in.line(ln) || ln.compare(0, 4, "key ") != 0) {
        err = "record missing key line";
        return false;
    }
    if (unescape(ln.substr(4)) != expect_key) {
        err = "record key mismatch";
        return false;
    }
    if (!in.line(ln) || ln.compare(0, 3, "fp ") != 0) {
        err = "record missing fingerprint line";
        return false;
    }
    if (unescape(ln.substr(3)) != expect_fingerprint) {
        err = "record belongs to a different campaign configuration";
        return false;
    }

    jvm::RunResult r;
    visitFields(in, r);
    if (in.ok() && (!in.line(ln) || ln != "end"))
        in.fail("record missing 'end' trailer (torn write?)");
    if (!in.ok()) {
        err = in.error();
        return false;
    }
    out = std::move(r);
    return true;
}

} // namespace jscale::core
