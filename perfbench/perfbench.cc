/**
 * @file
 * jscale benchmark program.
 *
 * Drives the simulator in-process through core::ExperimentRunner, the
 * path `jscale run` takes (minHeapRequirement, then runApp), on one of
 * four fixed workloads. Every run's simulated stats are compared field
 * by field against a recorded reference; a run that aborts or drifts is
 * a failed run.
 *
 *   perfbench --workload W --reference DIR --scratch DIR
 *             [--seed N] [--seconds N] [--trace 0|1] [--record]
 *
 * --trace 0 reports the end-to-end host metrics (set-up, run time, peak
 * RSS). --trace 1 runs the workload in measurement arms (plain, traced,
 * one per observer) and reports the per-layer account. --record
 * re-records the workload's reference for every seed in the pool.
 * The last stdout line is one JSON object; README.md defines it.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "check/golden.hh"
#include "core/experiment.hh"
#include "core/report.hh"
#include "probes.hh"
#include "workload/dacapo.hh"

namespace jscale::perfbench {
namespace {

/** Observers a run arms (bit set). */
enum Observer : unsigned
{
    kCheck = 1,
    kProfile = 2,
    kTimeline = 4,
    kSampler = 8,
};
constexpr unsigned kAllObservers = kCheck | kProfile | kTimeline | kSampler;

/** One benchmark workload: a fixed `jscale run` configuration. */
struct Workload
{
    const char *name;
    const char *app;
    std::uint32_t threads;
    double scale;
    const char *arrivals; ///< empty = closed loop
    unsigned observers;
    const char *flags; ///< the equivalent `jscale run` flags
};

// Why each workload is here, and what it stresses, is in README.md.
const Workload kWorkloads[] = {
    {"xalan-gc", "xalan", 48, 4.0, "", 0,
     "--app xalan --threads 48 --scale 4"},
    {"h2-locks", "h2", 48, 8.0, "", 0, "--app h2 --threads 48 --scale 8"},
    {"sunflow-open", "sunflow", 16, 1.0,
     "poisson:rate=40000:requests=80000", 0,
     "--app sunflow --threads 16 "
     "--arrivals poisson:rate=40000:requests=80000"},
    {"xalan-observed", "xalan", 48, 1.0, "", kAllObservers,
     "--app xalan --threads 48 --oracles --profile --timeline <tmp> "
     "--metrics-interval-ms 1"},
};

/**
 * Seeds with a recorded reference. Any --seed maps onto the pool
 * (kSeedBase + seed mod kSeedCount), so every seed has an exact
 * reference; 42 maps to itself. kHeldOutSeed is kept for validating
 * claims and is not to be used while tuning a change.
 */
constexpr std::int64_t kSeedBase = 40;
constexpr std::int64_t kSeedCount = 8;
constexpr std::int64_t kHeldOutSeed = 47;

/**
 * Fresh-runner heap calibrations timed per run (median = setup_s): at
 * least kSetupReps, and more until kSetupSeconds have passed, so short
 * calibrations are sampled as often as long ones are timed.
 */
constexpr std::size_t kSetupReps = 5;
constexpr double kSetupSeconds = 2.0;
/** Timed repetitions per arm, whatever --seconds says. */
constexpr std::size_t kMinReps = 3;

std::uint64_t
poolSeed(std::int64_t seed)
{
    return static_cast<std::uint64_t>(
        kSeedBase + ((seed % kSeedCount) + kSeedCount) % kSeedCount);
}

struct Options
{
    std::string workload;
    std::string reference_dir;
    std::string scratch_dir;
    std::int64_t seed = 42;
    int seconds = 10;
    bool trace = false;
    bool record = false;
};

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

core::ExperimentConfig
makeConfig(const Workload &w, std::uint64_t seed, unsigned observers,
           const std::string &scratch)
{
    core::ExperimentConfig cfg;
    cfg.seed = seed;
    cfg.workload_scale = w.scale;
    cfg.arrivals = w.arrivals;
    cfg.error_path.clear();
    cfg.oracles = (observers & kCheck) != 0;
    cfg.profile = (observers & kProfile) != 0;
    const std::string stem = scratch + "/" + w.name;
    if (observers & kTimeline)
        cfg.timeline_path = stem + ".timeline.json";
    if (observers & kSampler) {
        cfg.metrics_interval = 1 * units::MS;
        cfg.metrics_path = stem + ".metrics.csv";
    }
    return cfg;
}

/** One executed run: host time, result and artifact sizes. */
struct Sample
{
    double host_s = 0.0;
    jvm::RunResult result;
    std::uint64_t timeline_bytes = 0;
    std::uint64_t metrics_bytes = 0;
    /** Non-empty = the run aborted or an artifact failed. */
    std::string error;
};

/** Size of @p path, which is then removed (artifacts are not kept). */
std::uint64_t
takeArtifact(const std::string &path)
{
    if (path.empty())
        return 0;
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(path, ec);
    std::filesystem::remove(path, ec);
    return bytes;
}

Sample
runOnce(core::ExperimentRunner &runner, const Workload &w,
        const core::AppFactory &traced_factory = {},
        const core::VmAttachHook &hook = {})
{
    Sample s;
    const auto t0 = Clock::now();
    try {
        s.result = traced_factory
                       ? runner.runCustom(traced_factory, w.app, w.threads,
                                          hook)
                       : runner.runApp(w.app, w.threads);
    } catch (const std::exception &e) {
        s.error = e.what();
    }
    s.host_s = secondsSince(t0);
    s.timeline_bytes = takeArtifact(s.result.timeline_file);
    s.metrics_bytes = takeArtifact(s.result.metrics_file);
    if (s.error.empty() && !s.result.artifact_errors.empty())
        s.error = s.result.artifact_errors.front();
    return s;
}

/**
 * The simulated outcome of a run: core::runStatSnapshot plus the open
 * loop's request counts and tails, the profiler's bucket totals and the
 * artifacts' exact sizes when those are armed. Fields under
 * "profile." and "artifact." belong to observers; the rest are the
 * primary stats every arm of one configuration must reproduce.
 */
stats::StatSnapshot
snapshot(const Sample &s)
{
    const jvm::RunResult &r = s.result;
    stats::StatSnapshot snap = core::runStatSnapshot(r);
    if (r.traffic.enabled) {
        const jvm::TrafficSummary &t = r.traffic;
        snap.add("traffic.arrivals", t.arrivals);
        snap.add("traffic.admitted", t.admitted);
        snap.add("traffic.shed", t.shed);
        snap.add("traffic.dispatched", t.dispatched);
        snap.add("traffic.completed", t.completed);
        snap.add("traffic.max_queue", t.max_queue_depth);
        snap.add("traffic.sojourn_p50",
                 static_cast<double>(t.sojourn.quantile(0.5)), "ticks");
        snap.add("traffic.sojourn_p99",
                 static_cast<double>(t.sojourn.quantile(0.99)), "ticks");
        snap.add("traffic.sojourn_max", static_cast<double>(t.sojourn.max()),
                 "ticks");
        snap.add("traffic.service_total",
                 static_cast<double>(t.serviceBucketTotal()), "ticks");
    }
    if (r.profile.enabled) {
        snap.add("profile.tasks", r.profile.tasks);
        for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i) {
            snap.add(std::string("profile.") +
                         jvm::waitBucketName(static_cast<jvm::WaitBucket>(i)),
                     static_cast<double>(r.profile.bucket_total[i]),
                     "ticks");
        }
    }
    if (!r.timeline_file.empty()) {
        snap.add("artifact.timeline_events",
                 static_cast<double>(r.timeline_events));
        snap.add("artifact.timeline_bytes",
                 static_cast<double>(s.timeline_bytes), "B");
    }
    if (!r.metrics_file.empty()) {
        snap.add("artifact.metric_rows", static_cast<double>(r.metric_rows));
        snap.add("artifact.metrics_bytes",
                 static_cast<double>(s.metrics_bytes), "B");
    }
    return snap;
}

/** Which snapshot fields two runs of different arms must share. */
enum class Fields
{
    /** Same observers: every field. */
    All,
    /** Observers differ: the primary stats. */
    Primary,
    /** The sampler differs too: its ticks are sim events of their own. */
    PrimaryButEvents,
};

Fields
sharedFields(unsigned observers_a, unsigned observers_b)
{
    if (observers_a == observers_b)
        return Fields::All;
    return ((observers_a ^ observers_b) & kSampler) ? Fields::PrimaryButEvents
                                                    : Fields::Primary;
}

stats::StatSnapshot
only(const stats::StatSnapshot &snap, Fields fields)
{
    if (fields == Fields::All)
        return snap;
    stats::StatSnapshot out;
    for (const stats::StatValue &v : snap.values()) {
        const bool observer = v.name.rfind("profile.", 0) == 0 ||
                              v.name.rfind("artifact.", 0) == 0 ||
                              (fields == Fields::PrimaryButEvents &&
                               v.name == "sim_events");
        if (!observer)
            out.add(v.name, v.value, v.unit);
    }
    return out;
}

std::string
referenceLabel(const Workload &w, std::uint64_t seed)
{
    return std::string(w.name) + "/seed=" + std::to_string(seed);
}

std::string
referencePath(const Options &o, const Workload &w)
{
    return o.reference_dir + "/" + w.name + ".golden";
}

/**
 * Attempted/failed bookkeeping for one benchmark invocation. Each
 * failure prints the arm and the first fields that drifted.
 */
class Verdict
{
  public:
    /**
     * Check @p s against the recorded @p ref on @p ref_fields and, when
     * given, against the plain run @p plain of the same configuration
     * on @p plain_fields (the purity check).
     */
    void
    check(const std::string &arm, const Sample &s,
          const stats::StatSnapshot &ref, Fields ref_fields,
          const stats::StatSnapshot *plain = nullptr,
          Fields plain_fields = Fields::All)
    {
        ++attempted_;
        if (!s.error.empty()) {
            fail(arm, "run aborted: " + s.error);
            return;
        }
        const stats::StatSnapshot fresh = snapshot(s);
        std::vector<check::FieldDiff> diffs = check::diffSnapshots(
            arm, only(ref, ref_fields), only(fresh, ref_fields));
        if (!diffs.empty()) {
            fail(arm, "drifted from the reference", diffs);
            return;
        }
        if (plain != nullptr) {
            diffs = check::diffSnapshots(arm, only(*plain, plain_fields),
                                         only(fresh, plain_fields));
            if (!diffs.empty())
                fail(arm, "impure: differs from the plain run", diffs);
        }
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

    /** Fail the last run checked, printing why. */
    void
    fail(const std::string &arm, const std::string &why,
         const std::vector<check::FieldDiff> &diffs = {})
    {
        // A later check on the same run may fail it a second time.
        if (failed_ < attempted_)
            ++failed_;
        if (reported_++ >= 3)
            return;
        std::cout << "FAILED run (" << arm << "): " << why << "\n";
        for (std::size_t i = 0; i < std::min<std::size_t>(diffs.size(), 5);
             ++i)
            std::cout << "  " << diffs[i].format() << "\n";
        if (diffs.size() > 5)
            std::cout << "  ... and " << diffs.size() - 5 << " more\n";
    }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t reported_ = 0;
};

/** A named metric value, printed in the result line. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    std::ostringstream os;
    os.precision(17);
    os << v;
    return os.str();
}

void
printMetrics(const std::vector<Metric> &metrics)
{
    for (const Metric &m : metrics) {
        std::printf("  %-32s %-24s %s\n", m.name.c_str(),
                    jsonNumber(m.value).c_str(), m.unit.c_str());
    }
    std::fflush(stdout);
}

/** Print @p metrics, then the result line (the last line of stdout). */
void
printResult(const Verdict &v, const std::vector<Metric> &metrics)
{
    printMetrics(metrics);
    std::cout << "{\"correct\": "
              << (v.failed() == 0 && v.attempted() > 0 ? "true" : "false")
              << ", \"attempted\": " << v.attempted()
              << ", \"failed\": " << v.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        std::cout << (i ? ", " : "") << "\"" << metrics[i].name
                  << "\": {\"value\": " << jsonNumber(metrics[i].value)
                  << ", \"unit\": \"" << metrics[i].unit << "\"}";
    }
    std::cout << "}}" << std::endl;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) * 1024.0 / 1e6;
}

/** End-to-end metrics (--trace 0). */
int
measure(const Options &o, const Workload &w, const stats::StatSnapshot &ref)
{
    const std::uint64_t seed = poolSeed(o.seed);
    const core::ExperimentConfig cfg =
        makeConfig(w, seed, w.observers, o.scratch_dir);

    // Set-up: a fresh runner and its heap calibration, several times;
    // the last runner keeps its calibration for the timed runs.
    std::vector<double> setup;
    std::unique_ptr<core::ExperimentRunner> runner;
    const auto setup_start = Clock::now();
    while (setup.size() < kSetupReps ||
           secondsSince(setup_start) < kSetupSeconds) {
        const auto t0 = Clock::now();
        runner = std::make_unique<core::ExperimentRunner>(cfg);
        runner->minHeapRequirement(w.app);
        setup.push_back(secondsSince(t0));
    }

    Verdict verdict;
    // A warm-up run (checked, not timed) fills the allocator's caches.
    verdict.check("warm-up", runOnce(*runner, w), ref, Fields::All);
    std::vector<double> run_s;
    double artifact_mb = 0.0;
    const auto start = Clock::now();
    while (run_s.size() < kMinReps || secondsSince(start) < o.seconds) {
        const Sample s = runOnce(*runner, w);
        verdict.check("run", s, ref, Fields::All);
        run_s.push_back(s.host_s);
        artifact_mb =
            static_cast<double>(s.timeline_bytes + s.metrics_bytes) / 1e6;
    }

    std::vector<double> sorted = run_s;
    std::sort(sorted.begin(), sorted.end());
    std::cout << "workload " << w.name << ": jscale run " << w.flags
              << " --seed " << seed << "\n"
              << "  " << run_s.size() << " timed runs (+1 warm-up): run_s min "
              << sorted.front() << " median " << median(run_s) << " max "
              << sorted.back() << "; setup_s median of " << setup.size()
              << "\n";
    // peak_rss_mb, artifact_mb and failed_run_ratio are end-to-end too,
    // but stay out of the result line: README.md says why.
    const double failed_ratio =
        ratio(static_cast<double>(verdict.failed()),
              static_cast<double>(verdict.attempted()));
    printMetrics({{"peak_rss_mb", peakRssMb(), "MB"},
                  {"artifact_mb", artifact_mb, "MB"},
                  {"failed_run_ratio", failed_ratio, "ratio"}});
    printResult(verdict, {{"setup_s", median(setup), "s"},
                          {"run_s", median(run_s), "s"}});
    return 0;
}

/** One measurement arm of the traced run. */
struct Arm
{
    std::string name;
    unsigned observers = 0;
    bool traced = false;
    std::unique_ptr<core::ExperimentRunner> runner;
    std::vector<double> times;
    Sample last;
};

double
bucketShare(const jvm::ProfileSummary &p, jvm::WaitBucket b)
{
    return ratio(static_cast<double>(p.bucket_total[static_cast<int>(b)]),
                 static_cast<double>(p.total()));
}

/** Where the traced arm's probe counts disagree with the run's stats. */
std::string
probeMismatch(const LayerCounts &c, const jvm::RunResult &r)
{
    std::ostringstream os;
    const auto cmp = [&os](const char *what, std::uint64_t probe,
                           std::uint64_t stat) {
        if (probe != stat)
            os << " " << what << " probe " << probe << " != stats " << stat;
    };
    cmp("dispatches", c.dispatches, r.sched.dispatches);
    cmp("objects", c.objects, r.heap.objects_allocated);
    cmp("gc.events", c.gc_ends, r.gc.events.size());
    cmp("gc.full", c.gc_full, r.gc.full_count);
    cmp("locks.acquisitions", c.lock_acquisitions, r.locks.acquisitions);
    cmp("locks.contentions", c.lock_contentions, r.locks.contentions);
    return os.str();
}

/** Per-layer account (--trace 1). */
int
traceLayers(const Options &o, const Workload &w,
            const stats::StatSnapshot &ref)
{
    const std::uint64_t seed = poolSeed(o.seed);
    std::vector<Arm> arms;
    const auto addArm = [&](const std::string &name, unsigned observers,
                            bool traced) {
        Arm a;
        a.name = name;
        a.observers = observers;
        a.traced = traced;
        arms.push_back(std::move(a));
    };
    // "config" is the workload as --trace 0 runs it; "base" is the same
    // configuration with no observer armed (config itself when the
    // workload arms none). Base runs first: its first run is the plain
    // run every other arm's primary stats must reproduce.
    if (w.observers != 0)
        addArm("base", 0, false);
    addArm("config", w.observers, false);
    addArm("traced", w.observers, true);
    addArm("profile", kProfile, false);
    if (w.observers & kCheck)
        addArm("check", kCheck, false);
    if (w.observers & kTimeline)
        addArm("timeline", kTimeline, false);
    if (w.observers & kSampler)
        addArm("sampler", kSampler, false);

    std::uint64_t min_heap = 0;
    for (Arm &a : arms) {
        a.runner = std::make_unique<core::ExperimentRunner>(
            makeConfig(w, seed, a.observers, o.scratch_dir));
        min_heap = a.runner->minHeapRequirement(w.app);
    }

    SeamTally tally;
    LayerProbe probe;
    const core::AppFactory traced_factory = [&tally, &w] {
        return std::make_unique<TimedApp>(
            workload::makeDacapoApp(w.app, w.scale), tally);
    };
    const core::VmAttachHook hook = [&probe](jvm::JavaVm &vm) {
        probe.attach(vm);
    };

    Verdict verdict;
    std::vector<double> next_s;
    std::optional<stats::StatSnapshot> plain;
    LayerCounts counts;
    std::uint64_t actions = 0;
    const auto runArm = [&](Arm &a, bool timed) {
        tally = {};
        probe = {};
        Sample s = a.traced ? runOnce(*a.runner, w, traced_factory, hook)
                            : runOnce(*a.runner, w);
        verdict.check(a.name, s, ref, sharedFields(a.observers, w.observers),
                      plain ? &*plain : nullptr,
                      sharedFields(a.observers, 0));
        if (!plain && s.error.empty())
            plain = snapshot(s);
        if (a.traced && s.error.empty()) {
            const std::string bad = probeMismatch(probe.counts(), s.result);
            if (!bad.empty())
                verdict.fail(a.name, "probe counts disagree:" + bad);
            counts = probe.counts();
            actions = tally.calls;
        }
        if (timed) {
            a.times.push_back(s.host_s);
            if (a.traced)
                next_s.push_back(static_cast<double>(tally.ns) / 1e9);
        }
        a.last = std::move(s);
    };

    // Round-robin so slow drift of the host hits every arm alike; the
    // first round warms up and is checked but not timed.
    for (Arm &a : arms)
        runArm(a, false);
    const auto start = Clock::now();
    while (arms.front().times.size() < kMinReps ||
           secondsSince(start) < o.seconds) {
        for (Arm &a : arms)
            runArm(a, true);
    }

    const auto find = [&arms](const std::string &name) -> const Arm * {
        for (const Arm &a : arms) {
            if (a.name == name)
                return &a;
        }
        return nullptr; // observer not armed on this workload
    };
    const auto armTime = [&find](const std::string &name) {
        const Arm *a = find(name);
        return a ? median(a->times) : 0.0;
    };
    const Sample &config = find("config")->last;
    const jvm::RunResult &r = config.result;
    const jvm::ProfileSummary &prof = find("profile")->last.result.profile;
    const double run_s = armTime("config");
    const double traced_s = armTime("traced");
    const double base_s = median(arms.front().times);
    const double next = median(next_s);
    const double observers_self = run_s - base_s;
    const double ms = static_cast<double>(units::MS);
    const auto overhead = [&](const std::string &name) {
        return ratio(armTime(name), base_s);
    };

    std::cout << "workload " << w.name << " (per layer): jscale run "
              << w.flags << " --seed " << seed << "\n  arms:";
    for (const Arm &a : arms)
        std::cout << " " << a.name << "=" << a.times.size();
    std::cout << " timed runs each (+1 warm-up)\n";
    printResult(
        verdict,
        {
            {"core.min_heap_bytes", static_cast<double>(min_heap), "B"},
            {"sim.events", static_cast<double>(r.sim_events), "count"},
            {"sim.events_per_s", ratio(static_cast<double>(r.sim_events),
                                       run_s),
             "1/s"},
            {"sim.queue_depth_max",
             static_cast<double>(counts.queue_depth_max), "count"},
            {"workload.actions", static_cast<double>(actions), "count"},
            {"workload.next_s", next, "s"},
            {"workload.next_share", ratio(next, traced_s), "ratio"},
            {"os.dispatches", static_cast<double>(counts.dispatches),
             "count"},
            {"os.ctx_switches", static_cast<double>(r.sched.context_switches),
             "count"},
            {"os.migrations", static_cast<double>(r.sched.migrations),
             "count"},
            {"os.preemptions", static_cast<double>(r.sched.preemptions),
             "count"},
            {"os.overhead_ms",
             static_cast<double>(r.sched.overhead_ticks) / ms, "sim_ms"},
            {"os.runq_wait_share",
             bucketShare(prof, jvm::WaitBucket::RunQueue), "ratio"},
            {"jvm.heap.objects", static_cast<double>(counts.objects),
             "count"},
            {"jvm.heap.bytes_mb",
             static_cast<double>(r.heap.bytes_allocated) / 1e6, "MB"},
            {"jvm.heap.survival", r.gc.nursery_survival.mean(), "ratio"},
            // The runtime counts the young pass of a full collection as
            // a minor collection too, as `jscale run` prints them.
            {"jvm.gc.minor", static_cast<double>(r.gc.minor_count), "count"},
            {"jvm.gc.full", static_cast<double>(counts.gc_full), "count"},
            {"jvm.gc.pause_share",
             ratio(static_cast<double>(r.gc_time),
                   static_cast<double>(r.wall_time)),
             "ratio"},
            {"jvm.gc.stw_wait_share",
             bucketShare(prof, jvm::WaitBucket::GcStw), "ratio"},
            {"jvm.gc.ttsp_us",
             static_cast<double>(r.gc.total_ttsp) /
                 static_cast<double>(units::US),
             "sim_us"},
            {"jvm.locks.acquisitions",
             static_cast<double>(counts.lock_acquisitions), "count"},
            {"jvm.locks.contentions",
             static_cast<double>(counts.lock_contentions), "count"},
            {"jvm.locks.handoffs", static_cast<double>(r.locks.handoffs),
             "count"},
            {"jvm.locks.wait_share",
             bucketShare(prof, jvm::WaitBucket::Lock), "ratio"},
            {"traffic.done", static_cast<double>(r.traffic.completed),
             "count"},
            {"traffic.shed", static_cast<double>(r.traffic.shed), "count"},
            {"traffic.max_queue",
             static_cast<double>(r.traffic.max_queue_depth), "count"},
            {"traffic.sojourn_p50_ms",
             static_cast<double>(r.traffic.sojourn.quantile(0.5)) / ms,
             "sim_ms"},
            {"traffic.sojourn_p99_ms",
             static_cast<double>(r.traffic.sojourn.quantile(0.99)) / ms,
             "sim_ms"},
            {"observers.base_run_s", base_s, "s"},
            {"observers.self_s", observers_self, "s"},
            {"check.overhead_x", overhead("check"), "x"},
            {"profile.overhead_x", overhead("profile"), "x"},
            {"telemetry.timeline_overhead_x", overhead("timeline"), "x"},
            {"telemetry.sampler_overhead_x", overhead("sampler"), "x"},
            {"telemetry.timeline_events",
             static_cast<double>(r.timeline_events), "count"},
            {"telemetry.timeline_mb",
             static_cast<double>(config.timeline_bytes) / 1e6, "MB"},
            {"trace.run_s", traced_s, "s"},
            {"trace.overhead_s", traced_s - run_s, "s"},
            {"residual_s", traced_s - next - observers_self, "s"},
        });
    return 0;
}

/** Re-record the reference of @p w for every seed in the pool. */
int
record(const Options &o, const Workload &w)
{
    check::GoldenFile file;
    file.config.emplace_back("workload", w.name);
    file.config.emplace_back("flags", w.flags);
    for (std::int64_t i = 0; i < kSeedCount; ++i) {
        const std::uint64_t seed = static_cast<std::uint64_t>(kSeedBase + i);
        core::ExperimentRunner runner(
            makeConfig(w, seed, w.observers, o.scratch_dir));
        const Sample s = runOnce(runner, w);
        if (!s.error.empty()) {
            std::cerr << "cannot record " << w.name << " seed " << seed
                      << ": " << s.error << "\n";
            return 1;
        }
        check::GoldenRun run;
        run.app = referenceLabel(w, seed);
        run.threads = w.threads;
        run.stats = snapshot(s);
        std::cout << run.app << ": " << s.result.sim_events
                  << " sim events\n";
        file.runs.push_back(std::move(run));
    }
    std::ofstream out(referencePath(o, w));
    check::writeGolden(out, file);
    if (!out.flush()) {
        std::cerr << "cannot write " << referencePath(o, w) << "\n";
        return 1;
    }
    return 0;
}

int
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why << "\n"
              << "usage: perfbench --workload <name> --reference <dir> "
                 "--scratch <dir> [--seed N] [--seconds N] [--trace 0|1] "
                 "[--record]\nseeds map onto "
              << kSeedBase << ".." << kSeedBase + kSeedCount - 1
              << " (held-out seed " << kHeldOutSeed << ")\nworkloads:";
    for (const Workload &w : kWorkloads)
        std::cerr << " " << w.name;
    std::cerr << "\n";
    return 2;
}

bool
parseInt(const std::string &s, std::int64_t &out)
{
    try {
        std::size_t used = 0;
        out = std::stoll(s, &used);
        return used == s.size();
    } catch (const std::exception &) {
        return false;
    }
}

int
run(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--record") {
            o.record = true;
            continue;
        }
        if (i + 1 >= argc)
            return usage("missing value for " + arg);
        const std::string val = argv[++i];
        std::int64_t n = 0;
        if (arg == "--workload") {
            o.workload = val;
        } else if (arg == "--reference") {
            o.reference_dir = val;
        } else if (arg == "--scratch") {
            o.scratch_dir = val;
        } else if (arg == "--seed" && parseInt(val, n)) {
            o.seed = n;
        } else if (arg == "--seconds" && parseInt(val, n) && n >= 1 &&
                   n <= 3600) {
            o.seconds = static_cast<int>(n);
        } else if (arg == "--trace" && (val == "0" || val == "1")) {
            o.trace = val == "1";
        } else {
            return usage("bad argument " + arg + " " + val);
        }
    }
    const Workload *w = nullptr;
    for (const Workload &cand : kWorkloads) {
        if (o.workload == cand.name)
            w = &cand;
    }
    if (w == nullptr)
        return usage("unknown workload '" + o.workload + "'");
    if (o.reference_dir.empty() || o.scratch_dir.empty())
        return usage("--reference and --scratch are required");
    std::error_code ec;
    std::filesystem::create_directories(o.scratch_dir, ec);

    if (o.record)
        return record(o, *w);

    check::GoldenFile file;
    std::string err;
    if (!check::readGoldenFile(referencePath(o, *w), file, err)) {
        std::cerr << "perfbench: reference: " << err << "\n";
        return 2;
    }
    const std::string label = referenceLabel(*w, poolSeed(o.seed));
    for (const check::GoldenRun &ref : file.runs) {
        if (ref.app == label) {
            return o.trace ? traceLayers(o, *w, ref.stats)
                           : measure(o, *w, ref.stats);
        }
    }
    std::cerr << "perfbench: no reference recorded for " << label << "\n";
    return 2;
}

} // namespace
} // namespace jscale::perfbench

int
main(int argc, char **argv)
{
    return jscale::perfbench::run(argc, argv);
}
