#include "core/report.hh"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "base/logging.hh"
#include "core/analyze.hh"
#include "trace/trace.hh"

namespace jscale::core {

namespace {

std::string
threadsLabel(const jvm::RunResult &r)
{
    return std::to_string(r.threads) + "T/" + std::to_string(r.cores) +
           "C";
}

/** Sweep points that actually ran (neither shard-skipped nor failed). */
std::vector<jvm::RunResult>
measuredRuns(const std::vector<jvm::RunResult> &sweep)
{
    std::vector<jvm::RunResult> out;
    for (const auto &r : sweep) {
        if (measured(r))
            out.push_back(r);
    }
    return out;
}

/**
 * A sweep table: @p columns after the leading app and threads columns,
 * one row per point. @p cells renders a measured point given the app's
 * measured points (the anchor of its speedups and ratios); an
 * unmeasured point is a "-" row ending in its status.
 */
template <typename CellsFn>
ReportTable
sweepTable(std::string title, std::vector<Column> columns,
           const SweepSet &sweeps, CellsFn cells)
{
    columns.insert(columns.begin(), {{"app", "app"},
                                     {"threads", "threads"}});
    ReportTable t(std::move(title), std::move(columns));
    for (const auto &[app, sweep] : sweeps) {
        jscale_assert(!sweep.empty(), "empty sweep for ", app);
        const auto ran = measuredRuns(sweep);
        for (const auto &r : sweep) {
            std::vector<Cell> row = {Cell::label(app),
                                     Cell::count(r.threads)};
            if (!measured(r)) {
                t.missingRow(std::move(row),
                             Cell::label(pointStatus(r)));
                continue;
            }
            for (Cell &c : cells(ran, r))
                row.push_back(std::move(c));
            t.row(std::move(row));
        }
    }
    return t;
}

} // namespace

bool
measured(const jvm::RunResult &r)
{
    return !r.skipped && !r.failed();
}

std::string
pointStatus(const jvm::RunResult &r)
{
    if (r.failed())
        return "failed";
    if (r.skipped)
        return "skipped";
    return "ok";
}

void
pointRow(ReportTable &t, bool ran, std::vector<Cell> cells,
         std::vector<Cell> lead)
{
    if (ran) {
        t.row(std::move(cells));
        return;
    }
    t.row(std::move(cells), Form::Csv);
    t.missingRow(std::move(lead));
}

ReportTable
scalabilityTable(const SweepSet &sweeps)
{
    return sweepTable(
        "E1: execution time and speedup vs. threads "
        "(threads == enabled cores, heap = 3x min)\n",
        {{"wall", "wall_ns"},
         {"speedup", "speedup"},
         {"mutator", "mutator_ns"},
         {"gc", "gc_ns"},
         {"gc-share", "gc_share"},
         {"class", "scalable"}},
        sweeps, [](const auto &ran, const jvm::RunResult &r) {
            const bool two = ran.size() >= 2;
            const bool scalable =
                two && ScalabilityAnalyzer::isScalable(ran);
            return std::vector<Cell>{
                Cell::ticks(r.wall_time),
                Cell::fixed(ScalabilityAnalyzer::speedup(ran.front(), r),
                            2, 4),
                Cell::ticks(r.mutatorTime()), Cell::ticks(r.gc_time),
                Cell::share(ScalabilityAnalyzer::gcShare(r)),
                Cell{!two ? "n/a"
                          : scalable ? "scalable" : "non-scalable",
                     scalable ? "1" : "0"}};
        });
}

ReportTable
workloadDistributionTable(const SweepSet &sweeps)
{
    return sweepTable(
        "E2: workload distribution across threads "
        "(effective workers cover 90% of tasks)\n",
        {{"tasks", "tasks"},
         {"eff-workers", "effective_workers"},
         {"top-share", "top_share"},
         {"task-cv", "task_cv"}},
        sweeps, [](const auto &, const jvm::RunResult &r) {
            return std::vector<Cell>{
                Cell::count(r.total_tasks),
                Cell::count(ScalabilityAnalyzer::effectiveWorkers(r)),
                Cell::share(ScalabilityAnalyzer::topThreadShare(r)),
                Cell::fixed(ScalabilityAnalyzer::taskDistributionCv(r), 2,
                            4)};
        });
}

namespace {

/** E3/E4: one lock counter per point, relative to the first point. */
ReportTable
lockSeriesTable(const SweepSet &sweeps, const char *title,
                const char *counter,
                std::uint64_t jvm::LockTotals::*field)
{
    return sweepTable(
        title,
        {{counter, counter}, {"vs-min-threads", "", Form::Text}}, sweeps,
        [field](const auto &ran, const jvm::RunResult &r) {
            const double base = std::max<double>(
                1.0, static_cast<double>(ran.front().locks.*field));
            const std::uint64_t v = r.locks.*field;
            return std::vector<Cell>{
                Cell::count(v),
                Cell::label(
                    formatFixed(static_cast<double>(v) / base, 2) + "x")};
        });
}

} // namespace

ReportTable
lockAcquisitionTable(const SweepSet &sweeps)
{
    return lockSeriesTable(sweeps,
                           "E3 (Fig. 1a): lock acquisitions vs. threads\n",
                           "acquisitions", &jvm::LockTotals::acquisitions);
}

ReportTable
lockContentionTable(const SweepSet &sweeps)
{
    return lockSeriesTable(
        sweeps, "E4 (Fig. 1b): lock contention instances vs. threads\n",
        "contentions", &jvm::LockTotals::contentions);
}

ReportTable
lifespanCdfTable(const std::string &app,
                 const std::vector<jvm::RunResult> &sweep)
{
    // The text pivots thresholds against points; the CSV is long-form.
    // The two forms share no column, so every row is one-form.
    std::vector<Column> columns = {{"lifespan <", "", Form::Text}};
    for (const auto &r : sweep)
        columns.push_back({threadsLabel(r), "", Form::Text});
    for (const char *name :
         {"app", "threads", "threshold_bytes", "fraction_below"})
        columns.push_back({"", name, Form::Csv});
    ReportTable t("Object-lifespan CDF for " + app +
                      " (fraction of objects with lifespan < threshold; "
                      "lifespan = bytes allocated between birth and "
                      "death)\n",
                  std::move(columns));
    const auto thresholds = trace::paperLifespanThresholds();
    for (const auto threshold : thresholds) {
        std::vector<Cell> row = {Cell::label(formatBytes(threshold))};
        for (const auto &r : sweep) {
            row.push_back(
                measured(r)
                    ? Cell::share(r.heap.lifespan.fractionBelow(threshold))
                    : Cell::missing());
        }
        t.row(std::move(row), Form::Text);
    }
    for (const auto &r : measuredRuns(sweep)) {
        for (const auto threshold : thresholds) {
            t.row({Cell::label(app), Cell::count(r.threads),
                   Cell::count(threshold),
                   Cell::share(r.heap.lifespan.fractionBelow(threshold))},
                  Form::Csv);
        }
    }
    return t;
}

ReportTable
mutatorGcTable(const SweepSet &sweeps)
{
    return sweepTable(
        "E7 (Fig. 2): distribution of mutator and GC times\n",
        {{"wall", "wall_ns"},
         {"mutator", "mutator_ns"},
         {"gc", "gc_ns"},
         {"gc-share", "gc_share"},
         {"mutator-speedup", "", Form::Text},
         {"minor-gcs", "minor_gcs"},
         {"full-gcs", "full_gcs"}},
        sweeps, [](const auto &ran, const jvm::RunResult &r) {
            return std::vector<Cell>{
                Cell::ticks(r.wall_time), Cell::ticks(r.mutatorTime()),
                Cell::ticks(r.gc_time),
                Cell::share(ScalabilityAnalyzer::gcShare(r)),
                Cell::fixed(
                    ScalabilityAnalyzer::mutatorSpeedup(ran.front(), r), 2,
                    2),
                Cell::count(r.gc.minor_count),
                Cell::count(r.gc.full_count)};
        });
}

ReportTable
gcSurvivalTable(const SweepSet &sweeps)
{
    ReportTable t = sweepTable(
        "E8: GC effectiveness vs. threads (nursery survival drives "
        "copy cost and promotions)\n",
        {{"survival", "survival"},
         {"copied", "copied_bytes"},
         {"promoted", "promoted_bytes"},
         {"minor-gcs", "minor_gcs"},
         {"full-gcs", "full_gcs"},
         {"mean-pause", "mean_pause_ns"},
         {"ttsp", "ttsp_ns"}},
        sweeps, [](const auto &, const jvm::RunResult &r) {
            return std::vector<Cell>{
                Cell::share(r.gc.nursery_survival.mean()),
                Cell::bytes(r.gc.copied_bytes),
                Cell::bytes(r.gc.promoted_bytes),
                Cell::count(r.gc.minor_count),
                Cell::count(r.gc.full_count),
                Cell::meanTicks(r.gc.minor_pauses.mean()),
                Cell::ticks(r.gc.total_ttsp)};
        });
    std::ostringstream os;
    os << "(p50/p99 pauses per app at the largest setting: ";
    bool first = true;
    for (const auto &[app, sweep] : sweeps) {
        const auto &hist = sweep.back().gc.pause_hist;
        if (hist.totalWeight() == 0)
            continue;
        os << (first ? "" : "; ") << app << " "
           << formatTicks(hist.percentile(0.5)) << "/"
           << formatTicks(hist.percentile(0.99));
        first = false;
    }
    os << ")\n";
    t.footer(os.str());
    return t;
}

namespace {

/** Mean per-mutator suspend components of one run. */
struct SuspendMeans
{
    double ready = 0.0;
    double blocked = 0.0;
    double cpu = 0.0;
};

SuspendMeans
suspendMeans(const jvm::RunResult &r)
{
    SuspendMeans m;
    std::size_t n = 0;
    for (const auto &ts : r.thread_summaries) {
        if (ts.kind != os::ThreadKind::Mutator)
            continue;
        m.ready += static_cast<double>(ts.ready_time);
        m.blocked += static_cast<double>(ts.blocked_time);
        m.cpu += static_cast<double>(ts.cpu_time);
        ++n;
    }
    if (n > 0) {
        m.ready /= static_cast<double>(n);
        m.blocked /= static_cast<double>(n);
        m.cpu /= static_cast<double>(n);
    }
    return m;
}

} // namespace

ReportTable
suspendWaitTable(const SweepSet &sweeps)
{
    return sweepTable(
        "E14: per-mutator suspend wait vs. threads (the Sec. III-B "
        "interference mechanism)\n",
        {{"mean-ready-wait", "mean_ready_ns"},
         {"mean-lock-block", "mean_blocked_ns"},
         {"suspend/cpu", "suspend_over_cpu"},
         {"lifespan<1KiB", "lifespan_lt_1k"}},
        sweeps, [](const auto &, const jvm::RunResult &r) {
            const SuspendMeans m = suspendMeans(r);
            return std::vector<Cell>{
                Cell::meanTicks(m.ready), Cell::meanTicks(m.blocked),
                Cell::fixed(m.cpu > 0 ? (m.ready + m.blocked) / m.cpu
                                      : 0.0,
                            3, 4),
                Cell::share(r.heap.lifespan.fractionBelow(1024))};
        });
}

void
printThreadTable(std::ostream &os, const jvm::RunResult &r)
{
    TextTable t;
    t.header({"thread", "kind", "tasks", "cpu", "ready-wait",
              "lock-block", "sleep", "allocs", "alloc-bytes",
              "dispatches"});
    for (const auto &ts : r.thread_summaries) {
        const char *kind = ts.kind == os::ThreadKind::Mutator
                               ? "mutator"
                               : ts.kind == os::ThreadKind::Helper
                                     ? "helper"
                                     : "daemon";
        t.row({ts.name, kind, std::to_string(ts.tasks_completed),
               formatTicks(ts.cpu_time), formatTicks(ts.ready_time),
               formatTicks(ts.blocked_time), formatTicks(ts.sleep_time),
               std::to_string(ts.allocations),
               formatBytes(ts.bytes_allocated),
               std::to_string(ts.dispatches)});
    }
    t.print(os);
}

ReportTable
uslTable(const std::vector<UslSeries> &series)
{
    ReportTable t("E17: USL fit per app: "
                  "S(n) = n / (1 + sigma*(n-1) + kappa*n*(n-1))\n",
                  {{"app", "app"},
                   {"sigma", "sigma"},
                   {"kappa", "kappa"},
                   {"n*", "", Form::Text},
                   {"", "n_star", Form::Csv},
                   {"rec-threads", "recommended_threads"},
                   {"peak-pred", "predicted_peak"},
                   {"knee-obs", "observed_knee"},
                   {"peak-obs", "observed_peak"},
                   {"rms", "rms_residual"},
                   {"knee-class", "knee_class"}});
    for (const auto &s : series) {
        const control::UslFit fit = control::UslModel::fit(s.points);
        double max_n = 0.0;
        double knee = 0.0; // thread count of the best observed speedup
        double peak = 0.0; // best observed speedup
        for (const auto &p : s.points) {
            max_n = std::max(max_n, p.n);
            if (p.speedup > peak) { // strict: earliest point wins ties
                peak = p.speedup;
                knee = p.n;
            }
        }
        const Cell observed_knee = Cell::fixed(knee, 0, 0);
        const Cell observed_peak = Cell::fixed(peak, 2, 4);
        if (!fit.valid) {
            const Cell none = Cell::missing();
            t.row({Cell::label(s.app), none, none, none, none, none, none,
                   observed_knee, observed_peak, none,
                   Cell::label("unfit")});
            continue;
        }
        std::uint32_t rec = 0;
        std::string cls;
        if (fit.n_star <= 0.0 || fit.n_star >= max_n) {
            // No interior optimum within the measured range: the model
            // says keep adding threads up to what was actually swept.
            rec = static_cast<std::uint32_t>(std::lround(max_n));
            cls = "beyond-sweep";
        } else {
            rec = static_cast<std::uint32_t>(
                std::max<long>(1, std::lround(fit.n_star)));
            cls = "in-sweep";
        }
        t.row({Cell::label(s.app), Cell::fixed(fit.sigma, 4, 6),
               Cell::fixed(fit.kappa, 6, 6),
               fit.n_star > 0.0 ? Cell::fixed(fit.n_star, 1, 1)
                                : Cell::missing(),
               Cell::fixed(fit.n_star, 2, 2), Cell::count(rec),
               Cell::fixed(fit.peak_speedup, 2, 4), observed_knee,
               observed_peak, Cell::fixed(fit.rms_residual, 3, 4),
               Cell::label(cls)});
    }
    return t;
}

ReportTable
uslTable(const SweepSet &sweeps)
{
    // Absolute-thread-count speedups over each sweep's measured points.
    std::vector<UslSeries> series;
    series.reserve(sweeps.size());
    for (const auto &[app, sweep] : sweeps) {
        UslSeries s{app, {}};
        const auto ran = measuredRuns(sweep);
        for (const auto &r : ran) {
            s.points.push_back(
                {static_cast<double>(r.threads),
                 ScalabilityAnalyzer::speedup(ran.front(), r)});
        }
        series.push_back(std::move(s));
    }
    return uslTable(series);
}

void
printGovernedComparisonTable(std::ostream &os, const SweepSet &off,
                             const SweepSet &on)
{
    os << "Governed vs. ungoverned wall time "
          "(positive delta = governed faster)\n";
    TextTable t;
    t.header({"app", "threads", "wall-off", "wall-on", "delta", "policy",
              "target", "parks"});
    for (const auto &[app, sweep_on] : on) {
        const auto it = off.find(app);
        if (it == off.end())
            continue;
        for (const auto &r_on : sweep_on) {
            const jvm::RunResult *r_off = nullptr;
            for (const auto &r : it->second) {
                if (r.threads == r_on.threads) {
                    r_off = &r;
                    break;
                }
            }
            if (r_off == nullptr)
                continue;
            const double delta =
                static_cast<double>(r_off->wall_time) /
                    static_cast<double>(r_on.wall_time) -
                1.0;
            t.row({app, std::to_string(r_on.threads),
                   formatTicks(r_off->wall_time),
                   formatTicks(r_on.wall_time), formatPercent(delta),
                   r_on.governor.policy,
                   std::to_string(r_on.governor.final_target),
                   std::to_string(r_on.governor.parks)});
        }
    }
    t.print(os);
}

stats::StatSnapshot
runStatSnapshot(const jvm::RunResult &r)
{
    stats::StatSnapshot s;
    s.add("threads", r.threads);
    s.add("cores", r.cores);
    s.add("heap_capacity", static_cast<double>(r.heap_capacity), "B");
    s.add("wall_time", static_cast<double>(r.wall_time), "ticks");
    s.add("gc_time", static_cast<double>(r.gc_time), "ticks");
    s.add("mutator_time", static_cast<double>(r.mutatorTime()), "ticks");
    s.add("total_tasks", r.total_tasks);
    s.add("sim_events", r.sim_events);

    s.add("gc.minor_count", r.gc.minor_count);
    s.add("gc.full_count", r.gc.full_count);
    s.add("gc.local_count", r.gc.local_count);
    s.add("gc.concurrent_cycles", r.gc.concurrent_cycles);
    s.add("gc.concurrent_failures", r.gc.concurrent_failures);
    s.add("gc.remark_count", r.gc.remark_count);
    s.add("gc.local_pause", static_cast<double>(r.gc.local_pause),
          "ticks");
    s.add("gc.total_pause", static_cast<double>(r.gc.total_pause),
          "ticks");
    s.add("gc.total_ttsp", static_cast<double>(r.gc.total_ttsp), "ticks");
    s.add("gc.copied_bytes", static_cast<double>(r.gc.copied_bytes), "B");
    s.add("gc.promoted_bytes", static_cast<double>(r.gc.promoted_bytes),
          "B");
    s.add("gc.reclaimed_bytes",
          static_cast<double>(r.gc.reclaimed_bytes), "B");
    s.add("gc.young_resizes", r.gc.young_resizes);
    s.addSummary("gc.minor_pause", r.gc.minor_pauses, "ticks");
    s.addSummary("gc.full_pause", r.gc.full_pauses, "ticks");
    s.addSummary("gc.nursery_survival", r.gc.nursery_survival);
    s.add("gc.events", static_cast<double>(r.gc.events.size()));

    s.add("heap.objects_allocated", r.heap.objects_allocated);
    s.add("heap.objects_died", r.heap.objects_died);
    s.add("heap.bytes_allocated",
          static_cast<double>(r.heap.bytes_allocated), "B");
    s.add("heap.bytes_died", static_cast<double>(r.heap.bytes_died), "B");
    s.add("heap.peak_live_bytes",
          static_cast<double>(r.heap.peak_live_bytes), "B");
    s.add("heap.tlab_refills", r.heap.tlab_refills);
    s.add("heap.tlab_waste", static_cast<double>(r.heap.tlab_waste), "B");
    s.add("heap.lifespan_weight",
          static_cast<double>(r.heap.lifespan.totalWeight()));
    s.add("heap.lifespan_p50",
          static_cast<double>(r.heap.lifespan.percentile(0.5)), "B");

    s.add("locks.acquisitions", r.locks.acquisitions);
    s.add("locks.contentions", r.locks.contentions);
    s.add("locks.block_time", static_cast<double>(r.locks.block_time),
          "ticks");
    s.add("locks.monitors", r.locks.monitors);
    s.add("locks.biased", r.locks.biased_acquisitions);
    s.add("locks.thin", r.locks.thin_acquisitions);
    s.add("locks.fat", r.locks.fat_acquisitions);
    s.add("locks.revocations", r.locks.bias_revocations);
    s.add("locks.inflations", r.locks.inflations);
    s.add("locks.waits", r.locks.waits);
    s.add("locks.notifies", r.locks.notifies);
    s.add("locks.handoffs", r.locks.handoffs);
    s.add("locks.barged_grants", r.locks.barged_grants);
    s.add("locks.waiters_passivated", r.locks.waiters_passivated);
    s.add("locks.waiters_reactivated", r.locks.waiters_reactivated);
    s.add("locks.coherence_penalty",
          static_cast<double>(r.locks.coherence_penalty), "ticks");
    s.add("locks.circulation_avg",
          r.locks.handoffs
              ? static_cast<double>(r.locks.circulation_sum) /
                    static_cast<double>(r.locks.handoffs)
              : 0.0);
    s.add("locks.block_p50",
          static_cast<double>(r.locks.block_hist.quantile(0.5)), "ticks");
    s.add("locks.block_p99",
          static_cast<double>(r.locks.block_hist.quantile(0.99)),
          "ticks");

    s.add("sched.dispatches", r.sched.dispatches);
    s.add("sched.context_switches", r.sched.context_switches);
    s.add("sched.migrations", r.sched.migrations);
    s.add("sched.steals", r.sched.steals);
    s.add("sched.preemptions", r.sched.preemptions);
    s.add("sched.admission_parks", r.sched.admission_parks);
    s.add("sched.admission_unparks", r.sched.admission_unparks);
    s.add("sched.busy_ticks", static_cast<double>(r.sched.busy_ticks),
          "ticks");
    s.add("sched.overhead_ticks",
          static_cast<double>(r.sched.overhead_ticks), "ticks");

    s.add("gov.enabled", r.governor.enabled ? 1 : 0);
    s.add("gov.final_target", r.governor.final_target);
    s.add("gov.min_target", r.governor.min_target);
    s.add("gov.max_target", r.governor.max_target);
    s.add("gov.decisions", r.governor.decisions);
    s.add("gov.parks", r.governor.parks);
    s.add("gov.unparks", r.governor.unparks);
    s.add("gov.usl_sigma", r.governor.usl_sigma);
    s.add("gov.usl_kappa", r.governor.usl_kappa);
    s.add("gov.usl_nstar", r.governor.usl_nstar);

    s.add("faults.injections", r.faults.injections);
    s.add("faults.recoveries", r.faults.recoveries);
    s.add("faults.cores_offlined", r.faults.cores_offlined);
    s.add("faults.cores_onlined", r.faults.cores_onlined);
    s.add("faults.slowdowns", r.faults.slowdowns);
    s.add("faults.preempt_bursts", r.faults.preempt_bursts);
    s.add("faults.lock_holders_preempted",
          r.faults.lock_holders_preempted);
    s.add("faults.mutators_killed", r.faults.mutators_killed);
    s.add("faults.mutators_stalled", r.faults.mutators_stalled);
    s.add("faults.heap_spikes", r.faults.heap_spikes);
    s.add("faults.gc_worker_losses", r.faults.gc_worker_losses);
    s.add("faults.tasks_reassigned", r.faults.tasks_reassigned);

    for (std::size_t i = 0; i < r.thread_summaries.size(); ++i) {
        const auto &ts = r.thread_summaries[i];
        const std::string p = "thread." + std::to_string(i) + ".";
        s.add(p + "cpu_time", static_cast<double>(ts.cpu_time), "ticks");
        s.add(p + "ready_time", static_cast<double>(ts.ready_time),
              "ticks");
        s.add(p + "blocked_time", static_cast<double>(ts.blocked_time),
              "ticks");
        s.add(p + "sleep_time", static_cast<double>(ts.sleep_time),
              "ticks");
        s.add(p + "dispatches", ts.dispatches);
        s.add(p + "migrations", ts.migrations);
        s.add(p + "tasks_completed", ts.tasks_completed);
        s.add(p + "allocations", ts.allocations);
        s.add(p + "bytes_allocated",
              static_cast<double>(ts.bytes_allocated), "B");
    }
    return s;
}

namespace {

/** A tail quantile of @p h; "-" in text when @p h is empty. */
Cell
tailCell(const stats::LatencyHistogram &h, Ticks v)
{
    Cell c = Cell::ticks(v);
    if (h.count() == 0)
        c.text = "-";
    return c;
}

/** Wait-state bucket @p i's name. */
std::string
bucketName(std::size_t i)
{
    return jvm::waitBucketName(static_cast<jvm::WaitBucket>(i));
}

} // namespace

ReportTable
blameTable(const jvm::RunResult &r)
{
    const jvm::ProfileSummary &p = r.profile;
    std::ostringstream title;
    title << "wait-state blame: " << r.app_name << " @ " << r.threads
          << " threads / " << r.cores << " cores\n";
    if (!p.enabled)
        title << "  (profiling disabled; run with --profile)\n";
    ReportTable t(title.str(), {{"", "app", Form::Csv},
                                {"", "threads", Form::Csv},
                                {"bucket", "bucket"},
                                {"total", "total_ns"},
                                {"share", "share"},
                                {"", "tasks", Form::Csv},
                                {"p50", "p50_ns"},
                                {"p90", "p90_ns"},
                                {"p99", "p99_ns"},
                                {"p999", "p999_ns"},
                                {"max", "max_ns"}});
    const Ticks total = p.total();
    const double denom = total > 0 ? static_cast<double>(total) : 1.0;
    // Empty buckets (and, unprofiled, every row) appear in CSV only,
    // so the CSV's row set is configuration-independent.
    const auto add = [&](Cell bucket, Ticks bucket_total,
                         const stats::LatencyHistogram &h, double share,
                         bool text) {
        t.row({Cell::label(r.app_name), Cell::count(r.threads),
               std::move(bucket), Cell::ticks(bucket_total),
               Cell::share(share, 6), Cell::count(h.count()),
               tailCell(h, h.quantile(0.50)), tailCell(h, h.quantile(0.90)),
               tailCell(h, h.quantile(0.99)),
               tailCell(h, h.quantile(0.999)), tailCell(h, h.max())},
              text && p.enabled ? Form::Both : Form::Csv);
    };
    for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i) {
        add(Cell::label(bucketName(i)), p.bucket_total[i],
            p.bucket_hist[i],
            static_cast<double>(p.bucket_total[i]) / denom,
            p.bucket_total[i] != 0);
    }
    add(Cell{"task wall", "task-wall"}, total, p.latency,
        total > 0 ? 1.0 : 0.0, true);
    if (!p.enabled)
        return t;

    std::ostringstream os;
    os << "  tasks " << p.tasks << " (" << p.tasks_discarded
       << " discarded), dominant wait: "
       << jvm::waitBucketName(p.dominantWait()) << "\n";
    if (!p.slowest.empty()) {
        os << "slowest tasks:\n";
        TextTable st;
        st.header({"task", "thread", "wall", "cpu", "dominant wait",
                   "wait share"});
        for (const jvm::SlowTaskRecord &rec : p.slowest) {
            std::size_t worst = 1;
            for (std::size_t i = 1; i < jvm::kWaitBucketCount; ++i) {
                if (rec.buckets[i] > rec.buckets[worst])
                    worst = i;
            }
            const Ticks wall = rec.wall();
            st.row({std::to_string(rec.task),
                    std::to_string(rec.thread), formatTicks(wall),
                    formatTicks(rec.buckets[0]), bucketName(worst),
                    formatPercent(
                        wall > 0 ? static_cast<double>(wall -
                                                       rec.buckets[0]) /
                                       static_cast<double>(wall)
                                 : 0.0)});
        }
        st.print(os);
    }
    if (!p.lock_waits.empty()) {
        os << "hottest monitors (by task lock-wait):\n";
        TextTable lt;
        lt.header({"monitor", "wait", "blocks"});
        for (const jvm::MonitorWaitTotal &m : p.lock_waits) {
            lt.row({std::to_string(m.monitor), formatTicks(m.wait),
                    std::to_string(m.blocks)});
        }
        lt.print(os);
    }
    t.footer(os.str());
    return t;
}

void
writeProfileHistogramCsv(std::ostream &os, const jvm::RunResult &r)
{
    const jvm::ProfileSummary &p = r.profile;
    CsvWriter csv(os);
    csv.row({"app", "threads", "histogram", "bucket_index",
             "lower_edge_ns", "count"});
    const auto emit = [&](const std::string &name,
                          const stats::LatencyHistogram &h) {
        for (std::size_t i = 0; i < stats::LatencyHistogram::kBuckets;
             ++i) {
            if (h.bucket(i) == 0)
                continue;
            csv.rowOf(r.app_name, r.threads, name, i,
                      stats::LatencyHistogram::bucketLowerEdge(i),
                      h.bucket(i));
        }
    };
    emit("task-wall", p.latency);
    for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i)
        emit(bucketName(i), p.bucket_hist[i]);
}

ReportTable
trafficTable(const std::vector<jvm::RunResult> &runs)
{
    std::vector<Column> columns = {{"app", "app"},
                                   {"tenant", "tenant"},
                                   {"threads", "threads"},
                                   {"", "arrival_spec", Form::Csv},
                                   {"arrivals", "arrivals"},
                                   {"", "admitted", Form::Csv},
                                   {"shed", "shed"},
                                   {"", "dispatched", Form::Csv},
                                   {"done", "completed"},
                                   {"maxq", "max_queue_depth"},
                                   {"p50", "sojourn_p50_ns"},
                                   {"p99", "sojourn_p99_ns"},
                                   {"p999", "sojourn_p999_ns"},
                                   {"queue p99", "queueing_p99_ns"},
                                   {"svc p99", "service_p99_ns"}};
    for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i)
        columns.push_back({"", "svc_" + bucketName(i) + "_ns", Form::Csv});
    ReportTable t("open-loop traffic: per-request sojourn = queueing + "
                  "attributed service\n",
                  std::move(columns));

    // Text-only detail: each run's service time by wait state, as a
    // share of its attributed service.
    TextTable d;
    d.header({"app", "tenant", "arrival spec", "cpu", "runq", "ttsp",
              "gc-stw", "lock", "channel", "governor"});
    for (const jvm::RunResult &r : runs) {
        if (!r.traffic.enabled)
            continue;
        const jvm::TrafficSummary &s = r.traffic;
        std::vector<Cell> row = {
            Cell::label(r.app_name), Cell::count(s.tenant),
            Cell::count(r.threads), Cell::label(s.arrival_spec),
            Cell::count(s.arrivals), Cell::count(s.admitted),
            Cell::count(s.shed), Cell::count(s.dispatched),
            Cell::count(s.completed), Cell::count(s.max_queue_depth),
            Cell::ticks(s.sojourn.quantile(0.50)),
            Cell::ticks(s.sojourn.quantile(0.99)),
            Cell::ticks(s.sojourn.quantile(0.999)),
            Cell::ticks(s.queueing.quantile(0.99)),
            Cell::ticks(s.service.quantile(0.99))};
        for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i)
            row.push_back(Cell::count(s.service_bucket_total[i]));
        t.row(std::move(row));

        std::vector<std::string> shares = {
            r.app_name, std::to_string(s.tenant), s.arrival_spec};
        const Ticks service = s.serviceBucketTotal();
        for (const jvm::WaitBucket b :
             {jvm::WaitBucket::Cpu, jvm::WaitBucket::RunQueue,
              jvm::WaitBucket::Ttsp, jvm::WaitBucket::GcStw,
              jvm::WaitBucket::Lock, jvm::WaitBucket::Channel,
              jvm::WaitBucket::Governor}) {
            shares.push_back(
                service == 0
                    ? "-"
                    : formatFixed(
                          100.0 *
                              static_cast<double>(
                                  s.service_bucket_total
                                      [static_cast<std::size_t>(b)]) /
                              static_cast<double>(service),
                          1) +
                          "%");
        }
        d.row(std::move(shares));
    }
    t.footer("\nservice-time decomposition (share of attributed "
             "service)\n" +
             d.str());
    return t;
}

void
printRunSummary(std::ostream &os, const jvm::RunResult &r)
{
    os << "== " << r.app_name << " @ " << r.threads << " threads / "
       << r.cores << " cores, heap " << formatBytes(r.heap_capacity)
       << " ==\n";
    TextTable t;
    t.header({"metric", "value"});
    t.align(1, TextTable::Align::Right);
    t.row({"wall time", formatTicks(r.wall_time)});
    t.row({"mutator time", formatTicks(r.mutatorTime())});
    t.row({"gc time", formatTicks(r.gc_time)});
    t.row({"gc share", formatPercent(ScalabilityAnalyzer::gcShare(r))});
    t.row({"minor / full GCs", std::to_string(r.gc.minor_count) + " / " +
                                   std::to_string(r.gc.full_count)});
    t.row({"objects allocated", std::to_string(r.heap.objects_allocated)});
    t.row({"bytes allocated", formatBytes(r.heap.bytes_allocated)});
    t.row({"peak live", formatBytes(r.heap.peak_live_bytes)});
    t.row({"nursery survival",
           formatPercent(r.gc.nursery_survival.mean())});
    t.row({"lock acquisitions", std::to_string(r.locks.acquisitions)});
    t.row({"lock contentions", std::to_string(r.locks.contentions)});
    t.row({"tasks completed", std::to_string(r.total_tasks)});
    t.row({"effective workers",
           std::to_string(ScalabilityAnalyzer::effectiveWorkers(r))});
    t.row({"lifespan < 1 KiB",
           formatPercent(r.heap.lifespan.fractionBelow(1024))});
    t.row({"lock block time", formatTicks(r.locks.block_time)});
    t.row({"ttsp total", formatTicks(r.gc.total_ttsp)});
    t.row({"ctx switches", std::to_string(r.sched.context_switches)});
    t.row({"migrations", std::to_string(r.sched.migrations)});
    t.row({"preemptions", std::to_string(r.sched.preemptions)});
    t.row({"sched overhead", formatTicks(r.sched.overhead_ticks)});
    if (r.governor.enabled) {
        t.row({"governor policy", r.governor.policy});
        t.row({"governor target",
               std::to_string(r.governor.final_target) + " (seen " +
                   std::to_string(r.governor.min_target) + "-" +
                   std::to_string(r.governor.max_target) + ")"});
        t.row({"admission parks",
               std::to_string(r.governor.parks) + " / " +
                   std::to_string(r.governor.unparks) + " unparks"});
    }
    if (r.faults.any()) {
        t.row({"fault injections",
               std::to_string(r.faults.injections) + " (" +
                   std::to_string(r.faults.recoveries) + " recovered)"});
        t.row({"cores offlined",
               std::to_string(r.faults.cores_offlined) + " / " +
                   std::to_string(r.faults.cores_onlined) +
                   " re-onlined"});
        t.row({"mutators killed",
               std::to_string(r.faults.mutators_killed) + " (" +
                   std::to_string(r.faults.tasks_reassigned) +
                   " tasks reassigned)"});
        t.row({"mutators stalled",
               std::to_string(r.faults.mutators_stalled)});
        t.row({"lock holders preempted",
               std::to_string(r.faults.lock_holders_preempted)});
        t.row({"heap spikes", std::to_string(r.faults.heap_spikes)});
        t.row({"gc worker losses",
               std::to_string(r.faults.gc_worker_losses)});
    }
    if (r.profile.enabled) {
        t.row({"profiled tasks",
               std::to_string(r.profile.tasks) + " (" +
                   std::to_string(r.profile.tasks_discarded) +
                   " discarded)"});
        t.row({"dominant wait",
               jvm::waitBucketName(r.profile.dominantWait())});
        t.row({"task wall p50 / p99",
               formatTicks(r.profile.latency.quantile(0.5)) + " / " +
                   formatTicks(r.profile.latency.quantile(0.99))});
    }
    for (const auto &err : r.artifact_errors)
        t.row({"artifact error", err});
    t.row({"sim events", std::to_string(r.sim_events)});
    t.print(os);
}

} // namespace jscale::core
