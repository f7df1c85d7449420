#include "core/blame.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "base/logging.hh"
#include "base/output.hh"
#include "core/report.hh"

namespace jscale::core {

namespace {

/** Share of one bucket in a cell's aggregate task wall time. */
double
bucketShare(const jvm::ProfileSummary &p, jvm::WaitBucket b)
{
    const Ticks total = p.total();
    if (total == 0)
        return 0.0;
    return static_cast<double>(
               p.bucket_total[static_cast<std::size_t>(b)]) /
           static_cast<double>(total);
}

} // namespace

BlameStudy
runBlameStudy(const BlameConfig &config)
{
    ExperimentConfig cfg = config.base;
    cfg.profile = true;
    cfg.profile_topk = config.topk;
    ExperimentRunner runner(std::move(cfg));

    std::vector<std::uint32_t> threads = config.threads;
    if (threads.empty())
        threads = runner.paperThreadCounts();

    // One batch over the whole (app x threads) cross product, so the
    // study parallelizes across cells exactly like an E1 sweep.
    const SweepSet sweeps = runner.sweepApps(
        config.apps, threads, [](const std::string &app) {
            inform("blame study: planning ", app);
        });

    BlameStudy study;
    for (const std::string &app : config.apps) {
        const auto it = sweeps.find(app);
        jscale_assert(it != sweeps.end(), "missing sweep for ", app);
        const std::vector<jvm::RunResult> &sweep = it->second;

        // Speedup curve for the USL cross-reference, anchored at the
        // smallest measured thread count.
        std::vector<control::UslPoint> usl_points;
        const jvm::RunResult *base_run = nullptr;
        for (const jvm::RunResult &r : sweep) {
            if (!r.skipped && !r.failed() && r.wall_time > 0) {
                base_run = &r;
                break;
            }
        }
        for (const jvm::RunResult &r : sweep) {
            if (base_run != nullptr && !r.skipped && !r.failed() &&
                r.wall_time > 0) {
                usl_points.push_back(
                    {static_cast<double>(r.threads),
                     static_cast<double>(base_run->wall_time) /
                         static_cast<double>(r.wall_time)});
            }
        }

        BlameAppFit fit;
        fit.app = app;
        fit.usl = control::UslModel::fit(usl_points);
        for (auto rit = sweep.rbegin(); rit != sweep.rend(); ++rit) {
            if (!rit->skipped && !rit->failed() &&
                rit->profile.enabled) {
                fit.dominant = rit->profile.dominantWait();
                break;
            }
        }
        study.fits.push_back(std::move(fit));

        for (const jvm::RunResult &r : sweep) {
            BlamePoint point;
            point.app = app;
            point.threads = r.threads;
            point.run = r;
            study.points.push_back(std::move(point));
        }
    }
    return study;
}

ReportTable
blameStudyTable(const BlameStudy &study)
{
    // The text folds run-queue wait with waitset/channel parks into
    // "runq" and the residual buckets into "other" to stay readable;
    // the CSV carries every bucket separately.
    std::vector<Column> columns = {{"app", "app"},
                                   {"threads", "threads"},
                                   {"status", "status"},
                                   {"", "wall_ticks", Form::Csv},
                                   {"", "tasks", Form::Csv}};
    for (const char *name : {"cpu", "runq", "lock", "gc-stw", "ttsp",
                             "alloc", "gov", "other"})
        columns.push_back({name, "", Form::Text});
    for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i) {
        columns.push_back(
            {"",
             std::string("share_") +
                 jvm::waitBucketName(static_cast<jvm::WaitBucket>(i)),
             Form::Csv});
    }
    columns.insert(columns.end(), {{"dominant", "dominant"},
                                   {"p50", "p50_ns"},
                                   {"", "p90_ns", Form::Csv},
                                   {"p99", "p99_ns"},
                                   {"", "p999_ns", Form::Csv},
                                   {"", "max_ns", Form::Csv},
                                   {"", "usl_n_star", Form::Csv}});
    ReportTable t("E20 — blame decomposition vs. threads (shares of "
                  "aggregate task wall time)\n",
                  std::move(columns));

    using B = jvm::WaitBucket;
    for (const BlamePoint &p : study.points) {
        const jvm::RunResult &r = p.run;
        const jvm::ProfileSummary &prof = r.profile;
        const bool ran = measured(r) && prof.enabled;
        const auto share = [&prof](B b) { return bucketShare(prof, b); };
        double n_star = 0.0;
        for (const BlameAppFit &fit : study.fits) {
            if (fit.app == p.app && fit.usl.valid) {
                n_star = fit.usl.n_star;
                break;
            }
        }
        std::vector<Cell> cells = {
            Cell::label(p.app), Cell::count(p.threads),
            Cell::label(pointStatus(r)), Cell::ticks(r.wall_time),
            Cell::count(prof.tasks), Cell::share(share(B::Cpu)),
            Cell::share(share(B::RunQueue) + share(B::Waitset) +
                        share(B::Channel)),
            Cell::share(share(B::Lock)), Cell::share(share(B::GcStw)),
            Cell::share(share(B::Ttsp)), Cell::share(share(B::AllocStall)),
            Cell::share(share(B::Governor)),
            Cell::share(share(B::Stall) + share(B::Other))};
        for (std::size_t i = 0; i < jvm::kWaitBucketCount; ++i)
            cells.push_back(Cell::fixed(share(static_cast<B>(i)), 6, 6));
        cells.insert(
            cells.end(),
            {Cell::label(ran ? jvm::waitBucketName(prof.dominantWait())
                             : "-"),
             Cell::ticks(prof.latency.quantile(0.5)),
             Cell::ticks(prof.latency.quantile(0.9)),
             Cell::ticks(prof.latency.quantile(0.99)),
             Cell::ticks(prof.latency.quantile(0.999)),
             Cell::ticks(prof.latency.max()), Cell::fixed(n_star, 2, 2)});
        pointRow(t, ran, std::move(cells),
                 {Cell::label(p.app), Cell::count(p.threads),
                  Cell::label(pointStatus(r))});
    }

    std::ostringstream os;
    os << "USL cross-reference (E17): fitted knee vs. the wait state "
          "dominating at the largest sweep point\n";
    TextTable f;
    f.header({"app", "sigma", "kappa", "n*", "dominant wait"});
    for (const BlameAppFit &fit : study.fits) {
        f.row({fit.app,
               fit.usl.valid ? formatFixed(fit.usl.sigma, 4) : "-",
               fit.usl.valid ? formatFixed(fit.usl.kappa, 6) : "-",
               fit.usl.valid && fit.usl.n_star > 0
                   ? formatFixed(fit.usl.n_star, 1)
                   : "-",
               jvm::waitBucketName(fit.dominant)});
    }
    f.print(os);
    t.footer(os.str());
    return t;
}

} // namespace jscale::core
