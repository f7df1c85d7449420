#include "core/resilience.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "base/logging.hh"
#include "base/output.hh"
#include "core/analyze.hh"
#include "core/report.hh"
#include "fault/fault.hh"

namespace jscale::core {

namespace {

/** Insert "-<tag>" before the extension of an artifact path. */
std::string
tagPath(const std::string &path, const std::string &tag)
{
    if (path.empty())
        return path;
    const auto dot = path.find_last_of('.');
    const auto slash = path.find_last_of('/');
    if (dot == std::string::npos ||
        (slash != std::string::npos && dot < slash))
        return path + "-" + tag;
    return path.substr(0, dot) + "-" + tag + path.substr(dot);
}

/** Tasks per second of simulated time (0 for failed/empty runs). */
double
throughput(const jvm::RunResult &r)
{
    if (r.wall_time == 0)
        return 0.0;
    return static_cast<double>(r.total_tasks) /
           (static_cast<double>(r.wall_time) /
            static_cast<double>(units::SEC));
}

/** Share of total thread-time spent blocked on locks. */
double
lockShare(const jvm::RunResult &r)
{
    if (r.wall_time == 0 || r.threads == 0)
        return 0.0;
    return static_cast<double>(r.locks.block_time) /
           (static_cast<double>(r.wall_time) *
            static_cast<double>(r.threads));
}

} // namespace

std::vector<ResiliencePoint>
runResilienceStudy(const ResilienceConfig &config)
{
    std::vector<ResiliencePoint> points;
    points.reserve(config.intensities.size());

    // Calibrate the heap once; every arm then runs with the same fixed
    // capacity, so the intensity axis is the only thing that varies.
    Bytes heap = config.base.heap_override;
    if (heap == 0) {
        ExperimentRunner calib(config.base);
        heap = static_cast<Bytes>(
            config.base.heap_factor *
            static_cast<double>(calib.minHeapRequirement(config.app)));
    }

    // Auto-horizon: measure an unfaulted run and fire every schedule
    // within 3/4 of its wall time. A fixed default would silently land
    // the whole plan past the end of short (scaled-down) runs.
    Ticks horizon = config.horizon;
    if (horizon == 0) {
        ExperimentConfig probe_cfg = config.base;
        probe_cfg.heap_override = heap;
        probe_cfg.faults = {};
        probe_cfg.governor.mode = control::GovernorMode::Off;
        probe_cfg.timeline_path.clear();
        probe_cfg.metrics_path.clear();
        ExperimentRunner probe(std::move(probe_cfg));
        const jvm::RunResult r = probe.runApp(config.app, config.threads);
        horizon = std::max<Ticks>(1 * units::MS, r.wall_time * 3 / 4);
        inform("resilience: auto horizon ", formatTicks(horizon),
               " (3/4 of the unfaulted ", formatTicks(r.wall_time),
               " run)");
    }

    for (const double intensity : config.intensities) {
        ResiliencePoint point;
        point.intensity = intensity;

        const fault::FaultPlan plan = fault::FaultPlan::fromIntensity(
            intensity, config.base.seed, horizon);
        point.plan = plan.describe();

        for (const bool governed : {false, true}) {
            ExperimentConfig arm = config.base;
            arm.heap_override = heap;
            arm.faults = plan;
            arm.governor.mode = governed ? config.governed_mode
                                         : control::GovernorMode::Off;

            // Tag every per-arm artifact so the arms never collide.
            const std::string tag =
                "i" + formatFixed(intensity, 2) +
                (governed ? "-gov" : "-ungov");
            arm.timeline_path = tagPath(arm.timeline_path, tag);
            arm.metrics_path = tagPath(arm.metrics_path, tag);
            arm.error_path = tagPath(arm.error_path, tag);

            ExperimentRunner runner(std::move(arm));
            // sweep() routes through the isolated batch executor: an
            // aborted run becomes an error artifact + failed() marker
            // and the study continues.
            jvm::RunResult r =
                std::move(runner.sweep(config.app, {config.threads})[0]);
            if (governed)
                point.governed = std::move(r);
            else
                point.ungoverned = std::move(r);
        }
        inform("resilience: intensity ", formatFixed(intensity, 2),
               " done (ungoverned ", pointStatus(point.ungoverned),
               ", governed ", pointStatus(point.governed), ")");
        points.push_back(std::move(point));
    }
    return points;
}

ReportTable
resilienceTable(const std::vector<ResiliencePoint> &points)
{
    ReportTable t("E18 — resilience under fault injection "
                  "(throughput in tasks/s of simulated time)\n",
                  {{"intensity", "intensity"},
                   {"arm", "arm"},
                   {"status", "status"},
                   {"wall", "wall_ticks"},
                   {"tput", "throughput"},
                   {"gc-share", "gc_share"},
                   {"lock-share", "lock_share"},
                   {"inject", "injections"},
                   {"recover", "recoveries"},
                   {"", "cores_offlined", Form::Csv},
                   {"killed", "mutators_killed"},
                   {"", "tasks_reassigned", Form::Csv},
                   {"target", "gov_target"}});
    std::ostringstream failures;
    for (const auto &p : points) {
        for (const bool governed : {false, true}) {
            const jvm::RunResult &r =
                governed ? p.governed : p.ungoverned;
            const Cell intensity = Cell::fixed(p.intensity, 2, 2);
            const Cell arm = Cell::label(governed ? "gov" : "ungov");
            const Cell status = Cell::label(pointStatus(r));
            pointRow(t, measured(r),
                     {intensity, arm, status, Cell::ticks(r.wall_time),
                      Cell::fixed(throughput(r), 1, 3),
                      Cell::share(ScalabilityAnalyzer::gcShare(r)),
                      Cell::share(lockShare(r)),
                      Cell::count(r.faults.injections),
                      Cell::count(r.faults.recoveries),
                      Cell::count(r.faults.cores_offlined),
                      Cell::count(r.faults.mutators_killed),
                      Cell::count(r.faults.tasks_reassigned),
                      Cell::label(r.governor.enabled
                                      ? std::to_string(
                                            r.governor.final_target)
                                      : "-")},
                     {intensity, arm, status});
            if (r.failed()) {
                failures << "failed: intensity "
                         << formatFixed(p.intensity, 2)
                         << (governed ? " governed: " : " ungoverned: ")
                         << r.run_error << "\n";
            }
        }
    }
    t.footer(failures.str());
    return t;
}

} // namespace jscale::core
