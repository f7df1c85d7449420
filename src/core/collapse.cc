#include "core/collapse.hh"

#include <algorithm>
#include <sstream>
#include <utility>

#include "base/logging.hh"
#include "base/output.hh"
#include "core/report.hh"

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

/** Average distinct-recent-owner count per contended handoff. */
double
circulation(const jvm::RunResult &r)
{
    if (r.locks.handoffs == 0)
        return 0.0;
    return static_cast<double>(r.locks.circulation_sum) /
           static_cast<double>(r.locks.handoffs);
}

std::string
armName(const CollapseArm &arm)
{
    std::string name = jvm::lockPolicyName(arm.policy);
    if (arm.governed)
        name += "+gov";
    return name;
}

} // namespace

CollapseStudy
runCollapseStudy(const CollapseConfig &config)
{
    CollapseStudy study;
    study.threads = config.threads;
    if (study.threads.empty()) {
        ExperimentRunner ladder(config.base);
        study.threads = ladder.paperThreadCounts();
    }

    // A costless handoff cannot collapse; zero-cost base configs get
    // the study's coherence cost model.
    jvm::LockPolicyConfig locks = config.base.vm.locks;
    if (locks.handoff_base == 0 && locks.coherence_cost == 0) {
        locks.handoff_base = 250;
        locks.coherence_cost = 500;
    }

    // Calibrate the heap once; every arm then runs with the same fixed
    // capacity, so policy is the only thing that varies between arms.
    Bytes heap = config.base.heap_override;
    if (heap == 0) {
        ExperimentRunner calib(config.base);
        heap = static_cast<Bytes>(
            config.base.heap_factor *
            static_cast<double>(calib.minHeapRequirement(config.app)));
    }

    for (const jvm::LockPolicy policy : config.policies) {
        for (const bool governed :
             config.governed_arms
                 ? std::vector<bool>{false, true}
                 : std::vector<bool>{false}) {
            CollapseArm arm;
            arm.policy = policy;
            arm.governed = governed;

            ExperimentConfig run_cfg = config.base;
            run_cfg.heap_override = heap;
            run_cfg.vm.locks = locks;
            run_cfg.vm.locks.policy = policy;
            if (governed)
                run_cfg.governor.mode = control::GovernorMode::HillClimb;

            // Tag per-arm artifacts so the arms never collide.
            const std::string tag = armName(arm);
            run_cfg.timeline_path = tagPath(run_cfg.timeline_path, tag);
            run_cfg.metrics_path = tagPath(run_cfg.metrics_path, tag);
            run_cfg.error_path = tagPath(run_cfg.error_path, tag);

            ExperimentRunner runner(std::move(run_cfg));
            // sweep() routes through the isolated batch executor: an
            // aborted point becomes an error artifact + failed()
            // marker and the study continues.
            arm.runs = runner.sweep(config.app, study.threads);

            std::size_t ok = 0;
            for (const jvm::RunResult &r : arm.runs)
                ok += r.failed() ? 0 : 1;
            inform("collapse: arm ", tag, " done (", ok, "/",
                   arm.runs.size(), " points ok)");
            study.arms.push_back(std::move(arm));
        }
    }
    return study;
}

CollapseSummary
summarizeCollapseArm(const CollapseStudy &study, const CollapseArm &arm)
{
    CollapseSummary s;
    for (std::size_t i = 0; i < arm.runs.size(); ++i) {
        const jvm::RunResult &r = arm.runs[i];
        if (r.failed())
            continue;
        const double tput = throughput(r);
        if (tput > s.peak_throughput) {
            s.peak_throughput = tput;
            s.peak_threads = study.threads[i];
        }
        s.max_threads_throughput = tput; // last non-failed point
    }
    if (s.peak_throughput > 0.0)
        s.retention = s.max_threads_throughput / s.peak_throughput;
    return s;
}

ReportTable
collapseTable(const CollapseStudy &study)
{
    ReportTable t("E19 — scalability collapse by admission policy "
                  "(throughput in ops/s of simulated time)\n",
                  {{"policy", "policy"},
                   {"", "governed", Form::Csv},
                   {"threads", "threads"},
                   {"status", "status"},
                   {"wall", "wall_ticks"},
                   {"tput", "throughput"},
                   {"circ", "", Form::Text},
                   {"", "handoffs", Form::Csv},
                   {"barged", "barged_grants"},
                   {"passiv", "waiters_passivated"},
                   {"react", "waiters_reactivated"},
                   {"", "circulation_avg", Form::Csv},
                   {"penalty", "coherence_penalty_ticks"},
                   {"", "block_p50_ticks", Form::Csv},
                   {"blk-p99", "block_p99_ticks"},
                   {"target", "gov_target"}});
    std::ostringstream footer;
    footer << "\narm summaries (retention = throughput at max threads / "
              "peak):\n";
    TextTable s;
    s.header({"policy", "peak-tput", "peak-T", "maxT-tput", "retention"});
    std::ostringstream failures;
    for (const CollapseArm &arm : study.arms) {
        const Cell policy{armName(arm), jvm::lockPolicyName(arm.policy)};
        for (std::size_t i = 0; i < arm.runs.size(); ++i) {
            const jvm::RunResult &r = arm.runs[i];
            const Cell threads = Cell::count(study.threads[i]);
            const Cell status = Cell::label(pointStatus(r));
            pointRow(t, measured(r),
                     {policy, Cell::count(arm.governed ? 1 : 0), threads,
                      status, Cell::ticks(r.wall_time),
                      Cell::fixed(throughput(r), 1, 3),
                      Cell::fixed(circulation(r), 2, 2),
                      Cell::count(r.locks.handoffs),
                      Cell::count(r.locks.barged_grants),
                      Cell::count(r.locks.waiters_passivated),
                      Cell::count(r.locks.waiters_reactivated),
                      Cell::fixed(circulation(r), 3, 3),
                      Cell::ticks(r.locks.coherence_penalty),
                      Cell::ticks(r.locks.block_hist.quantile(0.50)),
                      Cell::ticks(r.locks.block_hist.quantile(0.99)),
                      Cell::label(r.governor.enabled
                                      ? std::to_string(
                                            r.governor.final_target)
                                      : "-")},
                     {policy, threads, status});
            if (r.failed()) {
                failures << "failed: " << armName(arm) << " t"
                         << study.threads[i] << ": " << r.run_error
                         << "\n";
            }
        }
        const CollapseSummary sum = summarizeCollapseArm(study, arm);
        s.row({armName(arm), formatFixed(sum.peak_throughput, 1),
               std::to_string(sum.peak_threads),
               formatFixed(sum.max_threads_throughput, 1),
               formatPercent(sum.retention)});
    }
    s.print(footer);
    t.footer(footer.str() + failures.str());
    return t;
}

} // namespace jscale::core
