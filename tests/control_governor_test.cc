/**
 * @file
 * ConcurrencyGovernor integration tests: admission bookkeeping, policy
 * behaviour, reproducibility, and the headline property — a governed
 * run at full thread count recovering the throughput an ungoverned run
 * only reaches at its best thread count.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "base/units.hh"
#include "control/governor.hh"
#include "core/analyze.hh"
#include "core/experiment.hh"
#include "core/report.hh"

namespace {

using namespace jscale;

core::ExperimentConfig
governedCfg(control::GovernorMode mode, double scale, Ticks interval)
{
    core::ExperimentConfig cfg;
    cfg.workload_scale = scale;
    cfg.governor.mode = mode;
    cfg.governor.interval = interval;
    return cfg;
}

TEST(GovernorStateMachine, BookkeepingBalancesAtRunEnd)
{
    core::ExperimentRunner runner(governedCfg(
        control::GovernorMode::HillClimb, 0.1, 1 * units::MS));
    const jvm::RunResult r = runner.runApp("h2", 16);

    EXPECT_TRUE(r.governor.enabled);
    EXPECT_EQ(r.governor.policy, "hill");
    EXPECT_GT(r.governor.decisions, 0u);
    // Every admission park is matched by an unpark before the run ends —
    // no mutator is left behind.
    EXPECT_EQ(r.governor.parks, r.governor.unparks);
    // The scheduler's view agrees with the governor's.
    EXPECT_EQ(r.sched.admission_parks, r.governor.parks);
    EXPECT_EQ(r.sched.admission_unparks, r.governor.unparks);
    // The target trajectory stays within [1, n_threads] and brackets
    // the final value.
    EXPECT_GE(r.governor.min_target, 1u);
    EXPECT_LE(r.governor.max_target, 16u);
    EXPECT_GE(r.governor.final_target, r.governor.min_target);
    EXPECT_LE(r.governor.final_target, r.governor.max_target);
}

TEST(GovernorStateMachine, SingleThreadIsNeverParked)
{
    // With one mutator the floor forbids any parking at all: the last
    // runnable thread must always stay admitted.
    core::ExperimentRunner runner(governedCfg(
        control::GovernorMode::HillClimb, 0.1, 1 * units::MS));
    const jvm::RunResult r = runner.runApp("sunflow", 1);
    EXPECT_TRUE(r.governor.enabled);
    EXPECT_EQ(r.governor.parks, 0u);
    EXPECT_EQ(r.governor.min_target, 1u);
    EXPECT_GT(r.total_tasks, 0u);
}

TEST(GovernorStateMachine, PipelineStillCompletesUnderRestriction)
{
    // eclipse is a fixed-width pipeline: parking a producer stage can
    // starve consumers. The starvation escape must keep the run live
    // and the task count identical to the ungoverned run.
    core::ExperimentRunner plain(governedCfg(
        control::GovernorMode::Off, 0.1, 1 * units::MS));
    const jvm::RunResult ungoverned = plain.runApp("eclipse", 8);

    core::ExperimentRunner governed(governedCfg(
        control::GovernorMode::HillClimb, 0.1, 1 * units::MS));
    const jvm::RunResult r = governed.runApp("eclipse", 8);

    EXPECT_EQ(r.total_tasks, ungoverned.total_tasks);
    EXPECT_EQ(r.governor.parks, r.governor.unparks);
}

TEST(GovernorStateMachine, DecisionsAreSeedReproducible)
{
    auto run = [](control::GovernorMode mode) {
        core::ExperimentRunner runner(
            governedCfg(mode, 0.1, 1 * units::MS));
        return runner.runApp("jython", 16);
    };
    for (const auto mode : {control::GovernorMode::HillClimb,
                            control::GovernorMode::UslGuided}) {
        const jvm::RunResult a = run(mode);
        const jvm::RunResult b = run(mode);
        EXPECT_EQ(a.wall_time, b.wall_time);
        EXPECT_EQ(a.sim_events, b.sim_events);
        EXPECT_EQ(a.governor.decisions, b.governor.decisions);
        EXPECT_EQ(a.governor.parks, b.governor.parks);
        EXPECT_EQ(a.governor.final_target, b.governor.final_target);
    }
}

TEST(GovernorPolicy, UslCalibrationFitsAndClamps)
{
    core::ExperimentRunner runner(governedCfg(
        control::GovernorMode::UslGuided, 0.3, 5 * units::MS));
    const jvm::RunResult r = runner.runApp("h2", 48);

    EXPECT_EQ(r.governor.policy, "usl");
    // The calibration ladder completed and produced a usable fit.
    EXPECT_GT(r.governor.usl_nstar, 0.0);
    EXPECT_GE(r.governor.usl_sigma, 0.0);
    // The post-calibration clamp restricted concurrency below the full
    // complement (h2's coarse database lock collapses well before 48).
    EXPECT_LT(r.governor.final_target, 48u);
    EXPECT_GE(r.governor.final_target, 1u);
}

// ---------------------------------------------------------------------
// The headline acceptance property: a governed run at the machine's
// full thread count must recover (at least) the throughput the
// ungoverned application only reaches at its best thread count.
// ---------------------------------------------------------------------

TEST(GovernedThroughput, Jython48TRecoversUngovernedPeak)
{
    // jython's ungoverned sweep peaks at a single thread (its
    // interpreter lock makes every added thread a loss).
    core::ExperimentConfig plain_cfg;
    plain_cfg.workload_scale = 0.3;
    core::ExperimentRunner plain(plain_cfg);
    const auto sweep = plain.sweep("jython", {1, 4, 48});
    Ticks best_ungoverned = sweep.front().wall_time;
    for (const auto &r : sweep)
        best_ungoverned = std::min(best_ungoverned, r.wall_time);
    // Sanity: the peak really is the 1-thread point, i.e. the workload
    // is retrograde from the start.
    EXPECT_EQ(core::ScalabilityAnalyzer::observedKnee(sweep), 1u);

    core::ExperimentRunner governed(governedCfg(
        control::GovernorMode::HillClimb, 0.3, 5 * units::MS));
    const jvm::RunResult r = governed.runApp("jython", 48);

    // Same work volume, all 48 threads requested — and the governed run
    // is at least as fast as the ungoverned best-case configuration.
    EXPECT_LE(r.wall_time, best_ungoverned);
    EXPECT_GT(r.governor.parks, 0u);
}

// ---------------------------------------------------------------------
// USL-table acceptance: for the scalable applications the fitted
// recommendation must land within +/-25% of the sweep's observed knee,
// and the raw n* must not under-predict it.
// ---------------------------------------------------------------------

TEST(UslTable, RecommendationTracksObservedKneeForScalableApps)
{
    core::ExperimentConfig cfg;
    cfg.workload_scale = 0.3;
    cfg.jobs = 0; // fan the 18 runs across host cores
    core::ExperimentRunner runner(cfg);
    const std::vector<std::uint32_t> threads = {1, 2, 4, 8, 16, 48};
    const auto sweeps = runner.sweepApps(
        {"sunflow", "lusearch", "xalan"}, threads);

    for (const auto &[app, sweep] : sweeps) {
        const control::UslFit fit =
            core::ScalabilityAnalyzer::uslFit(sweep);
        ASSERT_TRUE(fit.valid) << app;
        const double knee =
            static_cast<double>(core::ScalabilityAnalyzer::observedKnee(sweep));
        // Recommendation: n* clamped into the swept range (n* = 0 means
        // "no finite knee", i.e. use everything that was measured).
        const double max_n = static_cast<double>(threads.back());
        const double rec =
            fit.n_star <= 0.0
                ? max_n
                : std::clamp(std::round(fit.n_star), 1.0, max_n);
        EXPECT_GE(rec, 0.75 * knee) << app << " n*=" << fit.n_star;
        EXPECT_LE(rec, 1.25 * knee) << app << " n*=" << fit.n_star;
        // The raw fit must not under-predict the knee either: these
        // sweeps rise through their largest point, so a small n* would
        // mean the model invented a collapse that is not there.
        if (fit.n_star > 0.0) {
            EXPECT_GE(fit.n_star, 0.75 * knee) << app;
        }
    }
}

// The USL report must emit one row per app with the fitted columns.
TEST(UslTable, ReportEmitsPerAppRows)
{
    core::ExperimentConfig cfg;
    cfg.workload_scale = 0.05;
    cfg.jobs = 0;
    core::ExperimentRunner runner(cfg);
    core::SweepSet sweeps = runner.sweepApps({"sunflow", "h2"}, {1, 2, 4});

    std::ostringstream table;
    core::uslTable(sweeps).print(table);
    EXPECT_NE(table.str().find("sigma"), std::string::npos);
    EXPECT_NE(table.str().find("sunflow"), std::string::npos);
    EXPECT_NE(table.str().find("h2"), std::string::npos);

    std::ostringstream csv;
    core::uslTable(sweeps).writeCsv(csv);
    std::istringstream is(csv.str());
    std::string line;
    ASSERT_TRUE(std::getline(is, line));
    EXPECT_EQ(line,
              "app,sigma,kappa,n_star,recommended_threads,predicted_peak,"
              "observed_knee,observed_peak,rms_residual,knee_class");
    std::size_t rows = 0;
    while (std::getline(is, line))
        ++rows;
    EXPECT_EQ(rows, 2u);
}

} // namespace
