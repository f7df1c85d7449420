/**
 * @file
 * E20 — blame decomposition study: which wait state dominates each
 * application's task latency, and how the blame shifts as threads grow.
 *
 * Every (app, threads) cell runs through the experiment harness with
 * the wait-state attribution profiler attached, decomposing per-task
 * latency into exact buckets (cpu, run-queue, lock, GC stop-the-world,
 * time-to-safepoint, allocation stall, governor park, ...). The study
 * reports each cell's blame shares and tail quantiles, names the
 * dominant wait state, and cross-references the blame flip against the
 * USL knee (E17) fitted from the study's own speedup curve: the thread
 * count where a non-cpu bucket takes over is the mechanism behind the
 * knee the model predicts.
 */

#ifndef JSCALE_CORE_BLAME_HH
#define JSCALE_CORE_BLAME_HH

#include <string>
#include <vector>

#include "base/output.hh"
#include "control/usl.hh"
#include "core/experiment.hh"
#include "jvm/runtime/vm.hh"

namespace jscale::core {

/** Configuration of the E20 blame study. */
struct BlameConfig
{
    /** Apps on the study's rows (default: the paper's six). */
    std::vector<std::string> apps = {"sunflow", "lusearch", "xalan",
                                     "h2",      "eclipse",  "jython"};
    /** Thread counts per app; empty = the paper ladder for the machine. */
    std::vector<std::uint32_t> threads;
    /** Slowest-task records kept per cell. */
    std::uint32_t topk = 5;
    /**
     * Base campaign settings (machine, seed, scale, jobs). The study
     * forces profile = true and leaves everything else untouched, so a
     * blame sweep is the ordinary E1 sweep plus attribution.
     */
    ExperimentConfig base;
};

/** One (app, threads) cell of the study. */
struct BlamePoint
{
    std::string app;
    std::uint32_t threads = 0;
    jvm::RunResult run;
};

/** One app's fitted knee, from the study's own speedup curve. */
struct BlameAppFit
{
    std::string app;
    control::UslFit usl;
    /** Dominant non-cpu wait at the sweep's largest thread count. */
    jvm::WaitBucket dominant = jvm::WaitBucket::RunQueue;
};

/** The full study result. */
struct BlameStudy
{
    /** Cells in (app, ascending threads) order. */
    std::vector<BlamePoint> points;
    std::vector<BlameAppFit> fits;
};

/**
 * Run the study: |apps| x |threads| profiled runs through the isolated
 * batch executor (a cell that aborts carries a failed() marker; the
 * study completes), then fit the USL per app from the measured wall
 * times.
 */
BlameStudy runBlameStudy(const BlameConfig &config);

/**
 * The study report: per-cell blame shares and tails (one row per
 * (app, threads) cell), followed in text by the per-app USL knees.
 */
ReportTable blameStudyTable(const BlameStudy &study);

} // namespace jscale::core

#endif // JSCALE_CORE_BLAME_HH
