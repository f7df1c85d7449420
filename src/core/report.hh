/**
 * @file
 * Report tables: the paper's tables and figures from RunResults, each
 * defined once as a ReportTable that renders as aligned text (console)
 * and CSV (machine-readable). One function per experiment artifact; the
 * bench binaries are thin wrappers around these.
 */

#ifndef JSCALE_CORE_REPORT_HH
#define JSCALE_CORE_REPORT_HH

#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "base/output.hh"
#include "control/usl.hh"
#include "jvm/runtime/vm.hh"
#include "stats/stats.hh"

namespace jscale::core {

/** A sweep per app: app name -> results ordered by ascending threads. */
using SweepSet = std::map<std::string, std::vector<jvm::RunResult>>;

/** True for a point that ran here: neither shard-skipped nor failed. */
bool measured(const jvm::RunResult &r);

/** A point's status: "ok", "skipped" or "failed". */
std::string pointStatus(const jvm::RunResult &r);

/**
 * Add one study point to @p t. A point with measurements (@p ran) is
 * one row in both forms. Any other keeps @p cells as its CSV row, under
 * the study's status column, and is a text row of @p lead followed by
 * "-".
 */
void pointRow(ReportTable &t, bool ran, std::vector<Cell> cells,
              std::vector<Cell> lead);

/*
 * The sweep tables below have one row per (app, threads) point. A
 * skipped or failed point shows "-" for its measurements and its status
 * in the last text column, and has no CSV row; speedups and ratios are
 * anchored at the first measured point of the app's sweep.
 */

/**
 * E1 — execution time, speedup and classification per app and thread
 * count (the Sec. II-C scalable/non-scalable characterization).
 */
ReportTable scalabilityTable(const SweepSet &sweeps);

/**
 * E2 — workload distribution: effective worker count, top-thread share
 * and task-count CV per app at selected thread counts.
 */
ReportTable workloadDistributionTable(const SweepSet &sweeps);

/** E3 — Fig. 1a: lock acquisitions vs. threads per app. */
ReportTable lockAcquisitionTable(const SweepSet &sweeps);

/** E4 — Fig. 1b: lock contention instances vs. threads per app. */
ReportTable lockContentionTable(const SweepSet &sweeps);

/**
 * E5/E6 — Fig. 1c/1d: object-lifespan CDF of one app across thread
 * counts. The text pivots lifespan thresholds (rows) against thread
 * counts (columns); the CSV has one row per (point, threshold).
 */
ReportTable lifespanCdfTable(const std::string &app,
                             const std::vector<jvm::RunResult> &sweep);

/**
 * E7 — Fig. 2: mutator time vs. GC time per app and thread count (the
 * stacked distribution of the paper).
 */
ReportTable mutatorGcTable(const SweepSet &sweeps);

/**
 * E8 — GC effectiveness detail: nursery survival rate, promoted bytes,
 * minor/full GC counts and mean pauses vs. threads.
 */
ReportTable gcSurvivalTable(const SweepSet &sweeps);

/**
 * E14 — the Sec. III-B mechanism: per-mutator suspend wait (time
 * runnable-but-not-running plus time blocked on locks) vs. thread
 * count, next to the lifespan CDF it inflates.
 */
ReportTable suspendWaitTable(const SweepSet &sweeps);

/** One app's speedup curve as raw points (e.g. re-read from a CSV). */
struct UslSeries
{
    std::string app;
    std::vector<control::UslPoint> points;
};

/**
 * E17 — USL model fit per app: the contention (sigma) and coherency
 * (kappa) coefficients, the fitted optimum n*, the concrete thread
 * recommendation (n* clamped to the sweep range), the predicted peak
 * speedup, and the observed knee of the sweep for comparison. A fitted
 * n* beyond the sweep's largest thread count means the knee was not
 * reached within the measured range — the scalable classification in
 * model form. Sweeps are fitted over their measured points.
 */
ReportTable uslTable(const SweepSet &sweeps);

/** Same table over raw speedup series (the `jscale usl` CSV path). */
ReportTable uslTable(const std::vector<UslSeries> &series);

/**
 * Governed-vs-ungoverned comparison: wall time and throughput delta per
 * (app, threads) pair present in both sets, with the governor's final
 * admission target. @p off must be ungoverned, @p on governed runs of
 * the same configurations.
 */
void printGovernedComparisonTable(std::ostream &os, const SweepSet &off,
                                  const SweepSet &on);

/**
 * Per-run wait-state blame (requires a profiled run, see
 * ExperimentConfig::profile): one row per attribution bucket with its
 * total time, share of aggregate task wall time and tail quantiles of
 * the per-task distribution, plus the slowest-task and hottest-monitor
 * breakdowns. The CSV emits every bucket (zero rows included) so the
 * column/row set is configuration-independent.
 */
ReportTable blameTable(const jvm::RunResult &r);

/**
 * Raw log-bucketed histogram dump of a profiled run: one row per
 * non-empty histogram bucket, for the end-to-end task latency
 * distribution and each wait bucket's per-task distribution.
 */
void writeProfileHistogramCsv(std::ostream &os, const jvm::RunResult &r);

/**
 * Flatten every deterministic counter of one run into a named stat
 * snapshot (timing, GC, heap, locks, scheduler and per-thread rows).
 * Two runs of the same configuration must produce identical snapshots
 * regardless of --jobs; the equivalence tests compare these dumps.
 */
stats::StatSnapshot runStatSnapshot(const jvm::RunResult &r);

/**
 * Open-loop traffic summary of one or more runs (tenants of one host,
 * or rungs of a ladder): arrival accounting, sojourn / queueing /
 * service tails, and the exact wait-state decomposition of service
 * time. Rows without traffic data (closed-loop runs, and points that
 * did not run) are skipped.
 */
ReportTable trafficTable(const std::vector<jvm::RunResult> &runs);

/** Free-form one-run summary (quickstart/example output). */
void printRunSummary(std::ostream &os, const jvm::RunResult &r);

/** Per-thread breakdown of one run (tasks, CPU, waits, allocation). */
void printThreadTable(std::ostream &os, const jvm::RunResult &r);

} // namespace jscale::core

#endif // JSCALE_CORE_REPORT_HH
