/**
 * @file
 * E19 — scalability-collapse study: throughput of one lock-saturated
 * workload as a function of thread count, under each monitor admission
 * policy (jvm::LockPolicy).
 *
 * The workload ("hotlock") funnels every operation through one hot
 * monitor with a short critical section. Under FIFO the circulating
 * set widens with the thread count, the coherence-footprint handoff
 * penalty grows with it, and throughput collapses past the saturation
 * point — the paper's non-scalable regime in its purest form. The
 * bounded-barging arm shows unfairness alone does not help (its
 * circulation is just as wide); the Malthusian and LCR arms restrict
 * the active set near the service capacity and recover to near-peak
 * throughput at every thread count.
 *
 * Each (policy, threads) point runs through the experiment harness —
 * aborted points become error artifacts and failed() markers while the
 * study completes — and an optional governed arm per policy cross-wires
 * the E17 concurrency governor with the admission policies.
 */

#ifndef JSCALE_CORE_COLLAPSE_HH
#define JSCALE_CORE_COLLAPSE_HH

#include <string>
#include <vector>

#include "base/output.hh"
#include "core/experiment.hh"
#include "jvm/locks/policy.hh"
#include "jvm/runtime/vm.hh"

namespace jscale::core {

/** Configuration of the E19 collapse study. */
struct CollapseConfig
{
    std::string app = "hotlock";
    /** The x-axis; empty = the paper thread ladder of the machine. */
    std::vector<std::uint32_t> threads;
    /** Policies swept (arm order). */
    std::vector<jvm::LockPolicy> policies = {
        jvm::LockPolicy::Fifo, jvm::LockPolicy::Barging,
        jvm::LockPolicy::Malthusian, jvm::LockPolicy::Lcr};
    /** Also run each policy under the E17 hill-climbing governor. */
    bool governed_arms = false;
    /**
     * Base campaign settings. The study overrides vm.locks.policy per
     * arm; the remaining policy knobs (windows, targets, handoff
     * costs) are taken from base.vm.locks, with the E19 cost defaults
     * applied on top when both handoff costs are zero (a costless
     * handoff cannot collapse, so zero-cost configs get the study
     * defaults: base 250 ns, coherence 500 ns/owner).
     */
    ExperimentConfig base;
};

/** One swept arm: a policy (optionally governed) over the ladder. */
struct CollapseArm
{
    jvm::LockPolicy policy = jvm::LockPolicy::Fifo;
    bool governed = false;
    /** One result per CollapseStudy::threads entry, same order. */
    std::vector<jvm::RunResult> runs;
};

/** Per-arm scalability summary (failed points excluded). */
struct CollapseSummary
{
    /** Peak throughput over the ladder and the thread count at it. */
    double peak_throughput = 0.0;
    std::uint32_t peak_threads = 0;
    /** Throughput at the largest thread count. */
    double max_threads_throughput = 0.0;
    /** max_threads_throughput / peak_throughput (1.0 = no collapse). */
    double retention = 0.0;
};

struct CollapseStudy
{
    std::vector<std::uint32_t> threads;
    std::vector<CollapseArm> arms;
};

/**
 * Run the study: |policies| x (1 + governed_arms) arms over the thread
 * ladder. A point whose run aborts carries a failed() marker; the
 * study itself always completes.
 */
CollapseStudy runCollapseStudy(const CollapseConfig &config);

/** Scalability summary of one arm. */
CollapseSummary summarizeCollapseArm(const CollapseStudy &study,
                                     const CollapseArm &arm);

/**
 * The study report: one row per (arm, threads) point with throughput,
 * circulation and tails, followed in text by each arm's scalability
 * summary and the failed points' errors.
 */
ReportTable collapseTable(const CollapseStudy &study);

} // namespace jscale::core

#endif // JSCALE_CORE_COLLAPSE_HH
