/**
 * @file
 * E18 resilience study: sweep the fault-intensity dial and compare a
 * governed run against an ungoverned one at every point.
 *
 * Each intensity expands into a reproducible mixed-fault schedule
 * (core loss, slowdowns, lock-holder preemption, mutator kills/stalls,
 * heap-pressure spikes, GC-worker loss). The ungoverned arm shows raw
 * degradation; the governed arm shows the concurrency governor
 * re-targeting admission after capacity loss. Aborted points are
 * isolated as failed markers — the study always completes.
 *
 * Usage: resilience_study [scale] [threads]
 *   scale    work-volume multiplier (default 0.3; smaller = faster)
 *   threads  mutator threads per run (default 16)
 */

#include <cstdlib>
#include <iostream>

#include "base/units.hh"
#include "core/resilience.hh"

int
main(int argc, char **argv)
{
    using namespace jscale;

    core::ResilienceConfig cfg;
    cfg.app = "xalan";
    cfg.threads = 16;
    cfg.base.workload_scale = 0.3;
    // horizon stays 0 = auto: 3/4 of an unfaulted probe run's wall
    // time, so the schedule lands inside the run at any scale.
    if (argc > 1)
        cfg.base.workload_scale = std::atof(argv[1]);
    if (argc > 2)
        cfg.threads = static_cast<std::uint32_t>(std::atoi(argv[2]));
    // Arm the livelock watchdog: a wedged faulted run becomes a
    // diagnosed failed point instead of hanging the study.
    cfg.base.watchdog = true;

    const auto points = core::runResilienceStudy(cfg);
    core::resilienceTable(points).render(std::cout, true);
    return 0;
}
