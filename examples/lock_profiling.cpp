/**
 * @file
 * Lock profiling example: attach the DTrace-style LockProfiler to a run
 * and print the per-monitor acquisition/contention/block-time report —
 * the methodology behind the paper's Fig. 1a/1b.
 *
 * Usage: lock_profiling [app] [threads]
 */

#include <cstdlib>
#include <iostream>
#include <string>

#include "core/experiment.hh"
#include "core/report.hh"
#include "lockprof/lockprof.hh"

int
main(int argc, char **argv)
{
    const std::string app = argc > 1 ? argv[1] : "xalan";
    const std::uint32_t threads =
        argc > 2 ? static_cast<std::uint32_t>(std::atoi(argv[2])) : 16;

    const jscale::core::ExperimentConfig cfg;
    jscale::core::ExperimentRunner runner(cfg);
    jscale::lockprof::LockProfiler profiler;

    const jscale::jvm::RunResult r = runner.runApp(
        app, threads,
        [&profiler](jscale::jvm::JavaVm &vm) {
            vm.listeners().add(&profiler);
        });

    std::cout << "Lock profile for '" << app << "' @ " << threads
              << " threads (wall " << jscale::formatTicks(r.wall_time)
              << ")\n\n";
    profiler.printReport(std::cout);

    std::cout << "\nPer-thread contention (threads with any):\n";
    for (const auto &[tid, c] : profiler.perThread()) {
        if (c.contentions == 0)
            continue;
        std::cout << "  thread " << tid << ": " << c.contentions
                  << " contentions, blocked "
                  << jscale::formatTicks(c.total_block_time) << "\n";
    }
    return 0;
}
