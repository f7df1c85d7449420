/**
 * @file
 * E3 — Fig. 1a: number of lock acquisitions vs. thread count, profiled
 * with the DTrace-style LockProfiler (independently cross-checked
 * against the VM's own monitor counters). Reproduction target: rising
 * for the scalable applications, flat for the non-scalable ones.
 */

#include "bench_common.hh"

#include "lockprof/lockprof.hh"

int
main(int argc, char **argv)
{
    using namespace jscale;
    const auto opts = bench::BenchOptions::parse(argc, argv);
    core::ExperimentRunner runner(opts.experimentConfig());

    std::cerr << "E3 (Fig. 1a): lock acquisitions (scale " << opts.scale
              << ")\n";

    // Cross-check on one configuration that the profiler agrees with
    // the runtime's own counters, then sweep using the cheap counters.
    {
        lockprof::LockProfiler profiler;
        const jvm::RunResult r = runner.runApp(
            "xalan", 8, [&profiler](jvm::JavaVm &vm) {
                vm.listeners().add(&profiler);
            });
        if (profiler.totals().acquisitions != r.locks.acquisitions) {
            std::cerr << "profiler/runtime acquisition mismatch: "
                      << profiler.totals().acquisitions << " vs "
                      << r.locks.acquisitions << "\n";
            return 1;
        }
        std::cerr << "  profiler cross-check OK ("
                  << profiler.totals().acquisitions
                  << " acquisitions)\n";
    }

    const auto sweeps = bench::sweepAllApps(runner);
    core::lockAcquisitionTable(sweeps).render(std::cout, opts.csv);
    return 0;
}
