/**
 * @file
 * E4 — Fig. 1b: number of lock contention instances vs. thread count.
 * Reproduction target: contention grows with threads for the scalable
 * applications (they synchronize more as work is divided finer) while
 * staying essentially constant for the non-scalable ones (their fixed
 * lock traffic saturates a coarse lock early).
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace jscale;
    const auto opts = bench::BenchOptions::parse(argc, argv);
    core::ExperimentRunner runner(opts.experimentConfig());

    std::cerr << "E4 (Fig. 1b): lock contention (scale " << opts.scale
              << ")\n";
    const auto sweeps = bench::sweepAllApps(runner);

    core::lockContentionTable(sweeps).render(std::cout, opts.csv);
    return 0;
}
