/**
 * @file
 * E1 — the Sec. II-C characterization: execution time and speedup for
 * all six applications over the paper's thread/core settings, with the
 * scalable / non-scalable classification. Reproduction target: sunflow,
 * lusearch and xalan keep speeding up toward 48 threads; h2, eclipse
 * and jython flatten at a handful of threads.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace jscale;
    const auto opts = bench::BenchOptions::parse(argc, argv);
    core::ExperimentRunner runner(opts.experimentConfig());

    std::cerr << "E1: scalability characterization (scale " << opts.scale
              << ")\n";
    const auto sweeps = bench::sweepAllApps(runner);

    core::scalabilityTable(sweeps).render(std::cout, opts.csv);
    return 0;
}
