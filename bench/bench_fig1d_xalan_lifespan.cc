/**
 * @file
 * E6 — Fig. 1d: xalan's object-lifespan CDF across thread counts.
 * Reproduction target: over 80% of objects die within 1 KB of global
 * allocation at 4 threads, dropping to roughly 50% at 48 threads —
 * lifespans inflate because suspended threads' objects stay live while
 * every other thread allocates.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace jscale;
    const auto opts = bench::BenchOptions::parse(argc, argv);
    core::ExperimentRunner runner(opts.experimentConfig());

    std::cerr << "E6 (Fig. 1d): xalan lifespan CDF (scale " << opts.scale
              << ")\n";
    std::vector<jvm::RunResult> sweep;
    for (const std::uint32_t t : {4u, 8u, 16u, 32u, 48u})
        sweep.push_back(runner.runApp("xalan", t));

    const ReportTable table = core::lifespanCdfTable("xalan", sweep);
    table.print(std::cout);
    std::cout << "\nfraction of objects with lifespan < 1 KiB: "
              << formatPercent(
                     sweep.front().heap.lifespan.fractionBelow(1024))
              << " @ 4 threads (paper: >80%), "
              << formatPercent(
                     sweep.back().heap.lifespan.fractionBelow(1024))
              << " @ 48 threads (paper: ~50%)\n";
    if (opts.csv) {
        std::cout << "\n";
        table.writeCsv(std::cout);
    }
    return 0;
}
