/**
 * @file
 * E2 — Sec. III workload distribution: how many threads actually carry
 * the work. Reproduction target: scalable apps distribute tasks nearly
 * uniformly over all requested threads; jython concentrates work on at
 * most 3-4 threads and eclipse on its fixed pipeline roles, no matter
 * how many threads are requested.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace jscale;
    const auto opts = bench::BenchOptions::parse(argc, argv);
    core::ExperimentRunner runner(opts.experimentConfig());

    std::cerr << "E2: workload distribution (scale " << opts.scale
              << ")\n";
    core::SweepSet sweeps;
    for (const auto &app : workload::dacapoAppNames()) {
        std::cerr << "  sweeping " << app << "...\n";
        sweeps[app] = runner.sweep(app, {4, 16, 48});
    }

    core::workloadDistributionTable(sweeps).render(std::cout, opts.csv);
    return 0;
}
