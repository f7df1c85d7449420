/**
 * @file
 * The complete study: sweep all six DaCapo-like applications over the
 * paper's thread/core settings and print every table — scalability
 * classification (E1), workload distribution (E2), lock usage (E3/E4),
 * and mutator/GC time split (E7).
 *
 * Usage: scalability_study [scale]
 *   scale  work-volume multiplier (default 1.0; smaller = faster)
 */

#include <cstdlib>
#include <iostream>

#include "core/experiment.hh"
#include "core/report.hh"
#include "workload/dacapo.hh"

int
main(int argc, char **argv)
{
    jscale::core::ExperimentConfig cfg;
    if (argc > 1)
        cfg.workload_scale = std::atof(argv[1]);

    jscale::core::ExperimentRunner runner(cfg);
    const auto threads = runner.paperThreadCounts();

    jscale::core::SweepSet sweeps;
    for (const auto &app : jscale::workload::dacapoAppNames()) {
        std::cerr << "sweeping " << app << "...\n";
        sweeps[app] = runner.sweep(app, threads);
    }

    jscale::core::scalabilityTable(sweeps).print(std::cout);
    std::cout << '\n';
    jscale::core::workloadDistributionTable(sweeps).print(std::cout);
    std::cout << '\n';
    jscale::core::lockAcquisitionTable(sweeps).print(std::cout);
    std::cout << '\n';
    jscale::core::lockContentionTable(sweeps).print(std::cout);
    std::cout << '\n';
    jscale::core::mutatorGcTable(sweeps).print(std::cout);
    return 0;
}
