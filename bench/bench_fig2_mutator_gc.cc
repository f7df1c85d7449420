/**
 * @file
 * E7 — Fig. 2: distribution of mutator and GC times for the three
 * scalable applications. Reproduction targets: (1) ignoring GC, mutator
 * time keeps falling all the way to 48 threads; (2) GC time (and its
 * share of the wall clock) keeps growing with the thread count, capping
 * overall scalability.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace jscale;
    const auto opts = bench::BenchOptions::parse(argc, argv);
    core::ExperimentRunner runner(opts.experimentConfig());

    std::cerr << "E7 (Fig. 2): mutator vs GC time (scale " << opts.scale
              << ")\n";
    core::SweepSet sweeps;
    const auto threads = runner.paperThreadCounts();
    for (const std::string app : {"sunflow", "lusearch", "xalan"}) {
        std::cerr << "  sweeping " << app << "...\n";
        sweeps[app] = runner.sweep(app, threads);
    }

    const ReportTable table = core::mutatorGcTable(sweeps);
    table.print(std::cout);

    // The paper's two take-aways, checked explicitly.
    for (const auto &[app, sweep] : sweeps) {
        const bool mutator_falls =
            sweep.back().mutatorTime() < sweep.front().mutatorTime();
        const bool gc_grows = sweep.back().gc_time > sweep.front().gc_time;
        std::cout << app << ": mutator keeps falling to "
                  << sweep.back().threads << " threads: "
                  << (mutator_falls ? "yes" : "NO")
                  << "; GC time grows with threads: "
                  << (gc_grows ? "yes" : "NO") << "\n";
    }
    if (opts.csv) {
        std::cout << "\n";
        table.writeCsv(std::cout);
    }
    return 0;
}
