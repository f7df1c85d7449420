/**
 * @file
 * E8 — the Sec. III-B causal chain: prolonged lifespans make more
 * objects survive the nursery, so more bytes are copied, more bytes are
 * promoted, and the mature region fills faster. Reproduction target:
 * nursery survival and promotion volume grow with threads for xalan
 * (scalable, interference-prone) and stay flat for eclipse.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace jscale;
    const auto opts = bench::BenchOptions::parse(argc, argv);
    core::ExperimentRunner runner(opts.experimentConfig());

    std::cerr << "E8: GC effectiveness vs threads (scale " << opts.scale
              << ")\n";
    core::SweepSet sweeps;
    for (const std::string app : {"xalan", "eclipse"}) {
        std::cerr << "  sweeping " << app << "...\n";
        sweeps[app] = runner.sweep(app, {4, 8, 16, 32, 48});
    }

    const ReportTable table = core::gcSurvivalTable(sweeps);
    table.print(std::cout);

    const auto &xalan = sweeps["xalan"];
    std::cout << "\nxalan nursery survival: "
              << formatPercent(
                     xalan.front().gc.nursery_survival.mean())
              << " @ 4 threads -> "
              << formatPercent(xalan.back().gc.nursery_survival.mean())
              << " @ 48 threads (paper: more objects survive the "
                 "nursery as threads scale)\n";
    if (opts.csv) {
        std::cout << "\n";
        table.writeCsv(std::cout);
    }
    return 0;
}
