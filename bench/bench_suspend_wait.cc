/**
 * @file
 * E14 — mechanism validation for Sec. III-B: "In scalable applications,
 * threads tend to share workload evenly; therefore, there is a greater
 * competition for processors, resulting in longer wait time for a
 * thread in the suspend state. This can prolong the lifetimes of
 * objects created, but not yet used by that thread."
 *
 * The bench reports per-mutator suspend wait (ready wait + lock block)
 * against the lifespan CDF across the thread sweep: for the scalable
 * apps both move together (more suspension, fewer short-lived objects),
 * while eclipse — whose worker set never grows — shows neither effect.
 */

#include "bench_common.hh"

int
main(int argc, char **argv)
{
    using namespace jscale;
    const auto opts = bench::BenchOptions::parse(argc, argv);
    core::ExperimentRunner runner(opts.experimentConfig());

    std::cerr << "E14: suspend wait vs lifespan (scale " << opts.scale
              << ")\n";
    core::SweepSet sweeps;
    for (const std::string app : {"xalan", "sunflow", "eclipse"}) {
        std::cerr << "  sweeping " << app << "...\n";
        sweeps[app] = runner.sweep(app, {4, 16, 48});
    }

    const ReportTable table = core::suspendWaitTable(sweeps);
    table.print(std::cout);

    const auto &xalan = sweeps["xalan"];
    auto suspend_ratio = [](const jvm::RunResult &r) {
        double suspend = 0.0;
        double cpu = 0.0;
        for (const auto &ts : r.thread_summaries) {
            if (ts.kind == os::ThreadKind::Mutator) {
                suspend += static_cast<double>(ts.ready_time +
                                               ts.blocked_time);
                cpu += static_cast<double>(ts.cpu_time);
            }
        }
        return cpu > 0.0 ? suspend / cpu : 0.0;
    };
    std::cout << "\nxalan suspend wait per unit of useful work: "
              << formatFixed(suspend_ratio(xalan.front()), 2)
              << " @ 4T -> " << formatFixed(suspend_ratio(xalan.back()), 2)
              << " @ 48T, while objects dying within 1 KiB fall "
              << formatPercent(
                     xalan.front().heap.lifespan.fractionBelow(1024))
              << " -> "
              << formatPercent(
                     xalan.back().heap.lifespan.fractionBelow(1024))
              << " (the paper's interference mechanism).\n";
    if (opts.csv) {
        std::cout << "\n";
        table.writeCsv(std::cout);
    }
    return 0;
}
