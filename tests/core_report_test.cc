/**
 * @file
 * Tests for the report writers: headers, row counts and CSV structure,
 * and the exact bytes of every table that has a CSV form.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "core/blame.hh"
#include "core/collapse.hh"
#include "core/report.hh"
#include "core/resilience.hh"
#include "core/traffic_study.hh"

namespace {

using namespace jscale;
using core::SweepSet;

jvm::RunResult
fakeRun(const std::string &app, std::uint32_t threads)
{
    jvm::RunResult r;
    r.app_name = app;
    r.threads = threads;
    r.cores = threads;
    r.wall_time = 1000000 / threads + 1000;
    r.gc_time = 1000 * threads;
    r.heap_capacity = 3 * units::MiB;
    r.locks.acquisitions = 100 * threads;
    r.locks.contentions = 10 * threads;
    r.total_tasks = 400;
    r.heap.lifespan.add(100, 50);
    r.heap.lifespan.add(10000, 50);
    r.gc.minor_count = 5;
    for (std::uint32_t i = 0; i < threads; ++i) {
        jvm::ThreadSummary ts;
        ts.kind = os::ThreadKind::Mutator;
        ts.tasks_completed = 400 / threads;
        r.thread_summaries.push_back(ts);
    }
    return r;
}

SweepSet
fakeSweeps()
{
    SweepSet s;
    for (const std::string app : {"alpha", "beta"}) {
        for (const std::uint32_t t : {1u, 4u, 16u})
            s[app].push_back(fakeRun(app, t));
    }
    return s;
}

std::size_t
countLines(const std::string &s)
{
    return static_cast<std::size_t>(std::count(s.begin(), s.end(), '\n'));
}

TEST(Report, ScalabilityTableHasRowPerRun)
{
    std::ostringstream os;
    core::scalabilityTable(fakeSweeps()).print(os);
    // Title + header + underline + 6 rows.
    EXPECT_EQ(countLines(os.str()), 9u);
    EXPECT_NE(os.str().find("speedup"), std::string::npos);
    EXPECT_NE(os.str().find("alpha"), std::string::npos);
}

TEST(Report, ScalabilityCsvParsable)
{
    std::ostringstream os;
    core::scalabilityTable(fakeSweeps()).writeCsv(os);
    std::istringstream lines(os.str());
    std::string header;
    std::getline(lines, header);
    EXPECT_EQ(header,
              "app,threads,wall_ns,speedup,mutator_ns,gc_ns,gc_share,"
              "scalable");
    std::string line;
    std::size_t rows = 0;
    while (std::getline(lines, line))
        ++rows;
    EXPECT_EQ(rows, 6u);
}

TEST(Report, WorkloadDistributionTable)
{
    std::ostringstream os;
    core::workloadDistributionTable(fakeSweeps()).print(os);
    EXPECT_NE(os.str().find("eff-workers"), std::string::npos);
    EXPECT_EQ(countLines(os.str()), 9u);
}

TEST(Report, LockTablesTitleTheRightFigure)
{
    std::ostringstream a;
    core::lockAcquisitionTable(fakeSweeps()).print(a);
    EXPECT_NE(a.str().find("Fig. 1a"), std::string::npos);
    std::ostringstream b;
    core::lockContentionTable(fakeSweeps()).print(b);
    EXPECT_NE(b.str().find("Fig. 1b"), std::string::npos);
}

TEST(Report, LifespanCdfTableHasThresholdRows)
{
    std::ostringstream os;
    const auto sweeps = fakeSweeps();
    core::lifespanCdfTable("alpha", sweeps.at("alpha")).print(os);
    EXPECT_NE(os.str().find("1.00 KiB"), std::string::npos);
    EXPECT_NE(os.str().find("4T/4C"), std::string::npos);
}

TEST(Report, LifespanCsvHasAppColumn)
{
    std::ostringstream os;
    const auto sweeps = fakeSweeps();
    core::lifespanCdfTable("alpha", sweeps.at("alpha")).writeCsv(os);
    std::istringstream lines(os.str());
    std::string header;
    std::getline(lines, header);
    EXPECT_EQ(header, "app,threads,threshold_bytes,fraction_below");
}

TEST(Report, MutatorGcTable)
{
    std::ostringstream os;
    core::mutatorGcTable(fakeSweeps()).print(os);
    EXPECT_NE(os.str().find("Fig. 2"), std::string::npos);
    EXPECT_NE(os.str().find("mutator"), std::string::npos);
}

TEST(Report, SuspendWaitTableRenders)
{
    std::ostringstream os;
    core::suspendWaitTable(fakeSweeps()).print(os);
    EXPECT_NE(os.str().find("suspend/cpu"), std::string::npos);
    EXPECT_EQ(countLines(os.str()), 9u);
    std::ostringstream csv;
    core::suspendWaitTable(fakeSweeps()).writeCsv(csv);
    std::istringstream lines(csv.str());
    std::string header;
    std::getline(lines, header);
    EXPECT_EQ(header,
              "app,threads,mean_ready_ns,mean_blocked_ns,"
              "suspend_over_cpu,lifespan_lt_1k");
}

TEST(Report, UnmeasuredPointsRenderAsStatusRows)
{
    // A shard-skipped first point and a failed middle point: every
    // sweep table shows them as "-" rows ending in their status, leaves
    // them out of its CSV, and anchors ratios at the first measured
    // point (4 threads).
    SweepSet sweeps = fakeSweeps();
    for (auto &[app, sweep] : sweeps) {
        jvm::RunResult skipped;
        skipped.app_name = app;
        skipped.threads = 2;
        skipped.skipped = true;
        sweep.insert(sweep.begin() + 1, skipped);
        jvm::RunResult failed;
        failed.app_name = app;
        failed.threads = 1;
        failed.run_error = "missing from shard result cache";
        sweep.front() = failed;
    }
    const std::vector<ReportTable> tables = {
        core::scalabilityTable(sweeps),
        core::workloadDistributionTable(sweeps),
        core::lockAcquisitionTable(sweeps),
        core::lockContentionTable(sweeps),
        core::mutatorGcTable(sweeps),
        core::gcSurvivalTable(sweeps),
        core::suspendWaitTable(sweeps)};
    for (const ReportTable &t : tables) {
        std::ostringstream text, csv;
        t.print(text);
        t.writeCsv(csv);
        EXPECT_NE(text.str().find("skipped\n"), std::string::npos)
            << text.str();
        EXPECT_NE(text.str().find("failed\n"), std::string::npos)
            << text.str();
        // Header + 2 apps x 2 measured points.
        EXPECT_EQ(countLines(csv.str()), 5u) << csv.str();
        EXPECT_EQ(csv.str().find(",1,"), std::string::npos) << csv.str();
        EXPECT_EQ(csv.str().find(",2,"), std::string::npos) << csv.str();
    }

    std::ostringstream e1;
    core::scalabilityTable(sweeps).print(e1);
    EXPECT_NE(e1.str().find("alpha        2          -        -          -"),
              std::string::npos)
        << e1.str();
    std::ostringstream e3;
    core::lockAcquisitionTable(sweeps).print(e3);
    EXPECT_NE(e3.str().find("           400           1.00x"),
              std::string::npos)
        << e3.str();
    std::ostringstream e7;
    core::mutatorGcTable(sweeps).print(e7);
    EXPECT_NE(e7.str().find("1.6%             1.00"), std::string::npos)
        << e7.str();

    // The lifespan pivot shows "-" columns and keeps them out of CSV;
    // the USL fit uses the measured points only.
    std::ostringstream cdf, cdf_csv;
    const ReportTable lifespan =
        core::lifespanCdfTable("alpha", sweeps.at("alpha"));
    lifespan.print(cdf);
    lifespan.writeCsv(cdf_csv);
    EXPECT_NE(cdf.str().find("64.00 B         -      -    0.0%"),
              std::string::npos)
        << cdf.str();
    EXPECT_EQ(cdf_csv.str().find("alpha,2,"), std::string::npos);
    std::ostringstream usl;
    core::uslTable(sweeps).writeCsv(usl);
    EXPECT_NE(usl.str().find(",16,"), std::string::npos) << usl.str();
}

TEST(Report, RunSummaryContainsKeyMetrics)
{
    std::ostringstream os;
    core::printRunSummary(os, fakeRun("gamma", 8));
    const std::string s = os.str();
    EXPECT_NE(s.find("gamma"), std::string::npos);
    EXPECT_NE(s.find("wall time"), std::string::npos);
    EXPECT_NE(s.find("gc share"), std::string::npos);
    EXPECT_NE(s.find("lock contentions"), std::string::npos);
}

/**
 * A measured run with every field the table writers read filled from
 * simple arithmetic on (threads, k), so each table has distinct values.
 */
jvm::RunResult
pinnedRun(const std::string &app, std::uint32_t threads, std::uint64_t k)
{
    jvm::RunResult r = fakeRun(app, threads);
    r.wall_time = 4000000 * k / (threads + k) + 12345 * k;
    r.gc_time = 700 * threads * k + 31;
    r.total_tasks = 300 + 7 * threads;
    r.locks.acquisitions = 1000 * threads + 13 * k;
    r.locks.contentions = 40 * threads * threads / (k + 1);
    r.locks.block_time = 3333 * threads;
    r.locks.handoffs = 17 * threads;
    r.locks.circulation_sum = 29 * threads + k;
    r.locks.barged_grants = 3 * k;
    r.locks.waiters_passivated = threads / 2;
    r.locks.waiters_reactivated = threads / 4;
    r.locks.coherence_penalty = 999 * threads;
    for (std::uint64_t v = 1; v <= 40; ++v)
        r.locks.block_hist.add(v * 137 * threads);
    r.gc.full_count = k % 3;
    r.gc.copied_bytes = 123457 * threads;
    r.gc.promoted_bytes = 2345 * threads * k;
    r.gc.total_ttsp = 777 * threads;
    for (std::uint64_t v = 1; v <= 5; ++v) {
        r.gc.minor_pauses.add(static_cast<double>(1000 * v + threads));
        r.gc.nursery_survival.add(0.03 * static_cast<double>(v + k));
        r.gc.pause_hist.add(1000 * v * threads);
        r.heap.lifespan.add(64 * v * threads, 10 + v);
    }
    r.faults.injections = k;
    r.faults.recoveries = k / 2;
    r.faults.cores_offlined = k % 2;
    r.faults.mutators_killed = k % 3;
    r.faults.tasks_reassigned = 2 * k;
    std::uint32_t i = 0;
    for (jvm::ThreadSummary &ts : r.thread_summaries) {
        ts.cpu_time = 50000 + 1000 * i;
        ts.ready_time = 3000 * threads + 17 * i;
        ts.blocked_time = 1100 * k + 5 * i;
        ts.tasks_completed = (r.total_tasks + i) / threads;
        ++i;
    }
    return r;
}

/** A profiled, open-loop variant of pinnedRun(). */
jvm::RunResult
pinnedProfiledRun(const std::string &app, std::uint32_t threads,
                  std::uint64_t k)
{
    jvm::RunResult r = pinnedRun(app, threads, k);
    jvm::ProfileSummary &p = r.profile;
    p.enabled = true;
    p.tasks = 120 + k;
    p.tasks_discarded = k % 2;
    for (std::size_t b = 0; b < jvm::kWaitBucketCount; ++b) {
        // Bucket 6 (channel) stays empty: the text table hides it and
        // the CSV keeps it.
        if (b == 6)
            continue;
        p.bucket_total[b] = 1000 * (b + 1) * (b + k) + threads;
        for (std::uint64_t v = 1; v <= 3 + b; ++v)
            p.bucket_hist[b].add(v * 211 * (b + 1) + k);
    }
    for (std::uint64_t v = 1; v <= 60; ++v)
        p.latency.add(v * v * 97 + threads * k);
    jvm::SlowTaskRecord slow;
    slow.task = 42;
    slow.thread = 3;
    slow.start = 1000;
    slow.end = 91000 + k;
    slow.buckets[0] = 30000;
    slow.buckets[4] = 50000;
    slow.buckets[2] = 11000 + k;
    p.slowest.push_back(slow);
    p.lock_waits.push_back({7, 12345 * k, 9});
    p.lock_waits.push_back({3, 2345, 2});

    jvm::TrafficSummary &t = r.traffic;
    t.enabled = true;
    t.tenant = static_cast<std::uint32_t>(k % 2);
    t.arrival_spec = "poisson:rate=500.00:requests=400";
    t.arrivals = 400;
    t.admitted = 390 - k;
    t.shed = 10 + k;
    t.dispatched = 388 - k;
    t.completed = 385 - k;
    t.max_queue_depth = 21 + k;
    for (std::uint64_t v = 1; v <= 80; ++v) {
        t.sojourn.add(v * 1013 * threads + k);
        t.queueing.add(v * 311 + k);
        t.service.add(v * 701 * threads);
    }
    for (std::size_t b = 0; b < jvm::kWaitBucketCount; ++b)
        t.service_bucket_total[b] = b == 5 ? 0 : 900 * (b + 2) * (k + 1);
    return r;
}

/** FNV-1a, 64 bit. */
std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 14695981039346656037ULL;
    for (const unsigned char c : s) {
        h ^= c;
        h *= 1099511628211ULL;
    }
    return h;
}

struct PinnedTable
{
    const char *name;
    std::size_t text_len;
    std::uint64_t text_fnv;
    std::size_t csv_len;
    std::uint64_t csv_fnv;
};

TEST(Report, TableBytesArePinned)
{
    // Several apps and thread counts of measured points only: "alpha"
    // fits the USL, "beta" (two points, one informative) does not.
    SweepSet sweeps;
    // alpha follows a USL curve (sigma 0.05, kappa 0.01) with its
    // optimum inside the sweep.
    const Ticks alpha_walls[] = {3000000, 1605000, 952000, 716000, 778000};
    for (const std::uint32_t t : {1u, 2u, 4u, 8u, 16u}) {
        jvm::RunResult r = pinnedRun("alpha", t, 3);
        r.wall_time = alpha_walls[sweeps["alpha"].size()];
        sweeps["alpha"].push_back(std::move(r));
    }
    for (const std::uint32_t t : {1u, 8u})
        sweeps["beta"].push_back(pinnedRun("beta", t, 5));
    for (const std::uint32_t t : {2u, 4u, 8u})
        sweeps["gamma"].push_back(pinnedProfiledRun("gamma", t, 2));

    const jvm::RunResult profiled = pinnedProfiledRun("delta", 8, 4);
    const std::vector<jvm::RunResult> traffic = {
        profiled, pinnedProfiledRun("delta", 16, 7), pinnedRun("eps", 4, 1)};

    std::vector<core::ResiliencePoint> resilience;
    for (std::uint64_t k = 0; k < 3; ++k) {
        core::ResiliencePoint p;
        p.intensity = 0.25 * static_cast<double>(k);
        p.plan = "kill@" + std::to_string(k) + "ms";
        p.ungoverned = pinnedRun("xalan", 16, k + 1);
        p.governed = pinnedRun("xalan", 16, k + 2);
        p.governed.governor.enabled = true;
        p.governed.governor.final_target = 12 - static_cast<std::uint32_t>(k);
        resilience.push_back(std::move(p));
    }

    core::CollapseStudy collapse;
    collapse.threads = {1, 4, 16};
    for (const jvm::LockPolicy policy :
         {jvm::LockPolicy::Fifo, jvm::LockPolicy::Lcr}) {
        for (const bool governed : {false, true}) {
            core::CollapseArm arm;
            arm.policy = policy;
            arm.governed = governed;
            for (const std::uint32_t t : collapse.threads) {
                jvm::RunResult r = pinnedRun(
                    "hotlock", t, 1 + static_cast<std::uint64_t>(policy));
                r.governor.enabled = governed;
                r.governor.final_target = governed ? t / 2 + 1 : 0;
                arm.runs.push_back(std::move(r));
            }
            collapse.arms.push_back(std::move(arm));
        }
    }

    core::BlameStudy blame;
    for (const auto &[app, sweep] : sweeps) {
        for (const jvm::RunResult &r : sweep)
            blame.points.push_back({app, r.threads, r});
        core::BlameAppFit fit;
        fit.app = app;
        if (app == "alpha") {
            fit.usl.valid = true;
            fit.usl.sigma = 0.0123;
            fit.usl.kappa = 0.000456;
            fit.usl.n_star = 14.7;
        }
        fit.dominant = jvm::WaitBucket::Lock;
        blame.fits.push_back(fit);
    }

    core::TrafficStudy study;
    study.capacities.push_back({"sunflow", 8, 4321.5});
    study.capacities.push_back({"h2", 8, 0.0});
    for (std::uint64_t k = 0; k < 4; ++k) {
        core::TrafficPoint p;
        p.app = "sunflow";
        p.threads = 8;
        p.load_factor = 0.5 * static_cast<double>(k + 1);
        p.offered_rate = p.load_factor * 4321.5;
        p.arm = k < 3 ? "open" : "governed";
        p.run = pinnedProfiledRun("sunflow", 8, k);
        study.points.push_back(std::move(p));
    }
    study.knees.push_back({"sunflow", 8, 1.5, 880000, 120000});
    study.knees.push_back({"h2", 8, 0.0, 0, 0});

    const std::vector<std::pair<std::string, ReportTable>> tables = {
        {"E1", core::scalabilityTable(sweeps)},
        {"E2", core::workloadDistributionTable(sweeps)},
        {"E3", core::lockAcquisitionTable(sweeps)},
        {"E4", core::lockContentionTable(sweeps)},
        {"E5", core::lifespanCdfTable("alpha", sweeps["alpha"])},
        {"E7", core::mutatorGcTable(sweeps)},
        {"E8", core::gcSurvivalTable(sweeps)},
        {"E14", core::suspendWaitTable(sweeps)},
        {"E17", core::uslTable(sweeps)},
        {"blame", core::blameTable(profiled)},
        {"traffic", core::trafficTable(traffic)},
        {"E18", core::resilienceTable(resilience)},
        {"E19", core::collapseTable(collapse)},
        {"E20", core::blameStudyTable(blame)},
        {"E21", core::trafficStudyTable(study)},
    };

    // Recorded from the separate text and CSV writers the tables
    // replaced.
    const std::vector<PinnedTable> pinned = {
        {"E1", 1045, 0xf9946636d7596df9ULL, 508, 0xa13e2421ac04a536ULL},
        {"E2", 740, 0xc1996c9de5f5a58dULL, 334, 0x7c1d9f43c6e7d141ULL},
        {"E3", 584, 0x724e3fb7d372a6bbULL, 155, 0x0fb545d0108c3c0eULL},
        {"E4", 580, 0x31b9b29e2f1647d1ULL, 139, 0x0b81711b631a75fcULL},
        {"E5", 702, 0x9ee0f21fe73d9fedULL, 992, 0x2aa505bfa60a237cULL},
        {"E7", 1190, 0xe1893d602c566af0ULL, 460, 0x626651d76e4d9bb1ULL},
        {"E8", 1323, 0x06d6ba3d1509cfcbULL, 508, 0xd3bd344049214d9bULL},
        {"E14", 1006, 0xf7605371e5c8bf27ULL, 399, 0xea93b52e3201d017ULL},
        {"E17", 537, 0x671d25a6fccfcb5dULL, 267, 0xa40eb1ad8eeca73aULL},
        {"blame", 1549, 0xe10130e2838015f9ULL, 773, 0x0d0330a22a5600a8ULL},
        {"traffic", 949, 0xad8ec3d302529f62ULL, 645, 0x1fb9e5433e822ae4ULL},
        {"E18", 899, 0x917c68cca3cf250eULL, 490, 0xe1e0d4bcb0afc50dULL},
        {"E19", 1936, 0xfa684b48a138a1ccULL, 972, 0x758bce33fafb2d37ULL},
        {"E20", 1682, 0xdd26946652ac5c24ULL, 1693, 0xd85b522b2dc3b66eULL},
        {"E21", 1319, 0x08485cf725f2a6e2ULL, 875, 0x2543995c0acf71bdULL},
    };

    ASSERT_EQ(tables.size(), pinned.size());
    for (std::size_t i = 0; i < tables.size(); ++i) {
        const auto &[name, table] = tables[i];
        std::ostringstream text_os, csv_os;
        table.print(text_os);
        table.writeCsv(csv_os);
        const std::string text = text_os.str();
        const std::string csv = csv_os.str();
        char line[160];
        std::snprintf(line, sizeof(line),
                      "{\"%s\", %zu, 0x%016llxULL, %zu, 0x%016llxULL},",
                      name.c_str(), text.size(),
                      static_cast<unsigned long long>(fnv1a(text)),
                      csv.size(),
                      static_cast<unsigned long long>(fnv1a(csv)));
        const PinnedTable &want = pinned[i];
        EXPECT_EQ(name, want.name);
        EXPECT_EQ(text.size(), want.text_len) << line << "\n" << text;
        EXPECT_EQ(fnv1a(text), want.text_fnv) << line << "\n" << text;
        EXPECT_EQ(csv.size(), want.csv_len) << line << "\n" << csv;
        EXPECT_EQ(fnv1a(csv), want.csv_fnv) << line << "\n" << csv;
    }
}

} // namespace
