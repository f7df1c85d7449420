/**
 * @file
 * RunResult codec tests: a full simulated result roundtrips through the
 * "jscale-run v1" text record losslessly, and the reader rejects every
 * flavor of bad record — wrong header, foreign key or fingerprint,
 * torn writes, garbage — instead of silently mixing results.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/experiment.hh"
#include "core/report.hh"
#include "core/run_record.hh"

namespace {

using namespace jscale;

jvm::RunResult
simulate(const std::string &app, std::uint32_t threads)
{
    core::ExperimentConfig cfg;
    cfg.workload_scale = 0.05;
    cfg.seed = 23;
    cfg.profile = true;
    core::ExperimentRunner runner(cfg);
    return runner.runApp(app, threads);
}

std::string
record(const jvm::RunResult &r, const std::string &key = "k",
       const std::string &fp = "fp")
{
    std::ostringstream os;
    core::writeRunRecord(os, key, fp, r);
    return os.str();
}

TEST(RunRecord, FullResultRoundtripsToIdenticalBytes)
{
    // A profiled run populates the deep sections (Welford summaries,
    // histograms, per-thread rows, blame profile); re-serializing the
    // parsed record must reproduce the original bytes exactly.
    const jvm::RunResult original = simulate("h2", 8);
    const std::string bytes = record(original);

    std::istringstream is(bytes);
    jvm::RunResult restored;
    std::string err;
    ASSERT_TRUE(core::readRunRecord(is, "k", "fp", restored, err)) << err;
    EXPECT_EQ(record(restored), bytes);
}

TEST(RunRecord, RestoredResultRendersIdentically)
{
    // Byte-identical merge output requires the renderer to see exactly
    // the same values, not just "close" doubles.
    const jvm::RunResult original = simulate("sunflow", 4);
    std::istringstream is(record(original));
    jvm::RunResult restored;
    std::string err;
    ASSERT_TRUE(core::readRunRecord(is, "k", "fp", restored, err)) << err;

    std::ostringstream a, b;
    const core::SweepSet sa{{original.app_name, {original}}};
    const core::SweepSet sb{{restored.app_name, {restored}}};
    core::scalabilityTable(sa).render(a, true);
    core::blameTable(original).render(a, true);
    core::scalabilityTable(sb).render(b, true);
    core::blameTable(restored).render(b, true);
    EXPECT_EQ(a.str(), b.str());
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

TEST(RunRecord, RecordBytesArePinned)
{
    // Existing --cache-dir records must stay readable, so the bytes of
    // a record with every section populated (profiled, open loop) are
    // pinned.
    core::ExperimentConfig cfg;
    cfg.workload_scale = 0.05;
    cfg.seed = 23;
    cfg.profile = true;
    cfg.arrivals = "poisson:rate=500:requests=200";
    core::ExperimentRunner runner(cfg);
    const std::string bytes = record(runner.runApp("sunflow", 4));
    ASSERT_NE(bytes.find("\nu profile.enabled 1\n"), std::string::npos);
    ASSERT_NE(bytes.find("\nu traffic.enabled 1\n"), std::string::npos);
    EXPECT_EQ(bytes.size(), 7909u);
    EXPECT_EQ(fnv1a(bytes), 0x06bd0de44a955ccfULL);
}

TEST(RunRecord, RejectsWrongHeader)
{
    std::istringstream is("jscale-run v99\nkey k\nend\n");
    jvm::RunResult out;
    std::string err;
    EXPECT_FALSE(core::readRunRecord(is, "k", "fp", out, err));
    EXPECT_FALSE(err.empty());
}

TEST(RunRecord, RejectsForeignKeyAndFingerprint)
{
    const std::string bytes = record(simulate("xalan", 2));
    jvm::RunResult out;
    std::string err;
    {
        std::istringstream is(bytes);
        EXPECT_FALSE(core::readRunRecord(is, "other-key", "fp", out, err));
    }
    {
        std::istringstream is(bytes);
        EXPECT_FALSE(core::readRunRecord(is, "k", "other-fp", out, err));
    }
}

TEST(RunRecord, RejectsTornRecord)
{
    // A record cut off anywhere before its "end" trailer reads as a
    // miss: the atomic-rename protocol should prevent this, but the
    // reader is the last line of defense.
    const std::string bytes = record(simulate("xalan", 2));
    jvm::RunResult out;
    std::string err;
    for (const double frac : {0.25, 0.5, 0.9}) {
        std::istringstream is(
            bytes.substr(0, static_cast<std::size_t>(bytes.size() * frac)));
        EXPECT_FALSE(core::readRunRecord(is, "k", "fp", out, err)) << frac;
    }
}

TEST(RunRecord, RejectsGarbage)
{
    jvm::RunResult out;
    std::string err;
    {
        std::istringstream is("");
        EXPECT_FALSE(core::readRunRecord(is, "k", "fp", out, err));
    }
    {
        std::istringstream is("\x01\x02\x03 not a record");
        EXPECT_FALSE(core::readRunRecord(is, "k", "fp", out, err));
    }
}

TEST(RunRecord, FailedMarkerRoundtrips)
{
    jvm::RunResult marker;
    marker.app_name = "eclipse";
    marker.threads = 16;
    marker.run_error = "sim-time guard: exceeded budget";
    const std::string bytes = record(marker);

    std::istringstream is(bytes);
    jvm::RunResult restored;
    std::string err;
    ASSERT_TRUE(core::readRunRecord(is, "k", "fp", restored, err)) << err;
    EXPECT_EQ(restored.run_error, marker.run_error);
    EXPECT_EQ(record(restored), bytes);
}

} // namespace
