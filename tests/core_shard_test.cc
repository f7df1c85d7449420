/**
 * @file
 * Sharded campaign tests: slice assignment (deterministic, disjoint,
 * covering, position-independent), the per-point run result cache
 * (lossless roundtrip, fingerprint binding, corruption tolerance) and
 * resuming a campaign through that cache.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "base/chaos.hh"
#include "core/experiment.hh"
#include "core/run_record.hh"
#include "core/shard.hh"
#include "test_dir.hh"

namespace {

using namespace jscale;

std::vector<std::string>
sampleKeys()
{
    std::vector<std::string> keys;
    for (const std::string app :
         {"sunflow", "lusearch", "xalan", "h2", "eclipse", "jython"})
        for (const std::uint32_t t : {1u, 2u, 4u, 8u, 16u, 32u})
            for (const std::uint64_t s : {1ull, 7ull, 0x51d5eaeull})
                keys.push_back(app + "|t" + std::to_string(t) + "|s" +
                               std::to_string(s));
    return keys;
}

TEST(ShardOfKey, EveryKeyLandsInExactlyOneSlice)
{
    for (std::uint32_t of = 1; of <= 8; ++of) {
        for (const std::string &key : sampleKeys()) {
            const std::uint32_t shard = shardOfKey(key, of);
            ASSERT_LT(shard, of) << key << " of=" << of;
            // Disjointness: exactly one ShardSpec owns each key.
            unsigned owners = 0;
            for (std::uint32_t i = 0; i < of; ++i)
                owners += core::ShardSpec{i, of}.owns(key) ? 1u : 0u;
            EXPECT_EQ(owners, 1u) << key << " of=" << of;
        }
    }
}

TEST(ShardOfKey, SlicesCoverAllShards)
{
    // With a realistic campaign-sized key set, no shard is starved.
    const auto keys = sampleKeys();
    for (std::uint32_t of = 2; of <= 8; ++of) {
        std::set<std::uint32_t> seen;
        for (const std::string &key : keys)
            seen.insert(shardOfKey(key, of));
        EXPECT_EQ(seen.size(), of) << "of=" << of;
    }
}

TEST(ShardOfKey, PositionIndependentAndStable)
{
    // The assignment is a pure function of the key: repeated calls and
    // calls interleaved with other keys agree, so adding or removing
    // campaign points never moves the surviving points across shards.
    const auto keys = sampleKeys();
    std::vector<std::uint32_t> first;
    for (const std::string &key : keys)
        first.push_back(shardOfKey(key, 5));
    for (std::size_t i = keys.size(); i-- > 0;)
        EXPECT_EQ(shardOfKey(keys[i], 5), first[i]) << keys[i];
}

TEST(ShardOfKey, DegenerateCountsMapToShardZero)
{
    EXPECT_EQ(shardOfKey("sunflow|t4|s1", 1), 0u);
    EXPECT_EQ(shardOfKey("sunflow|t4|s1", 0), 0u);
    EXPECT_FALSE((core::ShardSpec{0, 1}.active()));
    EXPECT_TRUE((core::ShardSpec{0, 2}.active()));
}

TEST(ShardRecordFileName, DistinctAndFilesystemSafe)
{
    std::set<std::string> names;
    for (const std::string &key : sampleKeys()) {
        const std::string name =
            core::RunCache::recordFileName(key, "fp-1");
        EXPECT_TRUE(names.insert(name).second) << name;
        EXPECT_EQ(name.find('/'), std::string::npos) << name;
        EXPECT_EQ(name.find('|'), std::string::npos) << name;
    }
    // Keys differing only in hash-sensitive characters stay distinct.
    EXPECT_NE(core::RunCache::recordFileName("h2|t4|s1", "fp-1"),
              core::RunCache::recordFileName("h2|t4|s2", "fp-1"));
    // So does one key under two fingerprints (two arms of a study); both
    // names keep the readable key prefix, and a long fingerprint adds
    // only a fixed-width hash, never its own length.
    const std::string fifo =
        core::RunCache::recordFileName("hotlock|t4|s1", "locks=fifo");
    const std::string lcr =
        core::RunCache::recordFileName("hotlock|t4|s1", "locks=lcr");
    EXPECT_NE(fifo, lcr);
    EXPECT_EQ(fifo.rfind("hotlock_t4_s1-", 0), 0u) << fifo;
    EXPECT_EQ(lcr.rfind("hotlock_t4_s1-", 0), 0u) << lcr;
    EXPECT_LT(core::RunCache::recordFileName("hotlock|t4|s1",
                                             std::string(4096, 'x'))
                  .size(),
              64u);
}

class RunCacheTest : public ::testing::Test
{
  protected:
    jvm::RunResult simulateOnce()
    {
        core::ExperimentConfig cfg;
        cfg.workload_scale = 0.05;
        cfg.seed = 11;
        core::ExperimentRunner runner(cfg);
        return runner.runApp("xalan", 4);
    }

    std::string canonical(const std::string &key, const jvm::RunResult &r)
    {
        std::ostringstream os;
        core::writeRunRecord(os, key, "fp-1", r);
        return os.str();
    }

    /** Sweep config with a run cache in this test's directory. */
    core::ExperimentConfig cachedSweepCfg() const
    {
        core::ExperimentConfig cfg;
        cfg.workload_scale = 0.05;
        cfg.heap_override = 32 * units::MiB; // calibration-free, faster
        cfg.run_cache_dir = dir_;
        return cfg;
    }

    testutil::ScopedTestDir scratch_;
    const std::string dir_ = scratch_.path();
};

TEST_F(RunCacheTest, StoreThenLoadIsLossless)
{
    const std::string key = "xalan|t4|s11";
    const jvm::RunResult original = simulateOnce();
    core::RunCache cache(dir_, "fp-1");
    cache.store(key, original);

    jvm::RunResult restored;
    ASSERT_TRUE(cache.load(key, restored));
    // Lossless: the restored result re-serializes to identical bytes,
    // which is exactly the property byte-identical merges rest on.
    EXPECT_EQ(canonical(key, restored), canonical(key, original));
}

TEST_F(RunCacheTest, MissingKeyIsAMiss)
{
    core::RunCache cache(dir_, "fp-1");
    jvm::RunResult out;
    EXPECT_FALSE(cache.load("h2|t8|s3", out));
}

TEST_F(RunCacheTest, ForeignFingerprintIsAMiss)
{
    const std::string key = "xalan|t4|s11";
    core::RunCache writer(dir_, "fp-1");
    writer.store(key, simulateOnce());

    // Same directory, differently configured campaign: never mix.
    core::RunCache reader(dir_, "fp-2");
    jvm::RunResult out;
    EXPECT_FALSE(reader.load(key, out));
}

TEST_F(RunCacheTest, CorruptRecordIsAMissNotAnAbort)
{
    const std::string key = "xalan|t4|s11";
    core::RunCache cache(dir_, "fp-1");
    cache.store(key, simulateOnce());

    const std::filesystem::path file =
        std::filesystem::path(dir_) /
        core::RunCache::recordFileName(key, "fp-1");
    // Truncate the record: the "end" trailer vanishes, as after a torn
    // write that somehow survived the atomic-rename protocol.
    const auto size = std::filesystem::file_size(file);
    std::filesystem::resize_file(file, size / 2);

    jvm::RunResult out;
    EXPECT_FALSE(cache.load(key, out));

    std::ofstream(file, std::ios::trunc) << "total garbage\n";
    EXPECT_FALSE(cache.load(key, out));
}

TEST_F(RunCacheTest, FailedMarkersRoundtrip)
{
    // Failed points are cached too, so retries do not re-run
    // deterministic aborts and merges render honest failure rows.
    jvm::RunResult marker;
    marker.app_name = "h2";
    marker.threads = 8;
    marker.run_error = "watchdog: no progress for 5000 ticks";
    core::RunCache cache(dir_, "fp-1");
    cache.store("h2|t8|s3", marker);

    jvm::RunResult out;
    ASSERT_TRUE(cache.load("h2|t8|s3", out));
    EXPECT_TRUE(out.failed());
    EXPECT_EQ(out.run_error, marker.run_error);
    EXPECT_EQ(out.app_name, "h2");
    EXPECT_EQ(out.threads, 8u);
}

TEST_F(RunCacheTest, TwoFingerprintsWithOneKeyCoexist)
{
    // The arms of one study (e.g. collapse's admission policies) share
    // run keys but not fingerprints; neither may overwrite the other.
    const std::string key = "hotlock|t4|s1";
    jvm::RunResult fifo;
    fifo.app_name = "hotlock";
    fifo.threads = 4;
    fifo.run_error = "fifo arm";
    jvm::RunResult lcr = fifo;
    lcr.run_error = "lcr arm";
    core::RunCache fifo_cache(dir_, "locks=fifo");
    core::RunCache lcr_cache(dir_, "locks=lcr");
    fifo_cache.store(key, fifo);
    lcr_cache.store(key, lcr);

    jvm::RunResult out;
    ASSERT_TRUE(fifo_cache.load(key, out));
    EXPECT_EQ(out.run_error, "fifo arm");
    ASSERT_TRUE(lcr_cache.load(key, out));
    EXPECT_EQ(out.run_error, "lcr arm");
    const auto files = std::distance(
        std::filesystem::directory_iterator(dir_),
        std::filesystem::directory_iterator());
    EXPECT_EQ(files, 2);
}

TEST_F(RunCacheTest, StoreAfterCorruptionPublishesCleanRecord)
{
    // A corrupt record is a miss, the point re-runs, and its store
    // replaces the bad file so the next process salvages it.
    const std::string key = "h2|t8|s3";
    core::RunCache cache(dir_, "fp-1");
    const std::filesystem::path file =
        std::filesystem::path(dir_) /
        core::RunCache::recordFileName(key, "fp-1");
    std::ofstream(file) << "jscale-run v1\ntorn";

    jvm::RunResult out;
    EXPECT_FALSE(cache.load(key, out));
    jvm::RunResult marker;
    marker.app_name = "h2";
    marker.threads = 8;
    marker.run_error = "watchdog";
    cache.store(key, marker);
    ASSERT_TRUE(cache.load(key, out));
    EXPECT_EQ(out.run_error, "watchdog");
}

TEST_F(RunCacheTest, ResumedSweepSalvagesCompletedRuns)
{
    // A plain, uncached sweep is the reference.
    core::ExperimentConfig plain_cfg = cachedSweepCfg();
    plain_cfg.run_cache_dir.clear();
    core::ExperimentRunner plain(plain_cfg);
    const auto reference = plain.sweep("sunflow", {2, 4, 8});

    // First campaign: both points run and are stored.
    core::resetCampaignPointStats();
    {
        core::ExperimentRunner runner(cachedSweepCfg());
        runner.sweep("sunflow", {2, 4});
    }
    EXPECT_EQ(core::campaignPointStats().executed.load(), 2u);

    // Extending the sweep salvages both finished points with their full
    // results and runs only the new one.
    core::resetCampaignPointStats();
    core::ExperimentRunner runner(cachedSweepCfg());
    const auto resumed = runner.sweep("sunflow", {2, 4, 8});
    EXPECT_EQ(core::campaignPointStats().salvaged.load(), 2u);
    EXPECT_EQ(core::campaignPointStats().executed.load(), 1u);
    ASSERT_EQ(resumed.size(), reference.size());
    for (std::size_t i = 0; i < resumed.size(); ++i) {
        EXPECT_FALSE(resumed[i].skipped);
        EXPECT_GT(resumed[i].total_tasks, 0u);
        EXPECT_EQ(canonical("p", resumed[i]), canonical("p", reference[i]))
            << "point " << i;
    }
}

TEST_F(RunCacheTest, ChangedSeedReRunsEveryPoint)
{
    {
        core::ExperimentRunner runner(cachedSweepCfg());
        runner.sweep("sunflow", {2});
    }
    core::ExperimentConfig cfg = cachedSweepCfg();
    cfg.seed = 4711; // different campaign fingerprint
    core::resetCampaignPointStats();
    core::ExperimentRunner runner(cfg);
    const auto results = runner.sweep("sunflow", {2});
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(core::campaignPointStats().salvaged.load(), 0u);
    EXPECT_EQ(core::campaignPointStats().executed.load(), 1u);
    EXPECT_GT(results[0].total_tasks, 0u);
}

/**
 * Checkpoint/resume: the run cache is the only record of finished
 * campaign points, so the durability guarantees the old ledger gave
 * are pinned here against it.
 */
class CheckpointTest : public RunCacheTest
{
  protected:
    /** The one record in the cache directory whose name starts @p prefix. */
    std::filesystem::path recordStartingWith(const std::string &prefix) const
    {
        std::vector<std::filesystem::path> hits;
        for (const auto &e : std::filesystem::directory_iterator(dir_))
            if (e.path().filename().string().rfind(prefix, 0) == 0)
                hits.push_back(e.path());
        EXPECT_EQ(hits.size(), 1u) << prefix;
        return hits.empty() ? std::filesystem::path() : hits.front();
    }

    static jvm::RunResult marker(const std::string &app, std::uint32_t t)
    {
        jvm::RunResult r;
        r.app_name = app;
        r.threads = t;
        r.run_error = app + " t" + std::to_string(t);
        return r;
    }
};

TEST_F(CheckpointTest, RecordedKeysSurviveReload)
{
    {
        core::RunCache cache(dir_, "fp-1");
        cache.store("xalan|t4|s1", marker("xalan", 4));
        cache.store("xalan|t8|s2", marker("xalan", 8));
        cache.store("xalan|t4|s1", marker("xalan", 4)); // re-store: one file
    }
    // A fresh instance (a later process) finds every stored point.
    core::RunCache reloaded(dir_, "fp-1");
    jvm::RunResult out;
    ASSERT_TRUE(reloaded.load("xalan|t4|s1", out));
    EXPECT_EQ(out.run_error, "xalan t4");
    ASSERT_TRUE(reloaded.load("xalan|t8|s2", out));
    EXPECT_EQ(out.run_error, "xalan t8");
    EXPECT_FALSE(reloaded.load("xalan|t16|s3", out));
    const auto files = std::distance(
        std::filesystem::directory_iterator(dir_),
        std::filesystem::directory_iterator());
    EXPECT_EQ(files, 2);
}

TEST_F(CheckpointTest, FingerprintMismatchStartsFresh)
{
    {
        core::RunCache cache(dir_, "fp-1");
        cache.store("xalan|t4|s1", marker("xalan", 4));
    }
    core::RunCache other(dir_, "fp-2");
    jvm::RunResult out;
    EXPECT_FALSE(other.load("xalan|t4|s1", out));
    // Storing under the new fingerprint is visible to that campaign
    // and leaves the first campaign's point untouched.
    other.store("h2|t2|s9", marker("h2", 2));
    core::RunCache reread(dir_, "fp-2");
    ASSERT_TRUE(reread.load("h2|t2|s9", out));
    EXPECT_EQ(out.run_error, "h2 t2");
    EXPECT_FALSE(reread.load("xalan|t4|s1", out));
    ASSERT_TRUE(core::RunCache(dir_, "fp-1").load("xalan|t4|s1", out));
    EXPECT_EQ(out.run_error, "xalan t4");
}

TEST_F(CheckpointTest, MissingFileLoadsEmpty)
{
    // A cache directory that was never created is simply empty.
    core::RunCache cache(scratch_.file("never-created"), "fp-1");
    jvm::RunResult out;
    EXPECT_FALSE(cache.load("xalan|t4|s1", out));
    EXPECT_FALSE(std::filesystem::exists(scratch_.file("never-created")));
}

TEST_F(CheckpointTest, TornTrailingEntryIsDroppedNotFatal)
{
    core::ExperimentConfig plain_cfg = cachedSweepCfg();
    plain_cfg.run_cache_dir.clear();
    const auto reference =
        core::ExperimentRunner(plain_cfg).sweep("sunflow", {2, 4});
    {
        core::ExperimentRunner runner(cachedSweepCfg());
        runner.sweep("sunflow", {2, 4});
    }
    // Simulate a record cut short mid-write: the 4T point loses its tail.
    const std::filesystem::path torn = recordStartingWith("sunflow_t4_");
    std::filesystem::resize_file(torn, std::filesystem::file_size(torn) / 2);

    // The torn point re-executes rather than being trusted; the intact
    // one is salvaged, and the campaign matches a plain run.
    core::resetCampaignPointStats();
    core::ExperimentRunner runner(cachedSweepCfg());
    const auto resumed = runner.sweep("sunflow", {2, 4});
    EXPECT_EQ(core::campaignPointStats().salvaged.load(), 1u);
    EXPECT_EQ(core::campaignPointStats().executed.load(), 1u);
    ASSERT_EQ(resumed.size(), reference.size());
    for (std::size_t i = 0; i < resumed.size(); ++i)
        EXPECT_EQ(canonical("p", resumed[i]), canonical("p", reference[i]))
            << "point " << i;
}

TEST_F(CheckpointTest, GarbageLinesAreSkippedNotFatal)
{
    {
        core::ExperimentRunner runner(cachedSweepCfg());
        runner.sweep("sunflow", {2});
    }
    // Disk corruption: junk in a stray file, and junk appended after a
    // valid record's trailer.
    std::ofstream(scratch_.file("scribble"), std::ios::binary)
        << "\x01\x02\xffscribble\n";
    std::ofstream(recordStartingWith("sunflow_t2_"),
                  std::ios::app | std::ios::binary)
        << "\x01\x02\xffscribble\n";

    core::resetCampaignPointStats();
    core::ExperimentRunner runner(cachedSweepCfg());
    const auto results = runner.sweep("sunflow", {2, 4});
    // Neither junk is fatal: the complete 2T record is still salvaged,
    // and only the new point runs.
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(core::campaignPointStats().salvaged.load(), 1u);
    EXPECT_EQ(core::campaignPointStats().executed.load(), 1u);
    EXPECT_EQ(core::campaignPointStats().failed.load(), 0u);
    for (const auto &r : results)
        EXPECT_GT(r.total_tasks, 0u);
}

TEST(CampaignPointStatsTest, ResetZeroesEveryCounter)
{
    core::campaignPointStats().salvaged += 3;
    core::campaignPointStats().executed += 2;
    core::campaignPointStats().failed += 1;
    core::campaignPointStats().missing += 4;
    core::campaignPointStats().skipped += 5;
    core::resetCampaignPointStats();
    EXPECT_EQ(core::campaignPointStats().salvaged.load(), 0u);
    EXPECT_EQ(core::campaignPointStats().executed.load(), 0u);
    EXPECT_EQ(core::campaignPointStats().failed.load(), 0u);
    EXPECT_EQ(core::campaignPointStats().missing.load(), 0u);
    EXPECT_EQ(core::campaignPointStats().skipped.load(), 0u);
}

} // namespace
