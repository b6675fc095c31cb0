/**
 * @file
 * Unit tests for the experiment harness: region logs, oracle
 * granularity fusion, the caching runner, and best-pair search.
 */

#include <gtest/gtest.h>

#include <thread>

#include "core/palette.hh"
#include "harness/runner.hh"

namespace contest
{
namespace
{

TEST(RegionLog, ClosesEveryTwentyInstructions)
{
    RegionLog log;
    TimePs now{};
    for (InstSeq seq{}; seq < 100; ++seq) {
        now += 10;
        log.onRetire(seq, now);
    }
    EXPECT_EQ(log.size(), 5u);
    for (std::size_t i = 0; i < log.size(); ++i)
        EXPECT_EQ(log[i], 200u); // 20 retirements x 10 ps
    EXPECT_EQ(log.total(), 1000u);
}

TEST(Fusion, PicksTheFasterSeriesPerBlock)
{
    // Config A is fast in even regions, B in odd regions.
    std::vector<TimePs> a{TimePs{10}, TimePs{100}, TimePs{10}, TimePs{100}};
    std::vector<TimePs> b{TimePs{100}, TimePs{10}, TimePs{100}, TimePs{10}};
    // Granularity 1 region: oracle gets 10 everywhere.
    EXPECT_EQ(fuseRegionTimes(a, b, 1), 40u);
    // Granularity 2 regions: each block is 110 on both.
    EXPECT_EQ(fuseRegionTimes(a, b, 2), 220u);
    // Whole-run granularity: min(220, 220).
    EXPECT_EQ(fuseRegionTimes(a, b, 4), 220u);
}

TEST(Fusion, HandlesUnequalLengths)
{
    std::vector<TimePs> a{TimePs{10}, TimePs{10}, TimePs{10}};
    std::vector<TimePs> b{TimePs{5}, TimePs{5}};
    EXPECT_EQ(fuseRegionTimes(a, b, 1), 10u);
}

TEST(Runner, CachesSingleRuns)
{
    Runner runner(8000, 1);
    const auto &first = runner.single("vpr", "vpr");
    const auto &again = runner.single("vpr", "vpr");
    EXPECT_EQ(&first, &again);
    EXPECT_GT(first.result.ipt, 0.0);
    EXPECT_EQ(first.regions->size(), 8000u / RegionLog::regionInsts);
}

TEST(Runner, TimelineSpansNameTheirCacheEntry)
{
    // An I-cache variant keeps its palette name; the span labels
    // still tell the two runs apart, by their entry-file stems.
    Runner runner(4000, 1);
    SimTimeline timeline;
    runner.setTimeline(&timeline);
    const CoreConfig own = coreConfigByName("vpr");
    const CoreConfig icache = [&] {
        CoreConfig c = own;
        c.modelICache = true;
        return c;
    }();
    runner.single("vpr", own);
    runner.single("vpr", icache);

    const auto spans = timeline.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_NE(spans[0].label, spans[1].label);
    for (const CoreConfig *config : {&own, &icache}) {
        const std::string label =
            "vpr@vpr#"
            + ResultCache::entryStem(
                ResultCache::singleRunKey(*config, "vpr", 1, 4000));
        EXPECT_TRUE(spans[0].label == label || spans[1].label == label)
            << label;
    }
}

TEST(Runner, FinishedPeekSeesOnlyCompletedRuns)
{
    Runner runner(4000, 1);
    const CoreConfig &vpr = coreConfigByName("vpr");
    EXPECT_EQ(runner.finishedSingle("vpr", vpr), nullptr);
    bool memo_hit = true;
    const LoggedRun &run = runner.single("vpr", vpr, 0, &memo_hit);
    EXPECT_FALSE(memo_hit);
    EXPECT_EQ(runner.finishedSingle("vpr", vpr), &run);
    // The trace-length rule matches single(): 0 and the configured
    // length name one entry, another length a different one.
    EXPECT_EQ(runner.finishedSingle("vpr", vpr, 4000), &run);
    EXPECT_EQ(runner.finishedSingle("vpr", vpr, 3000), nullptr);
    runner.single("vpr", vpr, 0, &memo_hit);
    EXPECT_TRUE(memo_hit);

    const std::vector<CoreConfig> pair = {vpr,
                                          coreConfigByName("gcc")};
    EXPECT_EQ(runner.finishedContest("vpr", pair, {}), nullptr);
    const ContestResult &result =
        runner.contested("vpr", pair, {}, 0, &memo_hit);
    EXPECT_FALSE(memo_hit);
    EXPECT_EQ(runner.finishedContest("vpr", pair, {}), &result);
    EXPECT_EQ(runner.simulationsPerformed(), 1u);
    EXPECT_EQ(runner.contestsPerformed(), 1u);
}

TEST(Runner, FinishedPeekFromAnotherThreadSeesTheWholeResult)
{
    // The peek's acquire load pairs with the latch's release store:
    // a reader that spins until the entry is finished reads the
    // result the computing thread wrote (the sanitizer jobs check
    // the pairing).
    Runner runner(4000, 2);
    const CoreConfig &gzip = coreConfigByName("gzip");
    const LoggedRun *seen = nullptr;
    TimePs seenTime{};
    std::vector<TimePs> seenSeries;
    std::thread peeker([&] {
        while ((seen = runner.finishedSingle("gzip", gzip)) == nullptr)
            std::this_thread::yield();
        seenTime = seen->result.timePs;
        seenSeries = seen->regions->series();
    });
    const LoggedRun &run = runner.single("gzip", gzip);
    peeker.join();
    EXPECT_EQ(seen, &run);
    EXPECT_EQ(seenTime, run.result.timePs);
    EXPECT_EQ(seenSeries, run.regions->series());
}

TEST(Runner, TraceIsSharedAcrossRuns)
{
    Runner runner(5000, 2);
    auto t1 = runner.trace("gcc");
    auto t2 = runner.trace("gcc");
    EXPECT_EQ(t1.get(), t2.get());
    EXPECT_EQ(t1->size(), 5000u);
}

TEST(Runner, MatrixCoversAllBenchmarksAndCores)
{
    Runner runner(4000, 3);
    const auto &m = runner.matrix();
    EXPECT_EQ(m.numBenches(), 11u);
    EXPECT_EQ(m.numCores(), 11u);
    m.validate();
    // Cached: same object on re-query.
    EXPECT_EQ(&m, &runner.matrix());
}

TEST(Runner, RegionLogTotalsMatchRunTime)
{
    Runner runner(8000, 4);
    const auto &run = runner.single("twolf", "twolf");
    // The region log accounts for every closed region; its total
    // cannot exceed the run time and must cover most of it.
    EXPECT_LE(run.regions->total(), run.result.timePs);
    EXPECT_GT(run.regions->total(), run.result.timePs / 2);
}

TEST(Runner, ContestedPairRuns)
{
    Runner runner(8000, 5);
    auto r = runner.contestedPair("gcc", "twolf", "gzip");
    EXPECT_GT(r.ipt, 0.0);
    EXPECT_EQ(r.coreStats.size(), 2u);
}

TEST(Runner, MatrixIsIdenticalForAnyJobCount)
{
    // The harness promises bit-identical results regardless of
    // concurrency: every matrix cell from a four-thread run must
    // compare exactly equal (not merely close) to the serial run.
    ThreadPool serial_pool(1);
    ThreadPool parallel_pool(4);
    Runner serial(4000, 3, &serial_pool);
    Runner parallel(4000, 3, &parallel_pool);
    const auto &ms = serial.matrix();
    const auto &mp = parallel.matrix();
    ASSERT_EQ(ms.numBenches(), mp.numBenches());
    ASSERT_EQ(ms.numCores(), mp.numCores());
    EXPECT_EQ(ms.benchNames, mp.benchNames);
    EXPECT_EQ(ms.coreNames, mp.coreNames);
    for (std::size_t b = 0; b < ms.numBenches(); ++b)
        for (std::size_t c = 0; c < ms.numCores(); ++c)
            EXPECT_EQ(ms.ipt[b][c], mp.ipt[b][c])
                << ms.benchNames[b] << " on " << ms.coreNames[c];
}

TEST(Runner, BestContestingPairIsIdenticalForAnyJobCount)
{
    ThreadPool serial_pool(1);
    ThreadPool parallel_pool(4);
    Runner serial(8000, 6, &serial_pool);
    Runner parallel(8000, 6, &parallel_pool);
    auto cs = serial.bestContestingPair("gcc", {}, 3);
    auto cp = parallel.bestContestingPair("gcc", {}, 3);
    EXPECT_EQ(cs.coreA, cp.coreA);
    EXPECT_EQ(cs.coreB, cp.coreB);
    EXPECT_EQ(cs.result.ipt, cp.result.ipt);
}

TEST(Runner, BestContestingPairBeatsOwnCore)
{
    Runner runner(20000, 6);
    auto choice = runner.bestContestingPair("gcc", {}, 3);
    EXPECT_FALSE(choice.coreA.empty());
    EXPECT_FALSE(choice.coreB.empty());
    EXPECT_NE(choice.coreA, choice.coreB);
    double own = runner.single("gcc", "gcc").result.ipt;
    // Contesting the best pair must at least match the benchmark's
    // own customized core (the paper's Figure 6 baseline).
    EXPECT_GT(choice.result.ipt, own * 0.98);
}

} // namespace
} // namespace contest
