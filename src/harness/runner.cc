#include "harness/runner.hh"

#include <algorithm>

#include "common/log.hh"

namespace contest
{

namespace
{

/** Timeline label of a contested run: bench @ core+core+... */
std::string
contestLabel(const std::string &bench,
             const std::vector<CoreConfig> &cores)
{
    std::string label = bench + '@';
    for (std::size_t i = 0; i < cores.size(); ++i) {
        if (i > 0)
            label += '+';
        label += cores[i].name;
    }
    return label;
}

/** Timeline label of a run: @p what, then '#' and the stem of @p
 *  key's ResultCache entry file, so every span names its entry. */
std::string
spanLabel(std::string what, const std::string &key)
{
    what += '#';
    what += ResultCache::entryStem(key);
    return what;
}

} // namespace

Runner::Runner(std::uint64_t trace_len, std::uint64_t seed,
               ThreadPool *pool)
    : len(trace_len), seed_(seed),
      pool_(pool != nullptr ? pool : &ThreadPool::global())
{
    fatal_if(trace_len < RegionLog::regionInsts,
             "Runner: trace length %llu too short",
             static_cast<unsigned long long>(trace_len));
    // Steady-state sizes of the full suite (11 benches x 11 cores
    // singles, a few hundred distinct contests); reserving up front
    // keeps each shard mutex's critical section to a probe that
    // never rehashes.
    traces.reserve(32);
    singles.reserve(256);
    contests.reserve(512);
}

TracePtr
Runner::trace(const std::string &bench, std::uint64_t trace_len)
{
    const std::uint64_t use_len = trace_len != 0 ? trace_len : len;
    TraceEntry *entry = traces.entryFor(
        HashedKey(bench + '\x1f' + std::to_string(use_len)));
    std::call_once(entry->once, [&] {
        entry->value = makeBenchmarkTrace(bench, seed_, use_len);
    });
    return entry->value;
}

const LoggedRun &
Runner::single(const std::string &bench, const std::string &core)
{
    return single(bench, coreConfigByName(core));
}

HashedKey
Runner::singleKey(const std::string &bench, const CoreConfig &config,
                  std::uint64_t trace_len) const
{
    // The persistent-cache key doubles as the memo key, so a config
    // variant that keeps its palette name never aliases its
    // namesake.
    return HashedKey(ResultCache::singleRunKey(
        config, bench, seed_, trace_len != 0 ? trace_len : len));
}

HashedKey
Runner::contestKey(const std::string &bench,
                   const std::vector<CoreConfig> &cores,
                   const ContestConfig &config,
                   std::uint64_t trace_len) const
{
    // One canonical string serves as the in-memory memo key and, on
    // a miss, the persistent-cache key: two contested() calls agree
    // on it iff they are the same deterministic simulation.
    return HashedKey(ResultCache::contestKey(
        bench, cores, config, seed_, trace_len != 0 ? trace_len : len));
}

const LoggedRun &
Runner::single(const std::string &bench, const CoreConfig &config,
               std::uint64_t trace_len, bool *memo_hit)
{
    auto queued = SimTimeline::now();
    const std::uint64_t use_len = trace_len != 0 ? trace_len : len;
    const HashedKey key = singleKey(bench, config, use_len);
    SingleEntry *entry = singles.entryFor(key, memo_hit);
    std::call_once(entry->once, [&] {
        auto start = SimTimeline::now();
        LoggedRun &run = entry->run;

        // Persistent layer first: a disk hit restores the result and
        // region series without generating the trace or simulating.
        SingleRunResult restored;
        std::vector<TimePs> series;
        const bool cached = disk != nullptr
                            && disk->load(key.key, restored, series);
        if (cached) {
            run.result = restored;
            run.regions = std::make_shared<RegionLog>(std::move(series));
            ++diskHitCount;
        } else {
            run.regions = std::make_shared<RegionLog>();
            RegionLog *log = run.regions.get();
            run.result = runSingle(config, trace(bench, use_len),
                                   [log](InstSeq seq, TimePs now) {
                                       log->onRetire(seq, now);
                                   });
            ++simsDone;
            if (disk != nullptr)
                disk->store(key.key, run.result,
                            run.regions->series());
        }
        if (timeline_ != nullptr)
            timeline_->record(SimTimeline::Kind::Single,
                              spanLabel(bench + '@' + config.name,
                                        key.key),
                              queued, start, SimTimeline::now(),
                              cached);
        entry->ready.store(true, std::memory_order_release);
    });
    return entry->run;
}

const LoggedRun *
Runner::finishedSingle(const std::string &bench,
                       const CoreConfig &config,
                       std::uint64_t trace_len)
{
    const SingleEntry *entry =
        singles.find(singleKey(bench, config, trace_len));
    return entry != nullptr
                   && entry->ready.load(std::memory_order_acquire)
               ? &entry->run
               : nullptr;
}

const ContestResult &
Runner::contested(const std::string &bench,
                  const std::vector<CoreConfig> &cores,
                  const ContestConfig &config,
                  std::uint64_t trace_len, bool *memo_hit)
{
    auto queued = SimTimeline::now();
    const std::uint64_t use_len = trace_len != 0 ? trace_len : len;
    const HashedKey key = contestKey(bench, cores, config, use_len);
    ContestEntry *entry = contests.entryFor(key, memo_hit);
    std::call_once(entry->once, [&] {
        auto start = SimTimeline::now();
        const bool cached =
            disk != nullptr
            && disk->loadContest(key.key, entry->result);
        if (cached) {
            ++contestDiskHitCount;
        } else {
            ContestSystem sys(cores, trace(bench, use_len), config);
            entry->result = sys.run();
            ++contestsDone;
            if (disk != nullptr)
                disk->storeContest(key.key, entry->result);
        }
        if (timeline_ != nullptr)
            timeline_->record(SimTimeline::Kind::Contest,
                              spanLabel(contestLabel(bench, cores),
                                        key.key),
                              queued, start, SimTimeline::now(),
                              cached);
        entry->ready.store(true, std::memory_order_release);
    });
    return entry->result;
}

const ContestResult *
Runner::finishedContest(const std::string &bench,
                        const std::vector<CoreConfig> &cores,
                        const ContestConfig &config,
                        std::uint64_t trace_len)
{
    const ContestEntry *entry =
        contests.find(contestKey(bench, cores, config, trace_len));
    return entry != nullptr
                   && entry->ready.load(std::memory_order_acquire)
               ? &entry->result
               : nullptr;
}

const ContestResult &
Runner::contestedPair(const std::string &bench,
                      const std::string &core_a,
                      const std::string &core_b,
                      const ContestConfig &config)
{
    return contested(
        bench, {coreConfigByName(core_a), coreConfigByName(core_b)},
        config);
}

const IptMatrix &
Runner::matrix()
{
    std::call_once(matrixOnce, [&] {
        auto m = std::make_unique<IptMatrix>();
        m->benchNames = profileNames();
        for (const auto &core : appendixAPalette())
            m->coreNames.push_back(core.name);

        // Warm every (bench, core) cell concurrently; each run is
        // self-contained, so the assembly below reads the same
        // values a serial sweep would have produced.
        const std::size_t nc = m->coreNames.size();
        pool_->parallelFor(
            m->benchNames.size() * nc, [&](std::size_t i) {
                single(m->benchNames[i / nc], m->coreNames[i % nc]);
            });

        for (const auto &bench : m->benchNames) {
            std::vector<double> row;
            for (const auto &core : m->coreNames)
                row.push_back(single(bench, core).result.ipt);
            m->ipt.push_back(std::move(row));
        }
        m->validate();
        cachedMatrix = std::move(m);
    });
    return *cachedMatrix;
}

Runner::PairChoice
Runner::bestContestingPair(const std::string &bench,
                           const ContestConfig &config,
                           unsigned simulate_top)
{
    fatal_if(simulate_top == 0, "bestContestingPair: nothing to try");

    const auto &palette = appendixAPalette();

    // Warm the per-core single runs concurrently before ranking;
    // each lookup builds a content key, so the ranking reuses these.
    std::vector<const LoggedRun *> runs(palette.size());
    pool_->parallelFor(palette.size(), [&](std::size_t i) {
        runs[i] = &single(bench, palette[i].name);
    });

    // Rank all pairs by the oracle fusion of their region logs at a
    // fine granularity (the Figure 1 estimate of fine-grain
    // switching benefit), then contest the most promising ones.
    struct Ranked
    {
        double fusedIpt;
        std::size_t a;
        std::size_t b;
    };
    std::vector<Ranked> ranked;
    for (std::size_t a = 0; a < palette.size(); ++a) {
        const LoggedRun &ra = *runs[a];
        for (std::size_t b = a + 1; b < palette.size(); ++b) {
            const LoggedRun &rb = *runs[b];
            TimePs fused = fuseRegionTimes(ra.regions->series(),
                                           rb.regions->series(), 4);
            std::uint64_t insts =
                std::min(ra.regions->size(), rb.regions->size())
                * RegionLog::regionInsts;
            ranked.push_back(
                Ranked{instPerNs(InstSeq{insts}, fused), a, b});
        }
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const Ranked &x, const Ranked &y) {
                  return x.fusedIpt > y.fusedIpt;
              });

    // Contest the top candidates concurrently (each run is memoized
    // under its own once-latch), then pick the winner in ranked
    // order so ties resolve exactly as the serial scan did.
    std::size_t tried = std::min<std::size_t>(simulate_top,
                                              ranked.size());
    std::vector<const ContestResult *> results(tried);
    pool_->parallelFor(tried, [&](std::size_t i) {
        results[i] = &contestedPair(bench, palette[ranked[i].a].name,
                                    palette[ranked[i].b].name,
                                    config);
    });

    PairChoice best;
    double best_ipt = -1.0;
    for (std::size_t i = 0; i < tried; ++i) {
        if (results[i]->ipt > best_ipt) {
            best_ipt = results[i]->ipt;
            best.coreA = palette[ranked[i].a].name;
            best.coreB = palette[ranked[i].b].name;
            best.result = *results[i];
        }
    }
    panic_if(best_ipt < 0.0, "bestContestingPair tried no pairs");
    return best;
}

} // namespace contest
