#include "harness/result_cache.hh"

#include <atomic>
#include <charconv>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string_view>

#include <unistd.h>

#include "common/hash.hh"
#include "common/log.hh"

namespace contest
{

namespace
{

/**
 * Publish @p payload at @p final_path atomically: write to a
 * uniquely named temp file in the same directory, verify every byte
 * reached the filesystem (the final flush at close() is where a full
 * disk surfaces), then rename into place. The temp name includes a
 * process-wide counter besides the pid so two pool threads storing
 * the same key never interleave writes into one temp file.
 */
bool
writeEntryAtomic(const std::string &final_path,
                 const std::string &payload)
{
    static std::atomic<std::uint64_t> tmpSerial{0};
    const std::string tmp_path =
        final_path + ".tmp." + std::to_string(getpid()) + "."
        + std::to_string(tmpSerial.fetch_add(1));
    std::error_code ec;
    {
        std::ofstream out(tmp_path, std::ios::binary);
        out.write(payload.data(),
                  static_cast<std::streamsize>(payload.size()));
        out.flush();
        // close() before checking: the destructor would swallow a
        // failed final flush, renaming a truncated entry into place.
        out.close();
        if (out.fail()) {
            warn("result cache: write to '%s' failed",
                 tmp_path.c_str());
            std::filesystem::remove(tmp_path, ec);
            return false;
        }
    }
    std::filesystem::rename(tmp_path, final_path, ec);
    if (ec) {
        warn("result cache: rename to '%s' failed: %s",
             final_path.c_str(), ec.message().c_str());
        std::filesystem::remove(tmp_path, ec);
        return false;
    }
    return true;
}

/** Append one key field, "tag=v0/v1/...;", the values in decimal
 *  (the digits an ostream would insert, so keys stay byte-stable). */
void
appendField(std::string &key, std::string_view tag,
            std::initializer_list<std::uint64_t> values)
{
    key.append(tag);
    key += '=';
    char digits[std::numeric_limits<std::uint64_t>::digits10 + 1];
    const char *sep = "";
    for (std::uint64_t v : values) {
        key += sep;
        key.append(digits,
                   std::to_chars(digits, digits + sizeof(digits), v).ptr);
        sep = "/";
    }
    key += ';';
}

void
appendCacheGeom(std::string &key, std::string_view tag,
                const CacheConfig &c)
{
    appendField(key, tag,
                {c.sets, c.assoc, c.blockBytes, c.latency.count(),
                 c.writeThrough, c.writeAllocate});
}

/** Little-endian binary writer. */
struct Writer
{
    std::string buf;

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }
};

/** Little-endian binary reader; any overrun poisons ok. */
struct Reader
{
    const std::string &buf;
    std::size_t pos = 0;
    bool ok = true;

    explicit Reader(const std::string &data) : buf(data) {}

    std::uint64_t
    u64()
    {
        if (pos + 8 > buf.size()) {
            ok = false;
            return 0;
        }
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(buf[pos + i]))
                 << (8 * i);
        pos += 8;
        return v;
    }

    double
    f64()
    {
        std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    bytes(std::size_t n)
    {
        if (pos + n > buf.size()) {
            ok = false;
            return {};
        }
        std::string s = buf.substr(pos, n);
        pos += n;
        return s;
    }
};

constexpr char cacheMagic[4] = {'C', 'T', 'R', 'C'};
/** Contest entries carry a distinct magic so the two entry kinds can
 *  never deserialize as one another, digest collisions included. */
constexpr char contestMagic[4] = {'C', 'T', 'C', 'T'};

void
writeStats(Writer &w, const CoreStats &s)
{
    w.u64(s.cycles.count());
    w.u64(s.retired);
    w.u64(s.injected);
    w.u64(s.condBranches);
    w.u64(s.mispredicts);
    w.u64(s.earlyResolves);
    w.u64(s.btbMissRedirects);
    w.u64(s.syscalls);
    w.u64(s.icacheMisses);
    w.u64(s.fetchStallBranch.count());
    w.u64(s.robFullStalls.count());
    w.u64(s.iqFullStalls.count());
    w.u64(s.lsqFullStalls.count());
    w.u64(s.storeQueueStalls.count());
    w.u64(s.syscallStalls.count());
}

void
readStats(Reader &r, CoreStats &s)
{
    s.cycles = Cycles{r.u64()};
    s.retired = r.u64();
    s.injected = r.u64();
    s.condBranches = r.u64();
    s.mispredicts = r.u64();
    s.earlyResolves = r.u64();
    s.btbMissRedirects = r.u64();
    s.syscalls = r.u64();
    s.icacheMisses = r.u64();
    s.fetchStallBranch = Cycles{r.u64()};
    s.robFullStalls = Cycles{r.u64()};
    s.iqFullStalls = Cycles{r.u64()};
    s.lsqFullStalls = Cycles{r.u64()};
    s.storeQueueStalls = Cycles{r.u64()};
    s.syscallStalls = Cycles{r.u64()};
}

void
writeEnergy(Writer &w, const EnergyBreakdown &e)
{
    w.f64(e.staticNj);
    w.f64(e.pipelineNj);
    w.f64(e.cacheNj);
    w.f64(e.bpredNj);
    w.f64(e.squashNj);
    w.f64(e.contestNj);
}

void
readEnergy(Reader &r, EnergyBreakdown &e)
{
    e.staticNj = r.f64();
    e.pipelineNj = r.f64();
    e.cacheNj = r.f64();
    e.bpredNj = r.f64();
    e.squashNj = r.f64();
    e.contestNj = r.f64();
}

/** Every CoreConfig field that shapes a simulation, in one canonical
 *  serialization shared by the single-run and contest keys. */
void
appendCoreConfig(std::string &key, const CoreConfig &core)
{
    key += "core=";
    key += core.name;
    key += ';';
    appendField(key, "memlat", {core.memAccessCycles.count()});
    appendField(key, "fed", {core.frontEndDepth});
    appendField(key, "width", {core.width});
    appendField(key, "rob", {core.robSize});
    appendField(key, "iq", {core.iqSize});
    appendField(key, "wakeup", {core.wakeupLatency.count()});
    appendField(key, "sched", {core.schedDepth.count()});
    appendField(key, "clock", {core.clockPeriodPs.count()});
    appendCacheGeom(key, "l1d", core.l1d);
    appendCacheGeom(key, "l2", core.l2);
    appendField(key, "lsq", {core.lsqSize});
    appendField(key, "l1dports", {core.l1dPorts});
    appendField(key, "mshrs", {core.mshrs});
    char bw[64];
    std::snprintf(bw, sizeof(bw), "bw=%.17g;",
                  core.memBandwidthBytesPerNs);
    key += bw;
    appendField(key, "btbmiss", {core.btbMissPenalty.count()});
    appendField(key, "syscall", {core.syscallHandlerCycles.count()});
    appendField(key, "bpred",
                {static_cast<std::uint64_t>(core.bpred.kind),
                 core.bpred.tableBits, core.bpred.historyBits,
                 core.bpred.localHistBits, core.bpred.localTableBits});
    appendField(key, "btb", {core.btb.sets, core.btb.assoc});
    appendField(key, "icache", {core.modelICache});
    appendCacheGeom(key, "l1i", core.l1i);
}

void
writeUnitStats(Writer &w, const UnitStats &s)
{
    w.u64(s.paired);
    w.u64(s.discarded);
    w.u64(s.broadcasts);
    w.u64(s.saturated ? 1 : 0);
    w.u64(s.parkedAt.count());
}

void
readUnitStats(Reader &r, UnitStats &s)
{
    s.paired = r.u64();
    s.discarded = r.u64();
    s.broadcasts = r.u64();
    s.saturated = r.u64() != 0;
    s.parkedAt = TimePs{r.u64()};
}

} // namespace

ResultCache::ResultCache(std::string cache_dir, int version)
    : dir(std::move(cache_dir)), formatVersion(version)
{
    fatal_if(dir.empty(),
             "ResultCache needs a non-empty cache directory");
}

std::string
ResultCache::singleRunKey(const CoreConfig &core,
                          const std::string &bench,
                          std::uint64_t seed, std::uint64_t trace_len)
{
    std::string key = "bench=";
    key.reserve(320);
    key += bench;
    key += ';';
    appendField(key, "seed", {seed});
    appendField(key, "len", {trace_len});
    appendCoreConfig(key, core);
    return key;
}

std::string
ResultCache::contestKey(const std::string &bench,
                        const std::vector<CoreConfig> &cores,
                        const ContestConfig &config,
                        std::uint64_t seed, std::uint64_t trace_len)
{
    std::string key = "contest;bench=";
    key.reserve(160 + 320 * cores.size());
    key += bench;
    key += ';';
    appendField(key, "seed", {seed});
    appendField(key, "len", {trace_len});
    appendField(key, "grb", {config.grbLatencyPs.count()});
    appendField(key, "fifo", {config.fifoCapacity});
    appendField(key, "sq", {config.storeQueueCapacity});
    appendField(key, "inj",
                {static_cast<std::uint64_t>(config.injectionStyle)});
    appendField(key, "early", {config.earlyBranchResolve});
    appendField(key, "park", {config.parkSaturatedLaggers});
    appendField(key, "exc", {config.syscallHandlerPs.count()});
    appendField(key, "intp", {config.interruptPeriodPs.count()});
    appendField(key, "inth", {config.interruptHandlerPs.count()});
    appendField(key, "wd", {config.deadlockStuckTicks});
    appendField(key, "ncores", {cores.size()});
    for (std::size_t i = 0; i < cores.size(); ++i) {
        key += '[';
        key += std::to_string(i);
        key += ']';
        appendCoreConfig(key, cores[i]);
    }
    return key;
}

std::string
ResultCache::entryStem(const std::string &key, int version)
{
    // The version participates in the digest, so a version bump
    // addresses different files; the header check in load() is the
    // guard against digest collisions and stale formats.
    char stem[17];
    std::snprintf(stem, sizeof(stem), "%016llx",
                  static_cast<unsigned long long>(fnv1a64(
                      std::to_string(version) + "|" + key)));
    return stem;
}

std::string
ResultCache::entryPath(const std::string &key) const
{
    return dir + "/" + entryStem(key, formatVersion) + ".bin";
}

bool
ResultCache::load(const std::string &key, SingleRunResult &result,
                  std::vector<TimePs> &regions) const
{
    std::ifstream in(entryPath(key), std::ios::binary);
    if (!in) {
        ++missCount;
        return false;
    }
    std::ostringstream raw;
    raw << in.rdbuf();
    const std::string data = raw.str();

    Reader r(data);
    std::string magic = r.bytes(sizeof(cacheMagic));
    if (!r.ok
        || std::memcmp(magic.data(), cacheMagic,
                       sizeof(cacheMagic)) != 0
        || static_cast<int>(r.u64()) != formatVersion) {
        ++missCount;
        return false;
    }
    std::string stored_key = r.bytes(r.u64());
    if (!r.ok || stored_key != key) {
        ++missCount;
        return false;
    }

    SingleRunResult out;
    out.timePs = TimePs{r.u64()};
    out.ipt = r.f64();
    readStats(r, out.stats);
    readEnergy(r, out.energy);
    std::vector<TimePs> series(r.u64());
    if (!r.ok || series.size() > data.size()) {
        // A corrupt length would reserve absurd memory; any entry's
        // series is necessarily smaller than the file that holds it.
        ++missCount;
        return false;
    }
    for (auto &t : series)
        t = TimePs{r.u64()};
    if (!r.ok || r.pos != data.size()) {
        ++missCount;
        return false;
    }

    result = out;
    regions = std::move(series);
    ++hitCount;
    return true;
}

void
ResultCache::store(const std::string &key,
                   const SingleRunResult &result,
                   const std::vector<TimePs> &regions) const
{
    Writer w;
    w.buf.append(cacheMagic, sizeof(cacheMagic));
    w.u64(static_cast<std::uint64_t>(formatVersion));
    w.u64(key.size());
    w.buf.append(key);
    w.u64(result.timePs.count());
    w.f64(result.ipt);
    writeStats(w, result.stats);
    writeEnergy(w, result.energy);
    w.u64(regions.size());
    for (TimePs t : regions)
        w.u64(t.count());

    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("result cache: cannot create '%s': %s", dir.c_str(),
             ec.message().c_str());
        return;
    }

    // Write-then-rename so a concurrent reader (another process
    // sharing the cache directory) never sees a partial entry.
    if (!writeEntryAtomic(entryPath(key), w.buf))
        return;
    ++storeCount;
}

bool
ResultCache::loadContest(const std::string &key,
                         ContestResult &result) const
{
    std::ifstream in(entryPath(key), std::ios::binary);
    if (!in) {
        ++missCount;
        return false;
    }
    std::ostringstream raw;
    raw << in.rdbuf();
    const std::string data = raw.str();

    Reader r(data);
    std::string magic = r.bytes(sizeof(contestMagic));
    if (!r.ok
        || std::memcmp(magic.data(), contestMagic,
                       sizeof(contestMagic)) != 0
        || static_cast<int>(r.u64()) != formatVersion) {
        ++missCount;
        return false;
    }
    std::string stored_key = r.bytes(r.u64());
    if (!r.ok || stored_key != key) {
        ++missCount;
        return false;
    }

    ContestResult out;
    out.timePs = TimePs{r.u64()};
    out.ipt = r.f64();
    std::uint64_t cores = r.u64();
    // Any per-core array longer than the file holding it announces a
    // corrupt count before the resize can reserve absurd memory.
    if (!r.ok || cores > data.size()) {
        ++missCount;
        return false;
    }
    out.coreStats.resize(cores);
    out.unitStats.resize(cores);
    out.leadFraction.resize(cores);
    out.energy.resize(cores);
    for (auto &s : out.coreStats)
        readStats(r, s);
    for (auto &s : out.unitStats)
        readUnitStats(r, s);
    for (auto &f : out.leadFraction)
        f = r.f64();
    out.leadChanges = r.u64();
    out.mergedStores = StoreSeq{r.u64()};
    out.exceptionsHandled = r.u64();
    out.interruptsHandled = r.u64();
    for (auto &e : out.energy)
        readEnergy(r, e);
    if (!r.ok || r.pos != data.size()) {
        ++missCount;
        return false;
    }

    result = std::move(out);
    ++hitCount;
    return true;
}

void
ResultCache::storeContest(const std::string &key,
                          const ContestResult &result) const
{
    // The entry is only valid if every per-core array agrees on the
    // core count; a malformed result must not poison the cache.
    const std::size_t cores = result.coreStats.size();
    if (result.unitStats.size() != cores
        || result.leadFraction.size() != cores
        || result.energy.size() != cores) {
        warn("result cache: refusing to store a contest entry with "
             "mismatched per-core array sizes");
        return;
    }

    Writer w;
    w.buf.append(contestMagic, sizeof(contestMagic));
    w.u64(static_cast<std::uint64_t>(formatVersion));
    w.u64(key.size());
    w.buf.append(key);
    w.u64(result.timePs.count());
    w.f64(result.ipt);
    w.u64(cores);
    for (const auto &s : result.coreStats)
        writeStats(w, s);
    for (const auto &s : result.unitStats)
        writeUnitStats(w, s);
    for (double f : result.leadFraction)
        w.f64(f);
    w.u64(result.leadChanges);
    w.u64(result.mergedStores.count());
    w.u64(result.exceptionsHandled);
    w.u64(result.interruptsHandled);
    for (const auto &e : result.energy)
        writeEnergy(w, e);

    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
        warn("result cache: cannot create '%s': %s", dir.c_str(),
             ec.message().c_str());
        return;
    }
    if (!writeEntryAtomic(entryPath(key), w.buf))
        return;
    ++storeCount;
}

} // namespace contest
