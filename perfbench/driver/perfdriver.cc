/**
 * @file
 * Measurement driver of the repository benchmark (perfbench/README.md).
 * It links the repository's libraries and times calls into their
 * public functions from outside the program:
 *
 *   perfdriver sim-cold    --seed S --seconds T [--spans FILE]
 *   perfdriver fig06-check --artifact FILE --seed S --trace-len L
 *   perfdriver serve-skew  --serve-bin BIN --socket PATH --seed S
 *                          --seconds T [--spans FILE]
 *
 * Input sizes are constants here; README.md records them.
 *
 * Each subcommand prints one JSON document of raw samples, counters
 * and check failures on stdout; run.py turns it into metrics. With
 * --spans, spans (name, start, end, parent) are kept in memory at
 * each layer boundary and written to FILE when the run ends.
 */

#include <dirent.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/rng.hh"
#include "contest/system.hh"
#include "core/palette.hh"
#include "serve/client.hh"
#include "serve/frame.hh"
#include "serve/protocol.hh"
#include "trace/generator.hh"
#include "trace/profile.hh"

namespace
{

using namespace contest;
using Clock = std::chrono::steady_clock;

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

JsonValue
num(double v)
{
    return JsonValue::number(v);
}

JsonValue
numbers(const std::vector<double> &vs)
{
    JsonValue arr = JsonValue::array();
    for (double v : vs)
        arr.push(num(v));
    return arr;
}

/** Spans recorded in memory; a no-op unless enabled. Thread-safe. */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : on(enabled), epoch(Clock::now()) {}

    bool enabled() const { return on; }

    double at(Clock::time_point t) const { return secondsBetween(epoch, t); }

    /** Record a finished span; returns its id (-1 when off). */
    int
    add(const std::string &name, Clock::time_point start,
        Clock::time_point end, int parent)
    {
        return addAt(name, at(start), at(end), parent);
    }

    int
    addAt(const std::string &name, double start, double end, int parent)
    {
        if (!on)
            return -1;
        std::lock_guard<std::mutex> lock(mu);
        spans.push_back({name, start, end, parent});
        return static_cast<int>(spans.size()) - 1;
    }

    /** Open a span whose end is set by close(). */
    int
    open(const std::string &name, int parent)
    {
        const double t = at(Clock::now());
        return addAt(name, t, t, parent);
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        const double t = at(Clock::now());
        std::lock_guard<std::mutex> lock(mu);
        spans[static_cast<std::size_t>(id)].end = t;
    }

    bool
    write(const std::string &path) const
    {
        std::lock_guard<std::mutex> lock(mu);
        std::ofstream out(path);
        out << "{\"spans\": [\n";
        for (std::size_t i = 0; i < spans.size(); ++i) {
            const Span &s = spans[i];
            out << "[\"" << jsonEscape(s.name) << "\", " << jsonNumber(s.start)
                << ", " << jsonNumber(s.end) << ", " << s.parent << "]"
                << (i + 1 < spans.size() ? ",\n" : "\n");
        }
        out << "]}\n";
        return static_cast<bool>(out);
    }

  private:
    struct Span
    {
        std::string name;
        double start;
        double end;
        int parent;
    };

    bool on;
    Clock::time_point epoch;
    mutable std::mutex mu;
    std::vector<Span> spans;
};

/** FNV-1a over the text of every simulated statistic. */
class Digest
{
  public:
    void
    add(const std::string &line)
    {
        for (unsigned char c : line + '\n') {
            h ^= c;
            h *= 0x100000001b3ull;
        }
    }

    std::string
    hex() const
    {
        char buf[17];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(h));
        return buf;
    }

  private:
    std::uint64_t h = 0xcbf29ce484222325ull;
};

std::string
statsLine(const std::string &label, const CoreStats &s)
{
    std::ostringstream o;
    o << label << " cycles=" << s.cycles.count() << " retired=" << s.retired
      << " mispredicts=" << s.mispredicts << " injected=" << s.injected;
    return o.str();
}

/** Command-line flags as a name -> value map ("--x v" or "--x=v"). */
std::map<std::string, std::string>
parseFlags(int argc, char **argv, int first)
{
    std::map<std::string, std::string> flags;
    for (int i = first; i < argc; ++i) {
        std::string a = argv[i];
        if (a.rfind("--", 0) != 0) {
            std::fprintf(stderr, "perfdriver: unexpected '%s'\n", argv[i]);
            std::exit(2);
        }
        const auto eq = a.find('=');
        if (eq != std::string::npos) {
            flags[a.substr(2, eq - 2)] = a.substr(eq + 1);
        } else if (i + 1 < argc) {
            flags[a.substr(2)] = argv[++i];
        } else {
            std::fprintf(stderr, "perfdriver: %s needs a value\n", argv[i]);
            std::exit(2);
        }
    }
    return flags;
}

std::string
flag(const std::map<std::string, std::string> &flags,
     const std::string &name, const std::string &def = "")
{
    const auto it = flags.find(name);
    if (it != flags.end())
        return it->second;
    if (def.empty()) {
        std::fprintf(stderr, "perfdriver: --%s is required\n", name.c_str());
        std::exit(2);
    }
    return def;
}

std::uint64_t
flagU64(const std::map<std::string, std::string> &flags,
        const std::string &name, const std::string &def = "")
{
    return std::strtoull(flag(flags, name, def).c_str(), nullptr, 10);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/** Relative equality for values computed two ways in floating point. */
bool
nearlyEqual(double a, double b)
{
    return std::fabs(a - b) <= 1e-12 * std::max(std::fabs(a), std::fabs(b));
}

// ---------------------------------------------------------------- sim-cold

/** One timed simulation of a sim-cold round. */
struct SimOp
{
    enum class Kind { Single, Contest2, ContestN };
    Kind kind;
    std::size_t bench;
    std::vector<std::size_t> cores; //!< palette indexes
};

/** Palette index of the core customized for @p bench. */
std::size_t
ownCore(const std::string &bench)
{
    const auto &palette = appendixAPalette();
    for (std::size_t i = 0; i < palette.size(); ++i)
        if (palette[i].name == bench)
            return i;
    std::fprintf(stderr, "perfdriver: no core named %s\n", bench.c_str());
    std::exit(1);
}

/** The fixed operations of one round over the 11 benchmarks. */
std::vector<SimOp>
simColdRound(const std::vector<std::string> &benches, std::size_t ncores)
{
    std::vector<SimOp> ops;
    for (std::size_t b = 0; b < benches.size(); ++b) {
        const std::size_t own = ownCore(benches[b]);
        const std::size_t a = (own + 4) % ncores;
        const std::size_t c = (own + 8) % ncores;
        ops.push_back({SimOp::Kind::Single, b, {own}});
        ops.push_back({SimOp::Kind::Single, b, {a}});
        ops.push_back({SimOp::Kind::Contest2, b, {own, a}});
        if (b == 1 || b == 6) {
            ops.push_back({SimOp::Kind::Single, b, {c}});
            ops.push_back({SimOp::Kind::ContestN, b, {own, a, c}});
        } else if (b == 3) {
            const std::size_t d = (own + 2) % ncores;
            ops.push_back({SimOp::Kind::Single, b, {c}});
            ops.push_back({SimOp::Kind::Single, b, {d}});
            ops.push_back({SimOp::Kind::ContestN, b, {own, a, c, d}});
        }
    }
    return ops;
}

int
runSimCold(const std::map<std::string, std::string> &flags)
{
    const std::uint64_t seed = flagU64(flags, "seed");
    const double seconds = std::stod(flag(flags, "seconds"));
    const std::uint64_t len = 100'000;
    const std::string spansPath = flag(flags, "spans", "-");
    Tracer tr(spansPath != "-");

    const std::vector<std::string> benches = profileNames();
    std::vector<std::string> errors;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    // Set-up: the palette plus every benchmark's trace. It is done
    // again before every round, so the reported set-up time is a median
    // over set-ups spread across the run, which see the same host as
    // the simulations.
    std::vector<TracePtr> traces;
    std::vector<double> setupS;
    std::vector<CoreConfig> palette;
    auto setup = [&] {
        traces.clear();
        const auto t0 = Clock::now();
        const int setupSpan = tr.open("setup", -1);
        palette = appendixAPalette();
        for (const std::string &b : benches) {
            const auto g0 = Clock::now();
            traces.push_back(makeBenchmarkTrace(b, seed, len));
            tr.add("trace.gen", g0, Clock::now(), setupSpan);
        }
        tr.close(setupSpan);
        setupS.push_back(secondsBetween(t0, Clock::now()));
    };
    setup();
    const std::vector<SimOp> round =
        simColdRound(benches, palette.size());
    JsonValue opSeconds = JsonValue::array(); //!< per round, per op
    JsonValue counters = JsonValue::object();
    std::string firstDigest;
    std::vector<std::string> firstOpDigests; //!< round 0's, per op
    double elapsed = 0.0;
    std::size_t nrounds = 0;
    const auto m0 = Clock::now();
    // Whole rounds only; another starts while it is expected to end
    // within the measured time.
    while (nrounds == 0
           || elapsed + elapsed / static_cast<double>(nrounds) <= seconds) {
        setup();
        const int roundSpan = tr.open("round", -1);
        JsonValue opS = JsonValue::array();
        double cycles = 0, mispredicts = 0, icacheMisses = 0;
        double coreCycles = 0, broadcasts = 0, received = 0, paired = 0;
        double discarded = 0, injected = 0, leadChanges = 0, parked = 0;
        Digest digest;
        std::map<std::pair<std::size_t, std::size_t>, double> singleIpt;

        for (std::size_t o = 0; o < round.size(); ++o) {
            const SimOp &op = round[o];
            ++attempted;
            const std::size_t errorsBefore = errors.size();
            const TracePtr &trace = traces[op.bench];
            std::string label = benches[op.bench] + "@";
            for (std::size_t i = 0; i < op.cores.size(); ++i)
                label += (i ? "+" : "") + palette[op.cores[i]].name;
            if (trace->size() != len)
                errors.push_back(label + ": trace has "
                                 + std::to_string(trace->size())
                                 + " instructions");
            // The round's digest, and this simulation's own, which every
            // later round must reproduce.
            Digest opDigest;
            auto note = [&](const std::string &line) {
                digest.add(line);
                opDigest.add(line);
            };

            if (op.kind == SimOp::Kind::Single) {
                const CoreConfig &cfg = palette[op.cores[0]];
                const auto t0 = Clock::now();
                const SingleRunResult r = runSingle(cfg, trace);
                const auto t1 = Clock::now();
                tr.add("core.single", t0, t1, roundSpan);
                opS.push(num(secondsBetween(t0, t1)));
                cycles += static_cast<double>(r.stats.cycles.count());
                mispredicts += static_cast<double>(r.stats.mispredicts);
                icacheMisses += static_cast<double>(r.stats.icacheMisses);
                singleIpt[{op.bench, op.cores[0]}] = r.ipt;
                note(statsLine(label, r.stats) + " time_ps="
                     + std::to_string(r.timePs.count()));

                const double ipc = r.stats.ipc();
                if (r.stats.retired != trace->size())
                    errors.push_back(label + ": retired "
                                     + std::to_string(r.stats.retired));
                if (!(ipc > 0.0 && ipc <= cfg.width))
                    errors.push_back(label + ": IPC "
                                     + std::to_string(ipc));
                const double ipt = static_cast<double>(trace->size())
                    / (static_cast<double>(r.timePs.count()) / 1000.0);
                if (!nearlyEqual(r.ipt, ipt))
                    errors.push_back(label + ": IPT != insts / time_ps");
            } else {
                std::vector<CoreConfig> cfgs;
                for (std::size_t c : op.cores)
                    cfgs.push_back(palette[c]);
                const auto t0 = Clock::now();
                ContestSystem sys(cfgs, trace);
                const ContestResult r = sys.run();
                const auto t1 = Clock::now();
                tr.add(op.kind == SimOp::Kind::Contest2 ? "contest.run2"
                                                        : "contest.nway",
                       t0, t1, roundSpan);
                opS.push(num(secondsBetween(t0, t1)));
                leadChanges += static_cast<double>(r.leadChanges);

                double leadSum = 0.0, best = 0.0, totalBcast = 0.0;
                for (const UnitStats &u : r.unitStats)
                    totalBcast += static_cast<double>(u.broadcasts);
                for (std::size_t i = 0; i < op.cores.size(); ++i) {
                    const CoreStats &cs = r.coreStats[i];
                    const UnitStats &us = r.unitStats[i];
                    const double recv =
                        totalBcast - static_cast<double>(us.broadcasts);
                    coreCycles += static_cast<double>(cs.cycles.count());
                    broadcasts += static_cast<double>(us.broadcasts);
                    received += recv;
                    paired += static_cast<double>(us.paired);
                    discarded += static_cast<double>(us.discarded);
                    injected += static_cast<double>(cs.injected);
                    parked += us.saturated ? 1.0 : 0.0;
                    leadSum += r.leadFraction[i];
                    best = std::max(best,
                                    singleIpt[{op.bench, op.cores[i]}]);
                    note(statsLine(label + "#" + std::to_string(i), cs));
                    if (static_cast<double>(us.paired) > recv)
                        errors.push_back(label + ": paired > received");
                    if (cs.injected > us.paired + cs.earlyResolves)
                        errors.push_back(label
                                         + ": injected > paired + early");
                }
                note(label + " lead_changes="
                     + std::to_string(r.leadChanges) + " time_ps="
                     + std::to_string(r.timePs.count()));
                if (std::fabs(leadSum - 1.0) > 1e-9)
                    errors.push_back(label + ": lead fractions sum to "
                                     + std::to_string(leadSum));
                if (r.ipt < 0.95 * best)
                    errors.push_back(label + ": IPT below 0.95x best core");
            }
            if (nrounds == 0)
                firstOpDigests.push_back(opDigest.hex());
            else if (opDigest.hex() != firstOpDigests[o])
                errors.push_back(label + ": round " + std::to_string(nrounds)
                                 + " simulated differently from round 0");
            if (errors.size() != errorsBefore)
                ++failed;
        }
        tr.close(roundSpan);

        opSeconds.push(std::move(opS));

        if (nrounds == 0) {
            firstDigest = digest.hex();
            counters.set("core.cycles", num(cycles));
            counters.set("contest.core_cycles", num(coreCycles));
            counters.set("bpred.mispredicts", num(mispredicts));
            counters.set("mem.icache_misses", num(icacheMisses));
            counters.set("contest.broadcasts", num(broadcasts));
            counters.set("contest.paired", num(paired));
            counters.set("contest.pair_ratio",
                         num(received > 0 ? paired / received : 0.0));
            counters.set("contest.discarded", num(discarded));
            counters.set("contest.injected", num(injected));
            counters.set("contest.lead_changes", num(leadChanges));
            counters.set("contest.parked", num(parked));
        }
        ++nrounds;
        elapsed = secondsBetween(m0, Clock::now());
    }

    JsonValue out = JsonValue::object();
    out.set("setup_s", numbers(setupS));
    out.set("trace_insts",
            num(static_cast<double>(len * benches.size())));
    out.set("op_s", std::move(opSeconds));
    JsonValue opKind = JsonValue::array();
    JsonValue opInsts = JsonValue::array();
    for (const SimOp &op : round) {
        opKind.push(num(static_cast<double>(op.kind)));
        opInsts.push(num(static_cast<double>(traces[op.bench]->size())));
    }
    out.set("op_kind", std::move(opKind));
    out.set("op_insts", std::move(opInsts));
    out.set("counters", std::move(counters));
    out.set("digest", JsonValue::str(firstDigest));
    out.set("peak_rss_mb", num(peakRssMb()));
    out.set("attempted", num(static_cast<double>(attempted)));
    out.set("failed", num(static_cast<double>(failed)));
    JsonValue errs = JsonValue::array();
    for (const std::string &e : errors)
        errs.push(JsonValue::str(e));
    out.set("errors", std::move(errs));
    if (tr.enabled() && !tr.write(spansPath)) {
        std::fprintf(stderr, "perfdriver: cannot write %s\n",
                     spansPath.c_str());
        return 1;
    }
    std::printf("%s\n", out.dump(0).c_str());
    return 0;
}

// ------------------------------------------------------------- fig06-check

/** Recompute every fig06 row's own-core and contest IPT directly. */
int
runFig06Check(const std::map<std::string, std::string> &flags)
{
    const std::string path = flag(flags, "artifact");
    const std::uint64_t seed = flagU64(flags, "seed");
    const std::uint64_t len = flagU64(flags, "trace-len");
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    std::string perr;
    const JsonValue doc = JsonValue::parse(text.str(), &perr);
    std::vector<std::string> errors;
    std::size_t rows = 0;
    const JsonValue *tables = doc.isObject() ? doc.find("tables") : nullptr;
    if (tables == nullptr || !tables->isArray() || tables->size() == 0) {
        errors.push_back(path + ": no tables (" + perr + ")");
    } else {
        for (const JsonValue &row :
             tables->elements()[0].at("rows").elements()) {
            const auto &cells = row.elements();
            const std::string bench = cells[0].asString();
            const double own = cells[1].at("v").asNumber();
            const double contested = cells[2].at("v").asNumber();
            const std::string pair = cells[3].asString();
            const auto plus = pair.find('+');
            const TracePtr trace = makeBenchmarkTrace(bench, seed, len);
            const double ownNow =
                runSingle(coreConfigByName(bench), trace).ipt;
            ContestSystem sys({coreConfigByName(pair.substr(0, plus)),
                               coreConfigByName(pair.substr(plus + 1))},
                              trace);
            const double contestNow = sys.run().ipt;
            if (ownNow != own)
                errors.push_back("fig06 " + bench + ": own-core IPT "
                                 + jsonNumber(own) + " but runSingle gives "
                                 + jsonNumber(ownNow));
            if (contestNow != contested)
                errors.push_back("fig06 " + bench + ": contest IPT "
                                 + jsonNumber(contested)
                                 + " but ContestSystem::run gives "
                                 + jsonNumber(contestNow));
            ++rows;
        }
    }
    JsonValue out = JsonValue::object();
    out.set("rows", num(static_cast<double>(rows)));
    JsonValue errs = JsonValue::array();
    for (const std::string &e : errors)
        errs.push(JsonValue::str(e));
    out.set("errors", std::move(errs));
    std::printf("%s\n", out.dump(0).c_str());
    return 0;
}

// -------------------------------------------------------------- serve-skew

/** One request key of the serve key set. */
struct ServeKey
{
    std::string bench;
    std::vector<std::string> cores; //!< one core: a single request
    JsonValue request;
};

std::vector<ServeKey>
serveKeys()
{
    const std::vector<std::string> benches = profileNames();
    const auto &palette = appendixAPalette();
    const std::size_t n = palette.size();
    std::vector<ServeKey> keys;
    for (std::size_t b = 0; b < benches.size(); ++b) {
        const std::size_t o = ownCore(benches[b]);
        const std::string own = palette[o].name;
        const std::string a = palette[(o + 4) % n].name;
        const std::string c = palette[(o + 8) % n].name;
        for (const std::vector<std::string> &cores :
             std::vector<std::vector<std::string>>{
                 {own}, {a}, {c}, {own, a}, {own, c}, {a, c}}) {
            ServeKey k{benches[b], cores, JsonValue::object()};
            if (cores.size() == 1) {
                k.request.set("kind", JsonValue::str("single"));
                k.request.set("bench", JsonValue::str(benches[b]));
                k.request.set("core", JsonValue::str(cores[0]));
            } else {
                k.request.set("kind", JsonValue::str("contest"));
                k.request.set("bench", JsonValue::str(benches[b]));
                JsonValue arr = JsonValue::array();
                for (const std::string &name : cores)
                    arr.push(JsonValue::str(name));
                k.request.set("cores", std::move(arr));
            }
            keys.push_back(std::move(k));
        }
    }
    return keys;
}

/** What the client saw of one request. */
struct Reply
{
    bool ok = false;
    bool warm = false;
    bool shortLived = false;
    double sentS = 0.0; //!< since the phase began
    double rttMs = 0.0;
    double queueMs = 0.0;
    double runMs = 0.0;
    double ipt = 0.0;
    double timePs = 0.0;
};

void
readReply(const JsonValue &resp, Reply &r)
{
    const JsonValue *ok = resp.isObject() ? resp.find("ok") : nullptr;
    r.ok = ok != nullptr && ok->isBool() && ok->asBool();
    if (!r.ok)
        return;
    r.ipt = resp.at("ipt").asNumber();
    r.timePs = resp.at("time_ps").asNumber();
    const JsonValue &timing = resp.at("timing");
    r.queueMs = timing.at("queue_ms").asNumber();
    r.runMs = timing.at("run_ms").asNumber();
    r.warm = timing.at("warm").asBool();
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/** A contest_serve child process. */
class Daemon
{
  public:
    Daemon(const std::vector<std::string> &argv)
    {
        std::vector<char *> args;
        for (const std::string &a : argv)
            args.push_back(const_cast<char *>(a.c_str()));
        args.push_back(nullptr);
        pid = fork();
        if (pid == 0) {
            // Die with the driver; keep its stdout for its JSON document.
            prctl(PR_SET_PDEATHSIG, SIGKILL);
            dup2(2, 1);
            execv(args[0], args.data());
            _exit(127);
        }
    }

    ~Daemon() { stop(); }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    pid_t id() const { return pid; }

    /** Wait up to @p seconds for exit, then kill; returns the status. */
    int
    stop(double seconds = 10.0)
    {
        if (pid <= 0)
            return status;
        const auto t0 = Clock::now();
        while (waitpid(pid, &status, WNOHANG) == 0) {
            if (secondsBetween(t0, Clock::now()) > seconds) {
                kill(pid, SIGKILL);
                waitpid(pid, &status, 0);
                break;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        pid = -1;
        return status;
    }

  private:
    pid_t pid = -1;
    int status = -1;
};

/** Fields of /proc/<pid>/status in kB or counts, plus open fds. */
std::map<std::string, double>
procGauges(pid_t pid)
{
    std::map<std::string, double> g;
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line)) {
        const auto colon = line.find(':');
        if (colon == std::string::npos)
            continue;
        const std::string key = line.substr(0, colon);
        if (key == "VmHWM" || key == "VmRSS" || key == "Threads")
            g[key] = std::strtod(line.c_str() + colon + 1, nullptr);
    }
    double fds = 0;
    if (DIR *d = opendir(("/proc/" + std::to_string(pid) + "/fd").c_str())) {
        while (const dirent *e = readdir(d))
            fds += e->d_name[0] != '.';
        closedir(d);
    }
    g["fds"] = fds;
    return g;
}

double
statNumber(const JsonValue &stats, const char *group, const char *field)
{
    return stats.at("server").at(group).at(field).asNumber();
}

int
runServeSkew(const std::map<std::string, std::string> &flags)
{
    const std::string bin = flag(flags, "serve-bin");
    const std::string socketBase = flag(flags, "socket");
    const std::uint64_t seed = flagU64(flags, "seed");
    const double seconds = std::stod(flag(flags, "seconds"));
    // The daemon's workers and the client's persistent connections: no
    // more than the host's CPUs.
    const std::size_t conns =
        std::clamp(std::thread::hardware_concurrency(), 1u, 2u);
    const std::uint64_t len = 20'000;
    // The warm stream: requests, the short-lived connections among
    // them, the blocks it is measured in, and its Zipf exponent.
    const std::size_t warmN = 40'000;
    const std::size_t shortN = 64;
    const std::size_t blocks = 10;
    const double zipfS = 0.99;
    const std::string spansPath = flag(flags, "spans", "-");
    Tracer tr(spansPath != "-");

    const std::vector<ServeKey> keys = serveKeys();
    Rng rng(seed);
    // Cold order: a seeded shuffle of the key set.
    std::vector<std::size_t> coldOrder(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        coldOrder[i] = i;
    for (std::size_t i = keys.size(); i > 1; --i)
        std::swap(coldOrder[i - 1],
                  coldOrder[static_cast<std::size_t>(rng.uniform() * i)]);
    // Warm stream: Zipf(s) over a seeded ranking of the keys.
    std::vector<std::size_t> rank(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i)
        rank[i] = i;
    for (std::size_t i = keys.size(); i > 1; --i)
        std::swap(rank[i - 1],
                  rank[static_cast<std::size_t>(rng.uniform() * i)]);
    std::vector<double> cdf(keys.size());
    double total = 0.0;
    for (std::size_t i = 0; i < keys.size(); ++i) {
        total += 1.0 / std::pow(static_cast<double>(i + 1), zipfS);
        cdf[i] = total;
    }
    std::vector<std::size_t> warmStream(warmN);
    for (std::size_t &k : warmStream) {
        const double u = rng.uniform() * total;
        const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
        k = rank[std::min<std::size_t>(it - cdf.begin(), keys.size() - 1)];
    }
    std::vector<char> shortAt(warmN, 0);
    for (std::size_t i = 0; i < shortN; ++i)
        shortAt[(2 * i + 1) * warmN / (2 * shortN)] = 1;

    std::vector<std::string> errors;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<Reply> firstCold(keys.size());
    // Per key, the requests that passed every check made per cycle.
    std::vector<std::uint64_t> passed(keys.size(), 0);
    JsonValue cycles = JsonValue::array();
    std::vector<JsonValue> lastWarmReplies;
    double elapsed = 0.0;
    std::size_t ncycles = 0;
    const auto m0 = Clock::now();

    while (ncycles == 0
           || elapsed + elapsed / static_cast<double>(ncycles) <= seconds) {
        const int cycleSpan = tr.open("serve.cycle", -1);
        ServeTarget target;
        target.unixPath = socketBase + "." + std::to_string(ncycles);
        ::unlink(target.unixPath.c_str());

        // Set-up: launch until the daemon answers ping.
        const auto s0 = Clock::now();
        Daemon daemon({bin, "--socket", target.unixPath, "--jobs",
                       std::to_string(conns),
                       "--trace-len", std::to_string(len), "--seed",
                       std::to_string(seed), "--quiet"});
        JsonValue ping = JsonValue::object();
        ping.set("kind", JsonValue::str("ping"));
        bool up = false;
        while (!up && secondsBetween(s0, Clock::now()) < 20.0) {
            ServeClient probe;
            JsonValue pong;
            up = probe.connect(target, nullptr)
                && probe.call(ping, pong, nullptr);
            if (!up)
                std::this_thread::sleep_for(std::chrono::microseconds(500));
        }
        const auto s1 = Clock::now();
        tr.add("serve.setup", s0, s1, cycleSpan);
        ++attempted;
        if (!up) {
            errors.push_back("daemon did not answer ping");
            ++failed;
            break;
        }

        std::vector<std::unique_ptr<ServeClient>> clients;
        for (std::size_t c = 0; c < conns; ++c) {
            clients.push_back(std::make_unique<ServeClient>());
            if (!clients.back()->connect(target, nullptr))
                errors.push_back("cannot connect");
        }
        JsonValue statsReq = JsonValue::object();
        statsReq.set("kind", JsonValue::str("stats"));
        auto stats = [&] {
            JsonValue resp;
            clients[0]->call(statsReq, resp, nullptr);
            return resp;
        };

        // Drive @p order closed-loop over the persistent connections;
        // indexes marked in @p shortLived go over a fresh connection.
        auto drive = [&](const std::vector<std::size_t> &order,
                         const std::vector<char> *shortLived,
                         std::vector<Reply> &replies, int phaseSpan,
                         std::vector<JsonValue> *keep) {
            replies.assign(order.size(), Reply{});
            const auto p0 = Clock::now();
            if (keep != nullptr)
                keep->assign(order.size(), JsonValue());
            std::atomic<std::size_t> next{0};
            std::vector<std::thread> threads;
            for (std::size_t c = 0; c < conns; ++c) {
                threads.emplace_back([&, c] {
                    for (std::size_t i = next++; i < order.size();
                         i = next++) {
                        Reply &r = replies[i];
                        const JsonValue &req = keys[order[i]].request;
                        JsonValue resp;
                        const auto t0 = Clock::now();
                        bool sent;
                        if (shortLived != nullptr && (*shortLived)[i]) {
                            ServeClient once;
                            r.shortLived = true;
                            sent = once.connect(target, nullptr)
                                && once.call(req, resp, nullptr);
                        } else {
                            sent = clients[c]->call(req, resp, nullptr);
                        }
                        const auto t1 = Clock::now();
                        r.sentS = secondsBetween(p0, t0);
                        r.rttMs = secondsBetween(t0, t1) * 1e3;
                        if (sent)
                            readReply(resp, r);
                        if (tr.enabled()) {
                            const int id = tr.add(r.shortLived
                                                      ? "serve.connect"
                                                      : "serve.request",
                                                  t0, t1, phaseSpan);
                            const double s = tr.at(t0);
                            tr.addAt("serve.queue", s, s + r.queueMs / 1e3,
                                     id);
                            tr.addAt("serve.run", s + r.queueMs / 1e3,
                                     s + (r.queueMs + r.runMs) / 1e3, id);
                        }
                        if (keep != nullptr)
                            (*keep)[i] = std::move(resp);
                    }
                });
            }
            for (std::thread &t : threads)
                t.join();
        };

        // Cold phase: every key once.
        std::vector<Reply> cold;
        const int coldSpan = tr.open("serve.cold", cycleSpan);
        const auto c0 = Clock::now();
        drive(coldOrder, nullptr, cold, coldSpan, nullptr);
        const auto c1 = Clock::now();
        tr.close(coldSpan);
        const JsonValue statsCold = stats();

        // Warm phase: the Zipf stream over the same keys.
        std::vector<Reply> warm;
        const int warmSpan = tr.open("serve.warm", cycleSpan);
        drive(warmStream, &shortAt, warm, warmSpan,
              tr.enabled() ? &lastWarmReplies : nullptr);
        tr.close(warmSpan);
        const JsonValue statsWarm = stats();
        auto gauges = procGauges(daemon.id());

        // Drain.
        JsonValue shut = JsonValue::object();
        shut.set("kind", JsonValue::str("shutdown"));
        JsonValue ack;
        clients[0]->call(shut, ack, nullptr);
        clients.clear();
        const int status = daemon.stop();
        ++attempted;
        if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
            ++failed;
            errors.push_back("daemon did not drain to exit 0");
        }
        ::unlink(target.unixPath.c_str());
        tr.close(cycleSpan);

        // Checks. Each request is an operation, failed when a check on
        // its answer fails; so are the launch and the drain above.
        auto sims = [](const JsonValue &s) {
            return statNumber(s, "sims", "singles_executed")
                + statNumber(s, "sims", "contests_executed");
        };
        const double warmSims = sims(statsWarm) - sims(statsCold);
        if (warmSims != 0)
            errors.push_back("warm phase ran simulations");
        std::vector<double> coldSingleRun, coldContestRun;
        for (std::size_t i = 0; i < cold.size(); ++i) {
            const std::size_t k = coldOrder[i];
            ++attempted;
            if (!cold[i].ok) {
                ++failed;
                errors.push_back("cold request not ok");
                continue;
            }
            (keys[k].cores.size() == 1 ? coldSingleRun : coldContestRun)
                .push_back(cold[i].runMs);
            if (ncycles == 0) {
                firstCold[k] = cold[i];
            } else if (cold[i].ipt != firstCold[k].ipt
                       || cold[i].timePs != firstCold[k].timePs) {
                ++failed;
                errors.push_back("cold answer changed between daemons");
                continue;
            }
            ++passed[k];
        }
        for (std::size_t i = 0; i < warm.size(); ++i) {
            const Reply &r = warm[i];
            const Reply &c = firstCold[warmStream[i]];
            ++attempted;
            if (!r.ok) {
                ++failed;
                errors.push_back("warm request not ok");
                continue;
            }
            bool good = true;
            if (r.ipt != c.ipt || r.timePs != c.timePs) {
                errors.push_back("warm answer differs from cold answer");
                good = false;
            }
            if (!r.warm) {
                errors.push_back("warm request not answered warm");
                good = false;
            }
            // Simulations in the warm phase cannot be laid at one
            // request's door: they fail every warm request of the cycle.
            if (good && warmSims == 0)
                ++passed[warmStream[i]];
            else
                ++failed;
        }
        // The warm stream in consecutive blocks of requests, so a burst
        // of host noise spoils one block rather than the whole phase.
        JsonValue blockRps = JsonValue::array();
        JsonValue blockP50 = JsonValue::array();
        JsonValue blockP99 = JsonValue::array();
        for (std::size_t b = 0; b < blocks; ++b) {
            const std::size_t lo = b * warm.size() / blocks;
            const std::size_t hi = (b + 1) * warm.size() / blocks;
            double first = 1e300, last = 0.0;
            std::vector<double> lat;
            for (std::size_t i = lo; i < hi; ++i) {
                first = std::min(first, warm[i].sentS);
                last = std::max(last, warm[i].sentS + warm[i].rttMs / 1e3);
                if (!warm[i].shortLived)
                    lat.push_back(warm[i].rttMs);
            }
            blockRps.push(num(static_cast<double>(hi - lo) / (last - first)));
            blockP50.push(num(quantile(lat, 0.5)));
            blockP99.push(num(quantile(lat, 0.99)));
        }
        JsonValue rec = JsonValue::object();
        rec.set("setup_s", num(secondsBetween(s0, s1)));
        rec.set("cold_s", num(secondsBetween(c0, c1)));
        rec.set("cold_requests", num(static_cast<double>(cold.size())));
        rec.set("warm_block_rps", std::move(blockRps));
        rec.set("warm_block_p50_ms", std::move(blockP50));
        rec.set("warm_block_p99_ms", std::move(blockP99));
        rec.set("cold_single_run_ms", numbers(coldSingleRun));
        rec.set("cold_contest_run_ms", numbers(coldContestRun));
        rec.set("cold_sims", num(sims(statsCold)));
        rec.set("warm_phase_sims", num(warmSims));
        rec.set("admission_batches",
                num(statNumber(statsWarm, "admission", "batches")));
        rec.set("max_batch",
                num(statNumber(statsWarm, "admission", "max_batch")));
        rec.set("warm_hits",
                num(statNumber(statsWarm, "requests", "warm_hits")));
        rec.set("open_fds_end", num(gauges["fds"]));
        rec.set("threads_end", num(gauges["Threads"]));
        rec.set("rss_mb_end", num(gauges["VmRSS"] / 1024.0));
        rec.set("peak_rss_mb", num(gauges["VmHWM"] / 1024.0));
        cycles.push(std::move(rec));
        ++ncycles;
        elapsed = secondsBetween(m0, Clock::now());
    }

    // Every distinct key's served answer against an in-process run,
    // and the digest of the recomputed statistics.
    Digest digest;
    std::map<std::string, TracePtr> traces;
    for (std::size_t k = 0; k < keys.size() && ncycles > 0; ++k) {
        const ServeKey &key = keys[k];
        TracePtr &t = traces[key.bench];
        if (!t)
            t = makeBenchmarkTrace(key.bench, seed, len);
        double ipt = 0.0, timePs = 0.0;
        std::string label = key.bench + "@";
        for (std::size_t i = 0; i < key.cores.size(); ++i)
            label += (i ? "+" : "") + key.cores[i];
        if (key.cores.size() == 1) {
            const SingleRunResult r =
                runSingle(coreConfigByName(key.cores[0]), t);
            ipt = r.ipt;
            timePs = static_cast<double>(r.timePs.count());
            digest.add(statsLine(label, r.stats));
        } else {
            std::vector<CoreConfig> cfgs;
            for (const std::string &name : key.cores)
                cfgs.push_back(coreConfigByName(name));
            ContestSystem sys(cfgs, t);
            const ContestResult r = sys.run();
            ipt = r.ipt;
            timePs = static_cast<double>(r.timePs.count());
            for (std::size_t i = 0; i < r.coreStats.size(); ++i)
                digest.add(statsLine(label + "#" + std::to_string(i),
                                     r.coreStats[i]));
            digest.add(label + " lead_changes="
                       + std::to_string(r.leadChanges));
        }
        digest.add(label + " time_ps=" + jsonNumber(timePs));
        if (firstCold[k].ok
            && (firstCold[k].ipt != ipt || firstCold[k].timePs != timePs)) {
            // Every answer for the key equals the first: all are wrong.
            failed += passed[k];
            errors.push_back(label + ": served ipt/time_ps "
                             + jsonNumber(firstCold[k].ipt) + "/"
                             + jsonNumber(firstCold[k].timePs)
                             + " but in-process " + jsonNumber(ipt) + "/"
                             + jsonNumber(timePs));
        }
    }

    JsonValue out = JsonValue::object();
    out.set("cycles", std::move(cycles));

    // Traced run: time the daemon's own codecs on the warm stream's
    // bytes (request frames in, response frames out).
    if (tr.enabled() && !lastWarmReplies.empty()) {
        std::string wire;
        for (std::size_t k : warmStream)
            wire += encodeFrame(keys[k].request.dump(0));
        const int codecSpan = tr.open("serve.codec", -1);
        for (int pass = 0; pass < 3; ++pass) {
            const auto d0 = Clock::now();
            FrameDecoder dec;
            std::vector<std::string> payloads;
            payloads.reserve(warmN);
            for (std::size_t off = 0; off < wire.size(); off += 4096) {
                dec.feed(wire.data() + off,
                         std::min<std::size_t>(4096, wire.size() - off));
                std::string p;
                while (dec.next(p) == FrameDecoder::Status::Frame)
                    payloads.push_back(std::move(p));
            }
            const auto d1 = Clock::now();
            tr.add("serve.decode", d0, d1, codecSpan);
            std::size_t bad = 0;
            for (const std::string &p : payloads) {
                ServeRequest req;
                std::string err;
                bad += !parseServeRequest(JsonValue::parse(p), req, err);
            }
            const auto p1 = Clock::now();
            tr.add("serve.parse", d1, p1, codecSpan);
            std::size_t bytes = 0;
            for (const JsonValue &resp : lastWarmReplies)
                bytes += encodeFrame(resp.dump(0)).size();
            tr.add("serve.serialize", p1, Clock::now(), codecSpan);
            if (payloads.size() != warmN || bad != 0 || bytes == 0)
                errors.push_back("codec replay of the warm stream failed");
        }
        tr.close(codecSpan);
        out.set("codec_items", num(static_cast<double>(warmN)));
    }

    out.set("digest", JsonValue::str(digest.hex()));
    out.set("attempted", num(static_cast<double>(attempted)));
    out.set("failed", num(static_cast<double>(failed)));
    JsonValue errs = JsonValue::array();
    for (const std::string &e : errors)
        errs.push(JsonValue::str(e));
    out.set("errors", std::move(errs));
    if (tr.enabled() && !tr.write(spansPath)) {
        std::fprintf(stderr, "perfdriver: cannot write %s\n",
                     spansPath.c_str());
        return 1;
    }
    std::printf("%s\n", out.dump(0).c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    signal(SIGPIPE, SIG_IGN);
    if (argc < 2) {
        std::fprintf(stderr,
                     "usage: perfdriver sim-cold|fig06-check|serve-skew "
                     "[--flag value ...]\n");
        return 2;
    }
    const std::string cmd = argv[1];
    const auto flags = parseFlags(argc, argv, 2);
    if (cmd == "sim-cold")
        return runSimCold(flags);
    if (cmd == "fig06-check")
        return runFig06Check(flags);
    if (cmd == "serve-skew")
        return runServeSkew(flags);
    std::fprintf(stderr, "perfdriver: unknown subcommand '%s'\n",
                 cmd.c_str());
    return 2;
}
