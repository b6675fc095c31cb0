/**
 * @file
 * Tests of the contest service: the length-prefixed frame codec
 * (partial reads, pipelined frames, oversized-prefix poisoning),
 * request parsing and validation (every malformed shape must come
 * back as a structured error, never a panic), and the live server —
 * including memo hits answered without the admission queue, the
 * concurrency contract (two identical concurrent requests simulate
 * exactly once) and graceful-drain semantics (in-flight work
 * completes, new work and memo hits are refused, the shutdown ack
 * arrives after the drain) — and that closed connections give back
 * their fds while the server runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "serve/client.hh"
#include "serve/frame.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace contest
{
namespace
{

std::string
uniqueSocketPath(const char *tag)
{
    return "/tmp/contest_test_" + std::string(tag) + "_"
           + std::to_string(getpid()) + ".sock";
}

/** A quiet server on a fresh Unix socket with a tiny trace. */
ServeOptions
testOptions(const char *tag, unsigned jobs)
{
    ServeOptions opts;
    opts.target.unixPath = uniqueSocketPath(tag);
    opts.jobs = jobs;
    opts.traceLen = 4000;
    opts.seed = 99;
    opts.quiet = true;
    return opts;
}

JsonValue
request(const char *kind, double id)
{
    JsonValue req = JsonValue::object();
    req.set("kind", JsonValue::str(kind));
    req.set("id", JsonValue::number(id));
    return req;
}

JsonValue
singleRequest(const char *bench, const char *core, double id)
{
    JsonValue req = request("single", id);
    req.set("bench", JsonValue::str(bench));
    req.set("core", JsonValue::str(core));
    return req;
}

JsonValue
contestRequest(const char *bench, std::vector<const char *> cores,
               double id)
{
    JsonValue req = request("contest", id);
    req.set("bench", JsonValue::str(bench));
    JsonValue arr = JsonValue::array();
    for (const char *core : cores)
        arr.push(JsonValue::str(core));
    req.set("cores", std::move(arr));
    return req;
}

bool
okFlag(const JsonValue &resp)
{
    const JsonValue *ok = resp.find("ok");
    return ok != nullptr && ok->isBool() && ok->asBool();
}

std::string
errorText(const JsonValue &resp)
{
    const JsonValue *err = resp.find("error");
    return err != nullptr && err->isString() ? err->asString() : "";
}

/** Open file descriptors of this process. */
std::size_t
openFdCount()
{
    std::size_t n = 0;
    for ([[maybe_unused]] const auto &e :
         std::filesystem::directory_iterator("/proc/self/fd"))
        ++n;
    return n;
}

TEST(ServeFrame, RoundTripsThroughArbitraryChunking)
{
    const std::vector<std::string> payloads = {
        "", "x", R"({"kind":"ping"})", std::string(100000, 'z')};
    std::string wire;
    for (const std::string &p : payloads)
        wire += encodeFrame(p);

    // Feed the whole stream one byte at a time: every frame must
    // come out intact regardless of read-chunk boundaries.
    FrameDecoder decoder;
    std::vector<std::string> out;
    std::string payload;
    for (char c : wire) {
        decoder.feed(&c, 1);
        while (decoder.next(payload) == FrameDecoder::Status::Frame)
            out.push_back(payload);
    }
    EXPECT_EQ(out, payloads);
    EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(ServeFrame, YieldsAllPipelinedFramesFromOneFeed)
{
    std::string wire =
        encodeFrame("first") + encodeFrame("second")
        + encodeFrame("third");
    FrameDecoder decoder;
    decoder.feed(wire.data(), wire.size());
    std::string payload;
    ASSERT_EQ(decoder.next(payload), FrameDecoder::Status::Frame);
    EXPECT_EQ(payload, "first");
    ASSERT_EQ(decoder.next(payload), FrameDecoder::Status::Frame);
    EXPECT_EQ(payload, "second");
    ASSERT_EQ(decoder.next(payload), FrameDecoder::Status::Frame);
    EXPECT_EQ(payload, "third");
    EXPECT_EQ(decoder.next(payload), FrameDecoder::Status::NeedMore);
}

TEST(ServeFrame, OversizedLengthPrefixPoisonsTheStream)
{
    // 0xFFFFFFFF declared bytes: far above the payload cap, and a
    // length that could never be resynchronized.
    const char huge[4] = {'\xFF', '\xFF', '\xFF', '\xFF'};
    FrameDecoder decoder;
    decoder.feed(huge, 4);
    std::string payload;
    EXPECT_EQ(decoder.next(payload), FrameDecoder::Status::Oversized);

    // Poisoning is sticky: even a subsequent valid frame must not
    // be trusted, because the stream position is garbage.
    const std::string valid = encodeFrame("after");
    decoder.feed(valid.data(), valid.size());
    EXPECT_EQ(decoder.next(payload), FrameDecoder::Status::Oversized);
}

TEST(ServeFrame, AcceptsPayloadExactlyAtTheCapBoundary)
{
    // A prefix of exactly kMaxFramePayload is legal; one byte more
    // poisons. Only headers are fed (the bodies would be 8 MiB).
    const std::uint32_t cap = kMaxFramePayload;
    const char at[4] = {static_cast<char>(cap >> 24),
                        static_cast<char>(cap >> 16),
                        static_cast<char>(cap >> 8),
                        static_cast<char>(cap)};
    FrameDecoder ok;
    ok.feed(at, 4);
    std::string payload;
    EXPECT_EQ(ok.next(payload), FrameDecoder::Status::NeedMore);

    const std::uint32_t over = cap + 1;
    const char above[4] = {static_cast<char>(over >> 24),
                           static_cast<char>(over >> 16),
                           static_cast<char>(over >> 8),
                           static_cast<char>(over)};
    FrameDecoder bad;
    bad.feed(above, 4);
    EXPECT_EQ(bad.next(payload), FrameDecoder::Status::Oversized);
}

TEST(ServeProtocol, RejectsEveryMalformedShapeWithAnError)
{
    struct Case
    {
        const char *json;
        const char *needle; //!< must appear in the error
    };
    const std::vector<Case> cases = {
        {R"([1,2,3])", "object"},
        {R"({})", "kind"},
        {R"({"kind":42})", "kind"},
        {R"({"kind":"launch_missiles"})", "unknown request kind"},
        {R"({"kind":"single","bench":7,"core":"gcc"})", "bench"},
        {R"({"kind":"single","bench":"nosuch","core":"gcc"})",
         "unknown benchmark"},
        {R"({"kind":"single","bench":"gcc","core":"nosuch"})",
         "unknown core type"},
        {R"({"kind":"contest","bench":"gcc","cores":"gcc"})",
         "array"},
        {R"({"kind":"contest","bench":"gcc","cores":["gcc"]})",
         "between 2 and"},
        {R"({"kind":"contest","bench":"gcc","cores":[1,2]})",
         "name string"},
        {R"({"kind":"contest","bench":"gcc","cores":["gcc","bad"]})",
         "unknown core type"},
        {R"({"kind":"contest","bench":"gcc","cores":["gcc","twolf"],
             "trace_len":-5})",
         "non-negative"},
        {R"({"kind":"contest","bench":"gcc","cores":["gcc","twolf"],
             "trace_len":1.5})",
         "non-negative"},
        {R"({"kind":"contest","bench":"gcc","cores":["gcc","twolf"],
             "trace_len":999999999})",
         "per-request limit"},
        {R"({"kind":"sleep","ms":99999})", "sleep limit"},
    };
    for (const Case &c : cases) {
        std::string parseError;
        JsonValue doc = JsonValue::parse(c.json, &parseError);
        ASSERT_TRUE(parseError.empty()) << c.json;
        ServeRequest req;
        std::string error;
        EXPECT_FALSE(parseServeRequest(doc, req, error)) << c.json;
        EXPECT_NE(error.find(c.needle), std::string::npos)
            << c.json << " -> " << error;
    }
}

TEST(ServeProtocol, ParsesValidRequestsAndEchoesIds)
{
    std::string parseError;
    JsonValue doc = JsonValue::parse(
        R"({"kind":"contest","id":"req-7","bench":"gcc",
            "cores":["twolf","gcc"],"trace_len":1000})",
        &parseError);
    ASSERT_TRUE(parseError.empty());
    ServeRequest req;
    std::string error;
    ASSERT_TRUE(parseServeRequest(doc, req, error)) << error;
    EXPECT_EQ(req.kind, ServeRequest::Kind::Contest);
    EXPECT_EQ(req.bench, "gcc");
    ASSERT_EQ(req.cores.size(), 2u);
    EXPECT_EQ(req.cores[0], "twolf");
    EXPECT_EQ(req.cores[1], "gcc");
    EXPECT_EQ(req.traceLenOverride, 1000u);
    ASSERT_TRUE(req.id.isString());
    EXPECT_EQ(req.id.asString(), "req-7");

    JsonValue resp = serveOkResponse(req);
    EXPECT_EQ(resp.at("id").asString(), "req-7");
    EXPECT_TRUE(resp.at("ok").asBool());
    EXPECT_EQ(resp.at("kind").asString(), "contest");
}

TEST(ServeServer, AnswersPingStatsAndDrainsOnShutdown)
{
    ContestServer server(testOptions("basic", 2));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServeClient client;
    ASSERT_TRUE(client.connect(server.target(), &error)) << error;

    JsonValue resp;
    ASSERT_TRUE(client.call(request("ping", 1), resp, &error))
        << error;
    EXPECT_TRUE(okFlag(resp));
    EXPECT_EQ(resp.at("id").asNumber(), 1.0);

    ASSERT_TRUE(client.call(request("stats", 2), resp, &error))
        << error;
    ASSERT_TRUE(okFlag(resp));
    const JsonValue *stats = resp.find("server");
    ASSERT_NE(stats, nullptr);
    EXPECT_EQ(stats->at("jobs").asNumber(), 2.0);
    EXPECT_FALSE(stats->at("draining").asBool());

    ASSERT_TRUE(client.call(request("shutdown", 3), resp, &error))
        << error;
    EXPECT_TRUE(okFlag(resp));
    EXPECT_TRUE(resp.at("drained").asBool());
    server.waitUntilStopped();
    ::unlink(server.target().unixPath.c_str());
}

TEST(ServeServer, RepeatsAreWarmMemoHitsThatSkipTheAdmissionQueue)
{
    ContestServer server(testOptions("warm", 2));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServeClient client;
    ASSERT_TRUE(client.connect(server.target(), &error)) << error;
    auto batches = [&] {
        JsonValue stats;
        EXPECT_TRUE(client.call(request("stats", 0), stats, &error))
            << error;
        return stats.at("server").at("admission").at("batches")
            .asNumber();
    };

    const JsonValue requests[] = {
        singleRequest("gcc", "twolf", 1),
        contestRequest("gcc", {"gcc", "twolf"}, 2)};
    for (const JsonValue &req : requests) {
        JsonValue cold;
        ASSERT_TRUE(client.call(req, cold, &error)) << error;
        ASSERT_TRUE(okFlag(cold)) << errorText(cold);
        EXPECT_GT(cold.at("time_ps").asNumber(), 0.0);
        EXPECT_GT(cold.at("ipt").asNumber(), 0.0);
        EXPECT_FALSE(cold.at("timing").at("warm").asBool());
        const double batchesBefore = batches();
        const std::uint64_t singles =
            server.runner().simulationsPerformed();
        const std::uint64_t contests =
            server.runner().contestsPerformed();

        // Repeats are answered on the reader: no queue wait, no
        // dispatcher batch, no simulation.
        for (int repeat = 0; repeat < 3; ++repeat) {
            JsonValue warm;
            ASSERT_TRUE(client.call(req, warm, &error)) << error;
            ASSERT_TRUE(okFlag(warm)) << errorText(warm);
            EXPECT_TRUE(warm.at("timing").at("warm").asBool());
            EXPECT_EQ(warm.at("timing").at("queue_ms").asNumber(), 0.0);
            // The inline path shares the response schema with the
            // worker path, field for field.
            for (const char *field :
                 {"id", "kind", "time_ps", "ipt", "energy_nj",
                  "lead_changes", "lead_fraction"}) {
                const JsonValue *c = cold.find(field);
                const JsonValue *w = warm.find(field);
                ASSERT_EQ(c == nullptr, w == nullptr) << field;
                if (c != nullptr) {
                    EXPECT_EQ(w->dump(0), c->dump(0)) << field;
                }
            }
        }
        EXPECT_EQ(batches(), batchesBefore);
        EXPECT_EQ(server.runner().simulationsPerformed(), singles);
        EXPECT_EQ(server.runner().contestsPerformed(), contests);
    }

    server.requestShutdown();
    server.waitUntilStopped();
    ::unlink(server.target().unixPath.c_str());
}

TEST(ServeServer, ConcurrentIdenticalRequestsSimulateExactlyOnce)
{
    ContestServer server(testOptions("dedup", 4));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // Two independent connections fire the identical request at the
    // same moment. The Runner's per-key once-latch must serialize
    // them onto one simulation; both clients still get full results.
    const unsigned kClients = 2;
    // One byte per client: std::vector<bool> packs the flags into
    // one word, and the two threads' writes would race on it.
    std::vector<char> got(kClients, 0);
    std::vector<char> warm(kClients, 0);
    std::vector<double> timePs(kClients, 0.0);
    {
        std::vector<std::thread> threads;
        for (unsigned i = 0; i < kClients; ++i)
            threads.emplace_back([&, i] {
                ServeClient c;
                std::string threadError;
                if (!c.connect(server.target(), &threadError))
                    return;
                JsonValue resp;
                if (!c.call(singleRequest("twolf", "crafty", i),
                            resp, &threadError))
                    return;
                if (okFlag(resp)) {
                    got[i] = 1;
                    warm[i] = resp.at("timing").at("warm").asBool();
                    timePs[i] = resp.at("time_ps").asNumber();
                }
            });
        for (std::thread &t : threads)
            t.join();
    }
    for (unsigned i = 0; i < kClients; ++i) {
        EXPECT_TRUE(got[i]) << "client " << i;
        EXPECT_EQ(timePs[i], timePs[0]);
    }
    // Whichever request lost the race, inline or at the latch, was
    // answered from the winner's result.
    EXPECT_EQ(std::count(warm.begin(), warm.end(), 0), 1);
    EXPECT_EQ(server.runner().simulationsPerformed(), 1u);

    server.requestShutdown();
    server.waitUntilStopped();
    ::unlink(server.target().unixPath.c_str());
}

TEST(ServeServer, MalformedInputGetsStructuredErrorsNotDisconnects)
{
    ContestServer server(testOptions("malformed", 1));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServeClient client;
    ASSERT_TRUE(client.connect(server.target(), &error)) << error;

    // Raw garbage that frames correctly but is not JSON.
    ASSERT_TRUE(sendAll(client.rawFd(),
                        encodeFrame("this is not json {")));
    JsonValue resp;
    ASSERT_TRUE(client.recv(resp, &error)) << error;
    EXPECT_FALSE(okFlag(resp));
    EXPECT_NE(errorText(resp).find("invalid JSON"),
              std::string::npos);

    // A parseable document with an unknown benchmark.
    ASSERT_TRUE(client.call(singleRequest("nosuch", "gcc", 5), resp,
                            &error))
        << error;
    EXPECT_FALSE(okFlag(resp));
    EXPECT_NE(errorText(resp).find("unknown benchmark"),
              std::string::npos);

    // Over-deep nesting exercises the parser's depth bound through
    // the full network path.
    std::string deep(200, '[');
    ASSERT_TRUE(sendAll(client.rawFd(), encodeFrame(deep)));
    ASSERT_TRUE(client.recv(resp, &error)) << error;
    EXPECT_FALSE(okFlag(resp));

    // The connection survived all of it.
    ASSERT_TRUE(client.call(request("ping", 6), resp, &error))
        << error;
    EXPECT_TRUE(okFlag(resp));

    server.requestShutdown();
    server.waitUntilStopped();
    ::unlink(server.target().unixPath.c_str());
}

TEST(ServeServer, OversizedFrameGetsAnErrorThenTheConnectionCloses)
{
    ContestServer server(testOptions("oversized", 1));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServeClient client;
    ASSERT_TRUE(client.connect(server.target(), &error)) << error;

    // A hostile length prefix claiming ~4 GiB.
    const char huge[4] = {'\xFF', '\xFF', '\xFF', '\xFE'};
    ASSERT_TRUE(sendAll(client.rawFd(), std::string(huge, 4)));

    JsonValue resp;
    ASSERT_TRUE(client.recv(resp, &error)) << error;
    EXPECT_FALSE(okFlag(resp));
    EXPECT_NE(errorText(resp).find("oversized"), std::string::npos);

    // The stream cannot be resynchronized, so the server closes it.
    EXPECT_FALSE(client.recv(resp, &error));

    server.requestShutdown();
    server.waitUntilStopped();
    ::unlink(server.target().unixPath.c_str());
}

TEST(ServeServer, HandlesPartialWritesAndPipelinedRequests)
{
    ContestServer server(testOptions("pipeline", 1));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    ServeClient client;
    ASSERT_TRUE(client.connect(server.target(), &error)) << error;

    // Two requests in one buffer, delivered in deliberately awkward
    // chunks (split mid-length-prefix and mid-payload).
    const std::string wire = encodeFrame(request("ping", 1).dump(0))
                             + encodeFrame(
                                 request("stats", 2).dump(0));
    const std::size_t cuts[] = {2, 9, wire.size()};
    std::size_t from = 0;
    for (std::size_t cut : cuts) {
        ASSERT_TRUE(
            sendAll(client.rawFd(), wire.substr(from, cut - from)));
        from = cut;
    }

    JsonValue resp;
    ASSERT_TRUE(client.recv(resp, &error)) << error;
    EXPECT_TRUE(okFlag(resp));
    EXPECT_EQ(resp.at("id").asNumber(), 1.0);
    EXPECT_EQ(resp.at("kind").asString(), "ping");
    ASSERT_TRUE(client.recv(resp, &error)) << error;
    EXPECT_TRUE(okFlag(resp));
    EXPECT_EQ(resp.at("id").asNumber(), 2.0);
    EXPECT_EQ(resp.at("kind").asString(), "stats");

    server.requestShutdown();
    server.waitUntilStopped();
    ::unlink(server.target().unixPath.c_str());
}

TEST(ServeServer, ClosedConnectionsReleaseTheirFds)
{
    ContestServer server(testOptions("reap", 1));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;
    const std::size_t baseline = openFdCount();

    JsonValue resp;
    for (int i = 0; i < 300; ++i) {
        ServeClient c;
        ASSERT_TRUE(c.connect(server.target(), &error)) << error;
        ASSERT_TRUE(c.call(request("ping", i), resp, &error)) << error;
    }

    // Readers notice EOF asynchronously: wait until only the probe
    // connection itself is live.
    ServeClient probe;
    ASSERT_TRUE(probe.connect(server.target(), &error)) << error;
    double live = 0.0;
    for (int tries = 0; tries < 400; ++tries) {
        ASSERT_TRUE(probe.call(request("stats", 1), resp, &error))
            << error;
        live = resp.at("server").at("connections").asNumber();
        if (live == 1.0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(live, 1.0);
    EXPECT_EQ(resp.at("server").at("connections_accepted").asNumber(),
              301.0);
    // The probe holds two fds (client and server end); everything
    // the 300 closed connections opened is gone.
    EXPECT_LE(openFdCount(), baseline + 4);

    server.requestShutdown();
    server.waitUntilStopped();
    ::unlink(server.target().unixPath.c_str());
}

TEST(ServeServer, DrainCompletesInFlightWorkAndRefusesNewWork)
{
    ContestServer server(testOptions("drain", 1));
    std::string error;
    ASSERT_TRUE(server.start(&error)) << error;

    // Client B caches one result before anything else happens.
    ServeClient b;
    ASSERT_TRUE(b.connect(server.target(), &error)) << error;
    JsonValue resp;
    ASSERT_TRUE(b.call(singleRequest("gzip", "gzip", 199), resp, &error))
        << error;
    ASSERT_TRUE(okFlag(resp)) << errorText(resp);
    // Its worker counts itself out just after it answers; wait for
    // that, so the in-flight poll below sees A's sleep, not this.
    for (int tries = 0; tries < 200; ++tries) {
        ASSERT_TRUE(b.call(request("stats", 198), resp, &error))
            << error;
        if (resp.at("server").at("in_flight").asNumber() == 0.0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_EQ(resp.at("server").at("in_flight").asNumber(), 0.0);

    // Client A parks a worker in a long sleep.
    ServeClient a;
    ASSERT_TRUE(a.connect(server.target(), &error)) << error;
    JsonValue sleepReq = request("sleep", 100);
    sleepReq.set("ms", JsonValue::number(500));
    ASSERT_TRUE(a.send(sleepReq, &error)) << error;

    // Client B waits until the sleep is in flight, then asks for
    // shutdown and immediately tries to queue more work, and to read
    // the result it cached.
    for (int tries = 0; tries < 200; ++tries) {
        ASSERT_TRUE(b.call(request("stats", 200), resp, &error))
            << error;
        if (resp.at("server").at("in_flight").asNumber() >= 1.0)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(resp.at("server").at("in_flight").asNumber(), 1.0);

    ASSERT_TRUE(b.send(request("shutdown", 201), &error)) << error;
    JsonValue refusedReq = request("sleep", 202);
    refusedReq.set("ms", JsonValue::number(1));
    ASSERT_TRUE(b.send(refusedReq, &error)) << error;
    ASSERT_TRUE(b.send(singleRequest("gzip", "gzip", 203), &error))
        << error;

    // B's refusals arrive before the shutdown ack: the ack waits
    // for the drain, the refusals do not. A memo hit is refused
    // like any other work.
    for (const double id : {202.0, 203.0}) {
        ASSERT_TRUE(b.recv(resp, &error)) << error;
        EXPECT_EQ(resp.at("id").asNumber(), id);
        EXPECT_FALSE(okFlag(resp));
        EXPECT_NE(errorText(resp).find("draining"), std::string::npos);
    }

    // A's in-flight sleep still completes successfully.
    ASSERT_TRUE(a.recv(resp, &error)) << error;
    EXPECT_EQ(resp.at("id").asNumber(), 100.0);
    EXPECT_TRUE(okFlag(resp));

    // And only then does the shutdown ack land.
    ASSERT_TRUE(b.recv(resp, &error)) << error;
    EXPECT_EQ(resp.at("id").asNumber(), 201.0);
    EXPECT_TRUE(okFlag(resp));
    EXPECT_TRUE(resp.at("drained").asBool());

    server.waitUntilStopped();

    // New connections are refused once the drain has begun.
    ServeClient late;
    EXPECT_FALSE(late.connect(server.target(), &error));
    ::unlink(server.target().unixPath.c_str());
}

} // namespace
} // namespace contest
