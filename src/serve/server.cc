#include "serve/server.hh"

#include <algorithm>
#include <chrono>
#include <poll.h>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

#include "common/log.hh"
#include "core/palette.hh"
#include "harness/registry.hh"

namespace contest
{

namespace
{

/** Milliseconds between two steady-clock points, as a double. */
double
msBetween(SimTimeline::Clock::time_point from,
          SimTimeline::Clock::time_point to)
{
    return std::chrono::duration<double, std::milli>(to - from)
        .count();
}

/** The palette configs a contest request names, in order. */
std::vector<CoreConfig>
contestCores(const ServeRequest &req)
{
    std::vector<CoreConfig> cores;
    cores.reserve(req.cores.size());
    for (const std::string &name : req.cores)
        cores.push_back(coreConfigByName(name));
    return cores;
}

/** The ok response to a single request answered by @p run. */
JsonValue
singleResponse(const ServeRequest &req, const LoggedRun &run)
{
    JsonValue resp = serveOkResponse(req);
    resp.set("time_ps", JsonValue::number(static_cast<double>(
                            run.result.timePs.count())));
    resp.set("ipt", JsonValue::number(run.result.ipt));
    resp.set("energy_nj",
             JsonValue::number(run.result.energy.totalNj()));
    return resp;
}

/** The ok response to a contest request answered by @p result. */
JsonValue
contestResponse(const ServeRequest &req, const ContestResult &result)
{
    JsonValue resp = serveOkResponse(req);
    resp.set("time_ps", JsonValue::number(static_cast<double>(
                            result.timePs.count())));
    resp.set("ipt", JsonValue::number(result.ipt));
    resp.set("lead_changes", JsonValue::number(static_cast<double>(
                                 result.leadChanges)));
    resp.set("energy_nj", JsonValue::number(result.totalEnergyNj()));
    JsonValue lead = JsonValue::array();
    for (double f : result.leadFraction)
        lead.push(JsonValue::number(f));
    resp.set("lead_fraction", std::move(lead));
    return resp;
}

} // namespace

ContestServer::ContestServer(ServeOptions options)
    : opts(std::move(options)), pool(opts.jobs + 1)
{
    if (!opts.cacheDir.empty())
        cache = std::make_unique<ResultCache>(opts.cacheDir);
    runner_ =
        std::make_unique<Runner>(opts.traceLen, opts.seed, &pool);
    if (cache)
        runner_->setResultCache(cache.get());
    runner_->setTimeline(&timeline);
}

ContestServer::~ContestServer()
{
    requestShutdown();
    waitUntilStopped();
    closeFd(wakePipe[0]);
    closeFd(wakePipe[1]);
}

bool
ContestServer::start(std::string *error)
{
    if (::pipe(wakePipe) != 0) {
        if (error != nullptr)
            *error = "cannot create shutdown wake pipe";
        return false;
    }
    listenFd = listenOn(opts.target, error);
    if (listenFd < 0)
        return false;
    if (!opts.quiet)
        inform("contest_serve listening on %s (jobs %u, trace_len "
               "%llu, seed %llu, cache %s)",
               opts.target.describe().c_str(), opts.jobs,
               static_cast<unsigned long long>(opts.traceLen),
               static_cast<unsigned long long>(opts.seed),
               cache ? opts.cacheDir.c_str() : "off");
    started = true;
    dispatcherThread = std::thread([this] { dispatcherLoop(); });
    acceptThread = std::thread([this] { acceptLoop(); });
    return true;
}

void
ContestServer::requestShutdown()
{
    // Async-signal-safe: one atomic store and one pipe write. The
    // accept thread owns every condition-variable notification.
    draining.store(true);
    if (wakePipe[1] >= 0) {
        const char byte = 'q';
        [[maybe_unused]] ssize_t rc = ::write(wakePipe[1], &byte, 1);
    }
}

void
ContestServer::waitUntilStopped()
{
    if (!started)
        return;
    if (acceptThread.joinable())
        acceptThread.join();
}

void
ContestServer::acceptLoop()
{
    while (!draining.load()) {
        pollfd fds[2] = {{listenFd, POLLIN, 0},
                         {wakePipe[0], POLLIN, 0}};
        const int rc = ::poll(fds, 2, -1);
        if (rc < 0)
            continue; // EINTR
        if (draining.load() || (fds[1].revents & POLLIN) != 0)
            break;
        if ((fds[0].revents & POLLIN) == 0)
            continue;
        const int client = acceptClient(listenFd);
        if (client < 0)
            continue;
        auto conn = std::make_shared<Connection>();
        conn->fd = client;
        connectionsAccepted.fetch_add(1);
        {
            // The reader cannot erase its entry before the thread
            // handle is stored: it needs connMu to do so.
            std::lock_guard<std::mutex> lock(connMu);
            connections[conn.get()] =
                std::thread([this, conn] { readerLoop(conn); });
        }
        joinFinishedReaders();
    }
    drainAndStop();
}

void
ContestServer::joinFinishedReaders()
{
    std::vector<std::thread> done;
    {
        std::lock_guard<std::mutex> lock(connMu);
        done.swap(finishedReaders);
    }
    for (std::thread &t : done)
        t.join();
}

void
ContestServer::drainAndStop()
{
    // 1. Stop accepting (the accept loop has already exited; close
    //    the listening socket so connect() now fails fast).
    closeFd(listenFd);
    listenFd = -1;

    // 2. Wake everything that may be waiting: the dispatcher drains
    //    the remaining admission queue, readers waiting for queue
    //    space give up and refuse their request.
    {
        std::lock_guard<std::mutex> lock(qMu);
        qCv.notify_all();
        spaceCv.notify_all();
    }
    if (dispatcherThread.joinable())
        dispatcherThread.join();

    // 3. Wait for every dispatched simulation to finish.
    {
        std::unique_lock<std::mutex> lock(inFlightMu);
        inFlightCv.wait(lock, [this] { return inFlight == 0; });
    }

    // 4. Ack the shutdown request(s) now that the drain is complete.
    {
        std::lock_guard<std::mutex> lock(ackMu);
        for (auto &[conn, id] : shutdownAcks) {
            ServeRequest req;
            req.kind = ServeRequest::Kind::Shutdown;
            req.id = id;
            JsonValue resp = serveOkResponse(req);
            resp.set("drained", JsonValue::boolean(true));
            respond(conn, resp);
        }
        shutdownAcks.clear();
    }

    // 5. Unblock every reader (a blocked recv() returns once its
    //    socket is shut down), wait until each has retired its
    //    connection, and join them.
    {
        std::unique_lock<std::mutex> lock(connMu);
        for (const auto &[conn, reader] : connections) {
            conn->open.store(false);
            ::shutdown(conn->fd, SHUT_RDWR);
        }
        connCv.wait(lock, [this] { return connections.empty(); });
    }
    joinFinishedReaders();
    if (!opts.quiet)
        inform("contest_serve drained: %llu requests (%llu ok, %llu "
               "failed, %llu refused), %llu warm hits",
               static_cast<unsigned long long>(requestsTotal.load()),
               static_cast<unsigned long long>(requestsOk.load()),
               static_cast<unsigned long long>(requestsFailed.load()),
               static_cast<unsigned long long>(
                   requestsRefused.load()),
               static_cast<unsigned long long>(warmHits.load()));
}

void
ContestServer::readerLoop(ConnPtr conn)
{
    FrameDecoder decoder;
    std::string payload;
    std::string error;
    while (conn->open.load()) {
        if (!recvFrame(conn->fd, decoder, payload, &error)) {
            // An oversized length prefix gets a structured error
            // before the connection closes; the decoder is sticky,
            // so re-asking it distinguishes poison from EOF.
            std::string dummy;
            if (decoder.next(dummy)
                == FrameDecoder::Status::Oversized) {
                respond(conn,
                        serveErrorResponse(JsonValue(), error));
            }
            break;
        }
        handleFrame(conn, payload);
    }
    conn->open.store(false);
    // The connection is dead (EOF, error, or a poisoned stream);
    // shut it down so the peer sees EOF instead of a silent stall.
    // The fd closes with the last reference to the connection.
    ::shutdown(conn->fd, SHUT_RDWR);

    std::lock_guard<std::mutex> lock(connMu);
    auto it = connections.find(conn.get());
    finishedReaders.push_back(std::move(it->second));
    connections.erase(it);
    connCv.notify_all();
}

void
ContestServer::handleFrame(const ConnPtr &conn,
                           const std::string &payload)
{
    requestsTotal.fetch_add(1);

    std::string parseError;
    JsonValue doc = JsonValue::parse(payload, &parseError);
    if (!parseError.empty()) {
        requestsFailed.fetch_add(1);
        respond(conn, serveErrorResponse(
                          JsonValue(),
                          "invalid JSON: " + parseError));
        return;
    }

    ServeRequest req;
    std::string error;
    if (!parseServeRequest(doc, req, error)) {
        requestsFailed.fetch_add(1);
        respond(conn, serveErrorResponse(req.id, error));
        return;
    }

    switch (req.kind) {
      case ServeRequest::Kind::Ping: {
        requestsOk.fetch_add(1);
        JsonValue resp = serveOkResponse(req);
        resp.set("draining", JsonValue::boolean(draining.load()));
        respond(conn, resp);
        return;
      }
      case ServeRequest::Kind::Stats:
        requestsOk.fetch_add(1);
        respond(conn, statsJson(req));
        return;
      case ServeRequest::Kind::Shutdown: {
        {
            std::lock_guard<std::mutex> lock(ackMu);
            shutdownAcks.emplace_back(conn, req.id);
        }
        requestsOk.fetch_add(1);
        requestShutdown();
        return;
      }
      case ServeRequest::Kind::Single:
      case ServeRequest::Kind::Contest:
        // A finished memo entry is answered here, on the reader. A
        // miss goes to admit() and on to the pool; so does any
        // request while draining, and admit() refuses it.
        if (!draining.load() && answerMemoHit(conn, req))
            return;
        admit(conn, std::move(req));
        return;
      default:
        admit(conn, std::move(req));
        return;
    }
}

bool
ContestServer::answerMemoHit(const ConnPtr &conn,
                             const ServeRequest &req)
{
    const auto startedAt = SimTimeline::now();
    JsonValue resp;
    if (req.kind == ServeRequest::Kind::Single) {
        const LoggedRun *run = runner_->finishedSingle(
            req.bench, coreConfigByName(req.core));
        if (run == nullptr)
            return false;
        resp = singleResponse(req, *run);
    } else {
        const ContestResult *result = runner_->finishedContest(
            req.bench, contestCores(req), ContestConfig{},
            req.traceLenOverride);
        if (result == nullptr)
            return false;
        resp = contestResponse(req, *result);
    }
    respondOk(conn, resp, 0.0,
              msBetween(startedAt, SimTimeline::now()), true);
    return true;
}

void
ContestServer::admit(const ConnPtr &conn, ServeRequest req)
{
    Job job;
    job.conn = conn;
    job.queuedAt = SimTimeline::now();
    {
        std::unique_lock<std::mutex> lock(qMu);
        spaceCv.wait(lock, [this] {
            return queue.size() < opts.admissionDepth
                   || draining.load();
        });
        if (draining.load()) {
            requestsRefused.fetch_add(1);
            lock.unlock();
            respond(conn,
                    serveErrorResponse(
                        req.id,
                        "server is draining; request refused"));
            return;
        }
        job.req = std::move(req);
        queue.push_back(std::move(job));
        qCv.notify_one();
    }
}

void
ContestServer::dispatcherLoop()
{
    for (;;) {
        std::vector<Job> batch;
        {
            std::unique_lock<std::mutex> lock(qMu);
            qCv.wait(lock, [this] {
                return !queue.empty() || draining.load();
            });
            if (queue.empty() && draining.load())
                break;
            // Take everything admitted so far as one batch: a burst
            // of requests costs one dispatcher wakeup, not one per
            // request.
            while (!queue.empty()) {
                batch.push_back(std::move(queue.front()));
                queue.pop_front();
            }
            spaceCv.notify_all();
        }
        admissionBatches.fetch_add(1);
        std::uint64_t prev = maxBatch.load();
        while (batch.size() > prev
               && !maxBatch.compare_exchange_weak(prev,
                                                  batch.size())) {
        }
        {
            std::lock_guard<std::mutex> lock(inFlightMu);
            inFlight += batch.size();
        }
        for (Job &job : batch) {
            auto shared = std::make_shared<Job>(std::move(job));
            pool.post([this, shared] {
                execute(*shared);
                std::lock_guard<std::mutex> lock(inFlightMu);
                --inFlight;
                inFlightCv.notify_all();
            });
        }
    }
}

void
ContestServer::execute(const Job &job)
{
    const ServeRequest &req = job.req;
    const auto startedAt = SimTimeline::now();
    JsonValue resp;
    // Warm: the memo entry already existed when the worker looked it
    // up, i.e. a concurrent twin computed (or is computing) it.
    bool warm = false;
    bool failed = false;

    switch (req.kind) {
      case ServeRequest::Kind::Sleep: {
        std::this_thread::sleep_for(
            std::chrono::milliseconds(req.sleepMs));
        resp = serveOkResponse(req);
        resp.set("slept_ms",
                 JsonValue::number(
                     static_cast<double>(req.sleepMs)));
        break;
      }
      case ServeRequest::Kind::Single:
        resp = singleResponse(
            req, runner_->single(req.bench, coreConfigByName(req.core),
                                 0, &warm));
        break;
      case ServeRequest::Kind::Contest:
        resp = contestResponse(
            req, runner_->contested(req.bench, contestCores(req),
                                    ContestConfig{},
                                    req.traceLenOverride, &warm));
        break;
      case ServeRequest::Kind::Experiment: {
        const ExperimentInfo *info =
            ExperimentRegistry::instance().find(req.experiment);
        if (info == nullptr || !info->inSuite) {
            failed = true;
            resp = serveErrorResponse(
                req.id, info == nullptr
                            ? "unknown experiment '"
                                  + req.experiment + "'"
                            : "experiment '" + req.experiment
                                  + "' is standalone-only and "
                                    "cannot be served");
            break;
        }
        ArtifactSink sink("", false);
        ExperimentContext ctx{*runner_, sink, *info};
        info->fn(ctx);
        resp = serveOkResponse(req);
        JsonValue artifacts = JsonValue::array();
        for (const FigureArtifact &a : sink.emitted())
            artifacts.push(a.toJson());
        resp.set("artifacts", std::move(artifacts));
        break;
      }
      default:
        failed = true;
        resp = serveErrorResponse(req.id,
                                  "request kind cannot be executed "
                                  "by a pool worker");
        break;
    }

    if (failed) {
        requestsFailed.fetch_add(1);
        respond(job.conn, resp);
        return;
    }
    respondOk(job.conn, resp, msBetween(job.queuedAt, startedAt),
              msBetween(startedAt, SimTimeline::now()), warm);
}

void
ContestServer::respondOk(const ConnPtr &conn, JsonValue &resp,
                         double queue_ms, double run_ms, bool warm)
{
    if (warm)
        warmHits.fetch_add(1);
    JsonValue timing = JsonValue::object();
    timing.set("queue_ms", JsonValue::number(queue_ms));
    timing.set("run_ms", JsonValue::number(run_ms));
    timing.set("warm", JsonValue::boolean(warm));
    resp.set("timing", std::move(timing));
    requestsOk.fetch_add(1);
    respond(conn, resp);
}

JsonValue
ContestServer::statsJson(const ServeRequest &req)
{
    JsonValue resp = serveOkResponse(req);
    JsonValue server = JsonValue::object();
    server.set("jobs", JsonValue::number(opts.jobs));
    server.set("trace_len",
               JsonValue::number(
                   static_cast<double>(opts.traceLen)));
    server.set("seed", JsonValue::number(
                           static_cast<double>(opts.seed)));
    server.set("draining", JsonValue::boolean(draining.load()));
    {
        std::lock_guard<std::mutex> lock(qMu);
        server.set("queue_depth",
                   JsonValue::number(
                       static_cast<double>(queue.size())));
    }
    {
        std::lock_guard<std::mutex> lock(inFlightMu);
        server.set("in_flight",
                   JsonValue::number(
                       static_cast<double>(inFlight)));
    }
    {
        std::lock_guard<std::mutex> lock(connMu);
        server.set("connections",
                   JsonValue::number(static_cast<double>(
                       connections.size())));
    }
    server.set("connections_accepted",
               JsonValue::number(static_cast<double>(
                   connectionsAccepted.load())));

    JsonValue requests = JsonValue::object();
    requests.set("total", JsonValue::number(static_cast<double>(
                              requestsTotal.load())));
    requests.set("ok", JsonValue::number(static_cast<double>(
                           requestsOk.load())));
    requests.set("failed", JsonValue::number(static_cast<double>(
                               requestsFailed.load())));
    requests.set("refused", JsonValue::number(static_cast<double>(
                                requestsRefused.load())));
    requests.set("warm_hits",
                 JsonValue::number(
                     static_cast<double>(warmHits.load())));
    server.set("requests", std::move(requests));

    JsonValue admission = JsonValue::object();
    admission.set("batches",
                  JsonValue::number(static_cast<double>(
                      admissionBatches.load())));
    admission.set("max_batch",
                  JsonValue::number(
                      static_cast<double>(maxBatch.load())));
    server.set("admission", std::move(admission));

    JsonValue sims = JsonValue::object();
    sims.set("singles_executed",
             JsonValue::number(static_cast<double>(
                 runner_->simulationsPerformed())));
    sims.set("contests_executed",
             JsonValue::number(static_cast<double>(
                 runner_->contestsPerformed())));
    sims.set("disk_hits", JsonValue::number(static_cast<double>(
                              runner_->diskHits())));
    sims.set("contest_disk_hits",
             JsonValue::number(static_cast<double>(
                 runner_->contestDiskHits())));
    server.set("sims", std::move(sims));

    if (cache) {
        JsonValue disk = JsonValue::object();
        disk.set("dir", JsonValue::str(cache->directory()));
        disk.set("hits", JsonValue::number(static_cast<double>(
                             cache->hits())));
        disk.set("misses", JsonValue::number(static_cast<double>(
                               cache->misses())));
        disk.set("stores", JsonValue::number(static_cast<double>(
                               cache->stores())));
        server.set("result_cache", std::move(disk));
    }

    const SimTimeline::Summary summary = timeline.summary();
    JsonValue tl = JsonValue::object();
    tl.set("sims", JsonValue::number(
                       static_cast<double>(summary.sims)));
    tl.set("cache_hits", JsonValue::number(static_cast<double>(
                             summary.cacheHits)));
    tl.set("busy_sec", JsonValue::number(summary.busySec));
    tl.set("queue_sec", JsonValue::number(summary.queueSec));
    tl.set("wall_sec", JsonValue::number(summary.wallSec));
    tl.set("concurrency", JsonValue::number(summary.concurrency()));
    server.set("timeline", std::move(tl));

    resp.set("server", std::move(server));
    return resp;
}

void
ContestServer::respond(const ConnPtr &conn, const JsonValue &resp)
{
    const std::string frame = encodeFrame(resp.dump(0));
    std::lock_guard<std::mutex> lock(conn->writeMu);
    if (!conn->open.load())
        return;
    if (!sendAll(conn->fd, frame))
        conn->open.store(false);
}

} // namespace contest
