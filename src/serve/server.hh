/**
 * @file
 * The contest service: a long-lived server that keeps the core
 * palette, the synthetic traces, the Runner's memo tables, and the
 * on-disk result cache hot in one process and serves simulation,
 * contest, and experiment requests over a Unix or loopback-TCP
 * socket.
 *
 * Threading model, in order of a request's life:
 *
 *  - an accept thread poll()s the listening socket (and a self-pipe
 *    used for shutdown wakeup) and spawns one reader thread per
 *    connection;
 *  - the reader decodes frames, parses and validates the request,
 *    answers ping/stats/shutdown inline, and answers a single or
 *    contest request inline too when the Runner already holds its
 *    finished result (a memo hit: no queue, no worker);
 *  - everything else — memo misses, experiments, sleeps — goes into
 *    a bounded admission queue (blocking the connection — not the
 *    server — when the queue is full);
 *  - a dispatcher thread drains the admission queue in batches and
 *    posts each request into the ThreadPool, whose `--jobs` workers
 *    run the simulations through the shared Runner (memoized, disk
 *    cached);
 *  - responses are written under the connection's write mutex, so
 *    responses from concurrent requests interleave per frame, never
 *    mid-frame.
 *
 * Warm (`timing.warm`) comes from the Runner: a memo hit is warm,
 * and so is a queued request whose memo entry already existed when
 * its worker looked it up (a concurrent identical request).
 *
 * Graceful drain (SIGTERM or a `shutdown` request): stop accepting,
 * refuse new work — memo hits included — with a structured error,
 * flush the admission queue, wait for in-flight simulations, ack
 * the shutdown request(s), then close every connection. The pool
 * only ever runs simulations; the server keeps no key set of its
 * own. requestShutdown() is
 * async-signal-safe: it performs one atomic store and one pipe
 * write; all condition-variable traffic happens on ordinary threads.
 */

#ifndef CONTEST_SERVE_SERVER_HH
#define CONTEST_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/json.hh"
#include "common/thread_pool.hh"
#include "harness/result_cache.hh"
#include "harness/runner.hh"
#include "harness/sim_timeline.hh"
#include "serve/protocol.hh"
#include "serve/socket.hh"

namespace contest
{

/** Configuration of one ContestServer. */
struct ServeOptions
{
    /** Where to listen (unix path, or loopback TCP; port 0 binds an
     *  ephemeral port readable from target() after start). */
    ServeTarget target;
    /** Simulation workers (the `--jobs` budget). */
    unsigned jobs = 1;
    /** Instructions per synthetic benchmark trace. */
    std::uint64_t traceLen = 400'000;
    /** Workload generation seed. */
    std::uint64_t seed = 2009;
    /** Persistent result-cache directory; empty disables it. */
    std::string cacheDir;
    /** Admission-queue depth; readers block once it is full. */
    std::size_t admissionDepth = 64;
    /** Suppress the startup/shutdown log lines (tests). */
    bool quiet = false;
};

/** The long-lived contest service. */
class ContestServer
{
  public:
    explicit ContestServer(ServeOptions options);
    ~ContestServer();

    ContestServer(const ContestServer &) = delete;
    ContestServer &operator=(const ContestServer &) = delete;

    /**
     * Bind the listening socket and launch the accept and dispatcher
     * threads. @return false with @p error filled when the socket
     * cannot be bound.
     */
    bool start(std::string *error);

    /** The resolved listen target (ephemeral TCP ports filled in);
     *  valid after start(). */
    const ServeTarget &target() const { return opts.target; }

    /**
     * Begin a graceful drain. Async-signal-safe (one atomic store
     * plus one self-pipe write), so a SIGTERM handler may call it
     * directly. Idempotent.
     */
    void requestShutdown();

    /** Block until the drain completes and every thread has been
     *  joined. Returns immediately if start() was never called. */
    void waitUntilStopped();

    /** The shared runner (exposed so in-process harnesses can check
     *  simulation counters without a stats round-trip). */
    Runner &runner() { return *runner_; }

  private:
    /** One client connection. open flips false on read error, EOF,
     *  or drain; the write mutex keeps frames from interleaving. The
     *  fd is closed only when the last reference goes (the reader's
     *  or an in-flight response's), so a late response can never
     *  write to a reused descriptor. */
    struct Connection
    {
        int fd = -1;
        std::mutex writeMu;
        std::atomic<bool> open{true};

        Connection() = default;
        Connection(const Connection &) = delete;
        Connection &operator=(const Connection &) = delete;
        ~Connection() { closeFd(fd); }
    };
    using ConnPtr = std::shared_ptr<Connection>;

    /** One admitted unit of simulation work. */
    struct Job
    {
        ConnPtr conn;
        ServeRequest req;
        SimTimeline::Clock::time_point queuedAt;
    };

    void acceptLoop();
    void dispatcherLoop();
    void readerLoop(ConnPtr conn);
    /** Join the reader threads that have finished since the last
     *  call. */
    void joinFinishedReaders();
    void handleFrame(const ConnPtr &conn, const std::string &payload);
    /** Answer a single/contest request from a finished Runner memo
     *  entry, on the calling reader. @return false on a miss (the
     *  request must then be admitted). */
    bool answerMemoHit(const ConnPtr &conn, const ServeRequest &req);
    /** Enqueue a simulation request, or refuse it while draining. */
    void admit(const ConnPtr &conn, ServeRequest req);
    /** Execute one admitted job on a pool worker. */
    void execute(const Job &job);
    void respond(const ConnPtr &conn, const JsonValue &resp);
    /** Stamp @p resp's timing block, count it ok, and send it. */
    void respondOk(const ConnPtr &conn, JsonValue &resp,
                   double queue_ms, double run_ms, bool warm);
    JsonValue statsJson(const ServeRequest &req);
    /** Run the drain protocol; called by the accept thread once
     *  draining is observed. */
    void drainAndStop();

    ServeOptions opts;
    /** opts.jobs + 1 so the dispatcher thread, which posts but never
     *  executes, leaves opts.jobs dedicated simulation workers. */
    ThreadPool pool;
    std::unique_ptr<ResultCache> cache;
    SimTimeline timeline;
    std::unique_ptr<Runner> runner_;

    int listenFd = -1;
    int wakePipe[2] = {-1, -1};
    std::atomic<bool> draining{false};
    bool started = false;

    std::thread acceptThread;
    std::thread dispatcherThread;

    /** Live connections and their reader threads. A reader erases
     *  its own entry when its connection ends (the reader's ConnPtr
     *  keeps the key valid until then) and parks its thread in
     *  finishedReaders for the accept thread (or the drain) to
     *  join, so closed connections hold neither an fd nor a thread
     *  handle for longer than one accept. */
    std::mutex connMu;
    std::condition_variable connCv; //!< the drain waits for readers
    std::unordered_map<Connection *, std::thread> connections;
    std::vector<std::thread> finishedReaders;

    std::mutex qMu;
    std::condition_variable qCv;      //!< dispatcher waits for work
    std::condition_variable spaceCv;  //!< readers wait for room
    std::deque<Job> queue;

    std::mutex inFlightMu;
    std::condition_variable inFlightCv;
    std::size_t inFlight = 0;

    /** Connections owed a shutdown ack (sent after the drain). */
    std::mutex ackMu;
    std::vector<std::pair<ConnPtr, JsonValue>> shutdownAcks;

    /** @name Telemetry (reported by `stats`) */
    /** @{ */
    std::atomic<std::uint64_t> connectionsAccepted{0};
    std::atomic<std::uint64_t> requestsTotal{0};
    std::atomic<std::uint64_t> requestsOk{0};
    std::atomic<std::uint64_t> requestsFailed{0};
    std::atomic<std::uint64_t> requestsRefused{0};
    std::atomic<std::uint64_t> warmHits{0};
    std::atomic<std::uint64_t> admissionBatches{0};
    std::atomic<std::uint64_t> maxBatch{0};
    /** @} */
};

} // namespace contest

#endif // CONTEST_SERVE_SERVER_HH
