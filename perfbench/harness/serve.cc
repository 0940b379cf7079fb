// The `serve` workload: the built phase_serve binary fed over a pipe with
// a generated stream (CSV rows, ~10% NDJSON rows with ids, ~1% malformed
// lines, a periodic #assess and a few #reload) from a model trained in
// set-up. It covers the request path read/parse -> placeBatch ->
// format/write, with the model read and hot-swapped rather than written.
// The frontend dominates it, so it separates a frontend fix from a
// placement-kernel speed-up.

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#include "checks.hh"
#include "core/pipeline.hh"
#include "layers.hh"
#include "spans.hh"
#include "workloads.hh"

namespace perfbench {

namespace core = mica::core;

namespace {

/** Lines per serve session, and #reload lines among them. */
constexpr std::size_t kSessionLines = 50000;
constexpr std::size_t kSessionReloads = 3;

struct Pipe
{
    int read = -1;
    int write = -1;

    Pipe()
    {
        int fds[2];
        if (pipe2(fds, O_CLOEXEC) != 0)
            throw std::runtime_error("pipe2 failed");
        read = fds[0];
        write = fds[1];
    }
    ~Pipe()
    {
        closeRead();
        closeWrite();
    }
    Pipe(const Pipe &) = delete;
    Pipe &operator=(const Pipe &) = delete;

    void closeRead()
    {
        if (read >= 0)
            ::close(read);
        read = -1;
    }
    void closeWrite()
    {
        if (write >= 0)
            ::close(write);
        write = -1;
    }
};

void
writeAll(int fd, std::string_view bytes)
{
    while (!bytes.empty()) {
        const ssize_t n = ::write(fd, bytes.data(), bytes.size());
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return; // the reader is gone; its missing replies fail checks
        bytes.remove_prefix(static_cast<std::size_t>(n));
    }
}

/** Read `fd` to EOF into `out`; returns when the last byte arrived. */
Clock::time_point
readAll(int fd, std::string &out)
{
    Clock::time_point last = Clock::now();
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = ::read(fd, buf, sizeof buf);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            return last;
        last = Clock::now();
        out.append(buf, static_cast<std::size_t>(n));
    }
}

struct Session
{
    double wall_s = 0.0;      ///< first byte written -> last reply read
    double peak_rss_mb = 0.0; ///< of the phase_serve child
    bool exited_ok = false;
    std::string replies;
};

/**
 * Serve `bytes` through one phase_serve child. The clock starts once the
 * child has opened the model (its start-up banner on stderr) and the
 * first byte is written, and stops at the last reply byte read. The
 * child is always waited for.
 */
Session
serveSession(const Args &args, const std::string &model_path,
             std::string_view bytes, const std::string &trace_path)
{
    const std::string threads = std::to_string(benchThreads());
    std::vector<std::string> argv_s = {args.self, "--spawn-helper",
                                       args.phase_serve, "--model",
                                       model_path, "--threads", threads};
    if (!trace_path.empty()) {
        argv_s.push_back("--trace");
        argv_s.push_back(trace_path);
    }
    std::vector<char *> argv;
    for (std::string &s : argv_s)
        argv.push_back(s.data());
    argv.push_back(nullptr);

    Pipe in, out, err, rss;
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        dup2(in.read, 0);
        dup2(out.write, 1);
        dup2(err.write, 2);
        dup2(rss.write, 3);
        execv(argv[0], argv.data());
        _exit(127);
    }
    in.closeRead();
    out.closeWrite();
    err.closeWrite();
    rss.closeWrite();

    // Wait for the banner line: the model is open and serving starts.
    std::string banner;
    char c = 0;
    while (::read(err.read, &c, 1) == 1 && c != '\n')
        banner.push_back(c);

    Session s;
    const Clock::time_point t0 = Clock::now();
    std::thread writer([&] {
        writeAll(in.write, bytes);
        in.closeWrite();
    });
    const Clock::time_point last = readAll(out.read, s.replies);
    writer.join();
    s.wall_s = std::chrono::duration<double>(last - t0).count();

    std::string tail;
    (void)readAll(err.read, tail);
    std::string rss_kib;
    (void)readAll(rss.read, rss_kib);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    s.exited_ok = WIFEXITED(status) && WEXITSTATUS(status) == 0;
    s.peak_rss_mb = std::atof(rss_kib.c_str()) / 1024.0;
    if (!s.exited_ok)
        std::fprintf(stderr, "perfbench: phase_serve failed: %s\n%s",
                     banner.c_str(), tail.c_str());
    return s;
}

/** Seconds to push `bytes` through a pipe to a child that discards them. */
double
pipeFloorSeconds(std::string_view bytes)
{
    Pipe in;
    const Clock::time_point t0 = Clock::now();
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        in.closeWrite();
        char buf[1 << 16];
        while (::read(in.read, buf, sizeof buf) > 0) {
        }
        _exit(0);
    }
    in.closeRead();
    writeAll(in.write, bytes);
    in.closeWrite();
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    return secondsSince(t0);
}

/** Check one session's replies; every line sent is one operation. */
void
checkSession(const ServeStream &stream, const Session &s,
             const mica::model::Projection &oracle, Outcome &out)
{
    ServeCheck c = checkServeReplies(stream, s.replies, oracle);
    if (!s.exited_ok && c.failed == 0) {
        c.failed = 1;
        c.first_error = "phase_serve exited with an error";
    }
    out.tally.add(c.lines, c.failed, "serve lines", c.first_error);
}

/** Generate a request stream from the model saved at `model_path`. */
ServeStream
streamFromModel(const std::string &model_path, std::size_t lines,
                std::uint64_t seed)
{
    const auto reader = mica::model::open(model_path);
    const mica::stats::MatrixView raw = reader->prominentRaw();
    mica::stats::Matrix prominent(0, reader->columns());
    for (std::size_t r = 0; r < raw.rows(); ++r)
        prominent.appendRow(raw.row(r));
    return makeServeStream(reader->meta(), prominent, lines, kSessionReloads,
                           seed);
}

/** The in-process oracle: placeBatch of every well-formed row. */
mica::model::Projection
oracleFor(const std::string &model_path, const ServeStream &stream)
{
    return mica::model::open(model_path)->placeBatch(stream.rows);
}

} // namespace

void
probeServe(const Args &args, const std::string &model_path,
           std::size_t lines, Outcome &out)
{
    const Span span("serve.probe");
    const ServeStream stream = streamFromModel(model_path, lines, args.seed);
    const mica::model::Projection oracle = oracleFor(model_path, stream);
    const auto rows = static_cast<double>(stream.rows.rows());

    Session plain;
    {
        const Span session("serve.session");
        plain = serveSession(args, model_path, stream.bytes, "");
    }
    checkSession(stream, plain, oracle, out);
    Session traced;
    {
        const Span session("serve.session_traced");
        traced = serveSession(args, model_path, stream.bytes,
                              args.work_dir + "/phase_serve-trace.json");
    }
    checkSession(stream, traced, oracle, out);
    out.add("obs.serve_trace_overhead", traced.wall_s / plain.wall_s - 1.0,
            "ratio");

    const auto reader = mica::model::open(model_path);
    mica::model::Projection placed;
    double place_s = 0.0;
    {
        const Span place("stats.place");
        place_s = placeWaves(*reader, stream.rows, placed);
    }
    out.add("serve.frontend_share", 1.0 - place_s / plain.wall_s, "ratio");
    {
        const Span pipe("serve.pipe_floor");
        out.add("serve.pipe_floor_rows_per_s",
                rows / pipeFloorSeconds(stream.bytes), "rows/s");
    }
}

Outcome
runServe(const Args &args)
{
    Outcome out;
    // The served model is the default-seed model, as deployed; --seed
    // makes the request stream. Set-up work then does not vary by seed.
    core::ExperimentConfig cfg = baseConfig(args);
    cfg.seed = core::ExperimentConfig{}.seed;
    const mica::workloads::SuiteCatalog catalog;
    const std::string chars_path = ensureCharacterization(args, catalog, cfg);
    const std::string model_path = args.work_dir + "/serve-model.bin";

    // Set-up: load the characterization, train and save the model, and
    // generate the request stream from it.
    Analysis trained;
    ServeStream stream;
    auto setup = [&] {
        trained = analyzeAndSave(
            cfg, loadCharacterizationFile(catalog, chars_path), model_path);
        stream = streamFromModel(model_path, kSessionLines, args.seed);
    };
    if (args.trace)
        SpanLog::get().setEnabled(true);
    const double setup_s = medianSeconds(args.trace ? 1 : 3, setup);
    const mica::model::Projection oracle = oracleFor(model_path, stream);
    const auto rows = static_cast<double>(stream.rows.rows());

    if (!args.trace) {
        std::vector<double> op_s, rate;
        double peak_rss = 0.0;
        const Clock::time_point start = Clock::now();
        do {
            const Session s = serveSession(args, model_path, stream.bytes, "");
            op_s.push_back(s.wall_s);
            std::fprintf(stderr, "perfbench: session %zu: %.3f s\n",
                         op_s.size(), s.wall_s);
            rate.push_back(rows / s.wall_s);
            peak_rss = std::max(peak_rss, s.peak_rss_mb);
            checkSession(stream, s, oracle, out);
        } while (anotherFits(start, args.seconds, op_s.back()));
        out.add("setup_s", setup_s, "s");
        out.add("op_s", median(op_s), "s");
        out.add("throughput_per_s", median(rate), "1/s");
        out.add("peak_rss_mb", peak_rss, "MB");
        return out;
    }

    SpanLog::get().setEnabled(false);
    const Session plain = serveSession(args, model_path, stream.bytes, "");
    checkSession(stream, plain, oracle, out);
    SpanLog::get().setEnabled(true);
    Session traced;
    {
        const Span op("bench.op");
        traced = serveSession(args, model_path, stream.bytes, "");
    }
    checkSession(stream, traced, oracle, out);
    out.add("bench.trace_overhead", traced.wall_s / plain.wall_s - 1.0,
            "ratio");
    probeServe(args, model_path, kSessionLines, out);
    const core::ExperimentOutputs &o = trained.outputs;
    probeClusteringCounters(o, out);
    probeModel(model_path, trained.export_s, stream.rows, oracle.assignment,
               out);
    probeFrontHalf(catalog, cfg, kReplayIntervals, o.characterization, out);
    probeFrontStages(catalog, cfg, o.characterization, out);
    return out;
}

} // namespace perfbench
