// Benchmark harness entry point. Usage (normally through perfbench/run.py):
//
//   perfbench --workload experiment|analyze|serve --seed N --seconds S
//             --trace 0|1 --phase-serve <path> --work-dir <dir>
//             [--prepare 1]
//
// --prepare 1 only makes the workload's inputs that are kept between runs
// (the saved characterization analyze and serve load) and exits; run.py
// calls it in its own process first, so no run's peak RSS includes it.
//
// Prints one metadata line ({"meta":{...}}: seed, threads, nproc, CPU
// model, SIMD level) and, as the last line of stdout, the result object
// {"correct","attempted","failed","metrics"}. --trace 0 reports the
// end-to-end metrics; --trace 1 reports the per-layer metrics and writes
// the run's spans to <work-dir>/trace-<workload>-<seed>.json.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common.hh"
#include "spans.hh"
#include "stats/simd.hh"
#include "workloads.hh"

namespace {

using namespace perfbench;

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload experiment|analyze|serve "
                 "--seed N --seconds S --trace 0|1 --phase-serve PATH "
                 "--work-dir DIR\n");
    return 64;
}

/** CPU brand string from CPUID (no file outside the checkout is read). */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
        for (unsigned i = 0; i < 3; ++i)
            __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                        &regs[4 * i + 2], &regs[4 * i + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s = brand;
        s.erase(0, s.find_first_not_of(' '));
        for (char &c : s)
            if (c == '"' || c == '\\')
                c = ' ';
        return s;
    }
#endif
    return "unknown";
}

/**
 * `perfbench --spawn-helper <program> <args...>`: run the program as our
 * child and write its peak RSS (KiB) to fd 3. A child forked straight
 * from the benchmark would be charged the benchmark's own resident set at
 * exec; this small helper process stands in between, so wait4 reports
 * the served program's own peak.
 */
int
spawnHelper(char **argv)
{
    const pid_t pid = fork();
    if (pid < 0)
        return 1;
    if (pid == 0) {
        ::close(3);
        execv(argv[0], argv);
        _exit(127);
    }
    int status = 0;
    rusage usage{};
    while (wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
    }
    dprintf(3, "%ld\n", usage.ru_maxrss);
    return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}

/** The stage spans every workload's traced run reports. */
void
addStageMetrics(Outcome &out)
{
    const SpanLog &log = SpanLog::get();
    for (const char *stage :
         {"verify", "characterize", "sample", "pca", "kmeans", "compare",
          "ga"})
        out.add(std::string("core.stage.") + stage + "_s",
                log.totalSeconds(std::string("core.stage.") + stage), "s");
    out.add("core.self_s",
            log.selfSeconds("core.run_full_experiment") +
                log.selfSeconds("core.analyze_phases"),
            "s");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc > 2 && std::strcmp(argv[1], "--spawn-helper") == 0)
        return spawnHelper(argv + 2);

    Args args;
    args.self = argv[0];
    bool prepare = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const std::string value = argv[i + 1];
        try {
            if (key == "--workload")
                args.workload = value;
            else if (key == "--seed")
                args.seed = std::stoull(value);
            else if (key == "--seconds")
                args.seconds = std::stod(value);
            else if (key == "--trace")
                args.trace = std::stoi(value) != 0;
            else if (key == "--phase-serve")
                args.phase_serve = value;
            else if (key == "--work-dir")
                args.work_dir = value;
            else if (key == "--prepare")
                prepare = std::stoi(value) != 0;
            else
                return usage();
        } catch (const std::exception &) {
            return usage();
        }
    }
    if (argc % 2 != 1 || args.phase_serve.empty() || args.work_dir.empty())
        return usage();

    // A phase_serve child that dies must fail checks, not kill us.
    std::signal(SIGPIPE, SIG_IGN);
    std::filesystem::create_directories(args.work_dir);

    Outcome out;
    try {
        if (prepare)
            return prepareWorkload(args) ? 0 : usage();
        if (args.workload == "experiment")
            out = runExperiment(args);
        else if (args.workload == "analyze")
            out = runAnalyze(args);
        else if (args.workload == "serve")
            out = runServe(args);
        else
            return usage();
        if (args.trace) {
            addStageMetrics(out);
            SpanLog::get().write(args.work_dir + "/trace-" + args.workload +
                                 "-" + std::to_string(args.seed) + ".json");
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }

    std::printf("{\"meta\":{\"workload\":\"%s\",\"seed\":%llu,"
                "\"threads\":%u,\"nproc\":%u,\"cpu_model\":\"%s\","
                "\"simd_level\":\"%s\",\"trace\":%d}}\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), benchThreads(),
                std::thread::hardware_concurrency(), cpuModel().c_str(),
                std::string(mica::stats::simd::levelName(
                                mica::stats::simd::activeLevel()))
                    .c_str(),
                args.trace ? 1 : 0);
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":{",
                out.tally.failed() == 0 ? "true" : "false",
                static_cast<unsigned long long>(out.tally.attempted()),
                static_cast<unsigned long long>(out.tally.failed()));
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        const Metric &m = out.metrics[i];
        std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                    i == 0 ? "" : ",", m.name.c_str(), m.value,
                    m.unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
