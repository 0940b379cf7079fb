/**
 * @file
 * Shared plumbing of the benchmark harness: command-line arguments, the
 * result record every workload fills, the operation/check tally, and
 * small timing helpers.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since `t0`. */
[[nodiscard]] double secondsSince(Clock::time_point t0);

/** Median of the values (0 when empty). */
[[nodiscard]] double median(std::vector<double> values);

/** Peak resident set of this process, in MB (getrusage). */
[[nodiscard]] double selfPeakRssMb();

/** Worker threads every workload passes explicitly: min(nproc, 4). */
[[nodiscard]] unsigned benchThreads();

/** Parsed command line. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string self;        ///< path of this binary (argv[0])
    std::string phase_serve; ///< path of the built phase_serve binary
    std::string work_dir;    ///< scratch directory inside the checkout
};

/** One reported metric. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/**
 * Operations attempted and failed. A failed check counts as a failed
 * operation; the first few failures are described on stderr.
 */
class Tally
{
  public:
    /** Count `n` operations that succeeded. */
    void ok(std::uint64_t n = 1) { attempted_ += n; }

    /** Count one check; `error` empty means it passed. Returns passed. */
    bool check(const std::string &error, std::string_view what);

    /** Count `n` operations of which `failed` failed. */
    void add(std::uint64_t n, std::uint64_t failed, std::string_view what,
             const std::string &first_error);

    [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
    [[nodiscard]] std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/** What a workload run reports. */
struct Outcome
{
    Tally tally;
    std::vector<Metric> metrics;

    void add(std::string name, double value, std::string unit)
    {
        metrics.push_back({std::move(name), value, std::move(unit)});
    }
};

/**
 * The default experiment configuration with the benchmark's explicit
 * thread count and seed, and no characterization cache (nothing is
 * replayed from disk).
 */
[[nodiscard]] mica::core::ExperimentConfig baseConfig(const Args &args);

/**
 * Whether a run that started at `start` and has `seconds` to measure
 * should start another operation, given that the last one took `last_s`:
 * only when it is expected to finish in time. The first operation always
 * runs, so a run measures at least one.
 */
[[nodiscard]] bool anotherFits(Clock::time_point start, double seconds,
                               double last_s);

/** Seed of operation `op` of a run at `seed` (a SplitMix64 step). */
[[nodiscard]] std::uint64_t opSeed(std::uint64_t seed, std::size_t op);

/** Run `fn` `reps` times and return the median wall seconds. */
template <typename Fn>
double
medianSeconds(int reps, Fn &&fn)
{
    std::vector<double> times;
    for (int i = 0; i < reps; ++i) {
        const Clock::time_point t0 = Clock::now();
        fn();
        times.push_back(secondsSince(t0));
    }
    return median(times);
}

} // namespace perfbench

#endif // PERFBENCH_COMMON_HH
