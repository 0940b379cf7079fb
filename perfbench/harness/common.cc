#include "common.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <thread>

namespace perfbench {

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double
selfPeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

unsigned
benchThreads()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

bool
Tally::check(const std::string &error, std::string_view what)
{
    ++attempted_;
    if (error.empty())
        return true;
    if (failed_++ < 8)
        std::fprintf(stderr, "perfbench: check failed (%.*s): %s\n",
                     static_cast<int>(what.size()), what.data(),
                     error.c_str());
    return false;
}

void
Tally::add(std::uint64_t n, std::uint64_t failed, std::string_view what,
           const std::string &first_error)
{
    attempted_ += n;
    if (failed > 0 && failed_ < 8)
        std::fprintf(stderr, "perfbench: %llu of %llu %.*s failed: %s\n",
                     static_cast<unsigned long long>(failed),
                     static_cast<unsigned long long>(n),
                     static_cast<int>(what.size()), what.data(),
                     first_error.c_str());
    failed_ += failed;
}

bool
anotherFits(Clock::time_point start, double seconds, double last_s)
{
    return secondsSince(start) + last_s <= seconds;
}

std::uint64_t
opSeed(std::uint64_t seed, std::size_t op)
{
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (op + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

mica::core::ExperimentConfig
baseConfig(const Args &args)
{
    mica::core::ExperimentConfig cfg;
    cfg.cache_dir.clear();
    cfg.threads = benchThreads();
    cfg.seed = args.seed;
    return cfg;
}

} // namespace perfbench
