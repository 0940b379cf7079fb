/**
 * @file
 * Output checks of every workload, as pure functions so the self-test
 * (perfbench/tests/selftest.cc) can prove each one fails on a corrupted
 * output. Every check returns an empty string when it passes and a
 * description of the first difference otherwise.
 */

#ifndef PERFBENCH_CHECKS_HH
#define PERFBENCH_CHECKS_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/characterize.hh"
#include "model/phase_model.hh"
#include "stats/matrix.hh"
#include "workloads/workload.hh"

namespace perfbench {

// --- experiment -------------------------------------------------------

/**
 * FNV-1a digest of every interval vector, the cluster assignment and the
 * GA-selected indices: identical on every run at the same seed.
 */
[[nodiscard]] std::uint64_t experimentDigest(
    const mica::core::CharacterizationResult &chars,
    const std::vector<std::size_t> &assignment,
    const std::vector<std::size_t> &selected);

/** Interval budget of one input, as the characterization applies it. */
[[nodiscard]] std::uint32_t inputBudget(
    const mica::workloads::BenchmarkSpec &bench, std::uint32_t input,
    const mica::core::ExperimentConfig &config);

/** The interval count equals the sum of budgets; every value is finite. */
[[nodiscard]] std::string checkIntervals(
    const mica::core::CharacterizationResult &chars,
    std::size_t expected_intervals);

/**
 * Compare, byte for byte, the intervals `chars` holds for one benchmark
 * (all inputs, in order) with a fresh characterization of it.
 */
[[nodiscard]] std::string compareBenchmarkIntervals(
    const mica::core::CharacterizationResult &chars, std::uint32_t benchmark,
    const std::vector<mica::metrics::CharacteristicVector> &fresh);

// --- analyze ----------------------------------------------------------

/** Rows whose placement differs from the clustering's assignment. */
[[nodiscard]] std::string comparePlacement(
    const std::vector<std::size_t> &placed,
    const std::vector<std::size_t> &expected);

// --- serve ------------------------------------------------------------

/** One line of a serve stream and the reply it must get. */
struct ServeLine
{
    enum class Kind { Row, Malformed, Assess, Reload };
    Kind kind = Kind::Row;
    std::size_t row = 0; ///< index into ServeStream::rows (Kind::Row)
    std::string id;      ///< NDJSON id, empty for CSV rows
};

/** A generated request stream: the bytes sent and what each line is. */
struct ServeStream
{
    std::vector<ServeLine> lines;
    mica::stats::Matrix rows{0, 0}; ///< every well-formed row, in order
    std::string bytes;              ///< the stream as written to stdin
};

/**
 * Generate `n` lines from a model, deterministically from `seed`: CSV
 * rows perturbing the prominent-phase representatives by a quarter of
 * the training stddev, ~10% of them as NDJSON with an "id", ~1% malformed
 * lines, an `#assess` every 5000 lines and `reloads` evenly spaced
 * `#reload` lines. No line is empty, so line i gets seq i + 1.
 */
[[nodiscard]] ServeStream makeServeStream(
    const mica::model::PhaseModel &meta,
    const mica::stats::Matrix &prominent_raw, std::size_t n,
    std::size_t reloads, std::uint64_t seed);

/** Result of checking one session's replies. */
struct ServeCheck
{
    std::uint64_t lines = 0;  ///< lines sent
    std::uint64_t failed = 0; ///< lines with a missing or wrong reply
    std::string first_error;
};

/**
 * Check the replies of one session against the stream and the in-process
 * oracle (placeBatch over stream.rows): every row reply equals the oracle
 * bit for bit, with dist2 read back from its %.17g text; seq values are
 * strictly in input order; every malformed line gets an error reply; gen
 * starts at 1 and increments on each #reload. `replies` is the child's
 * whole stdout.
 */
[[nodiscard]] ServeCheck checkServeReplies(
    const ServeStream &stream, std::string_view replies,
    const mica::model::Projection &oracle);

/** Format one placed-row reply exactly as phase_serve does. */
[[nodiscard]] std::string formatRowReply(std::uint64_t seq,
                                         std::uint64_t gen,
                                         std::string_view id,
                                         std::size_t cluster, double dist2);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_HH
