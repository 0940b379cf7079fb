// Self-test of the benchmark's output checks: each check passes on a
// correct output and fails on a corrupted one (a flipped dist2 bit in a
// serve reply, a changed cluster assignment, a changed interval value).
// Run with `python3 perfbench/run.py --selftest`; exits non-zero on the
// first check that does not behave.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <vector>

#include "checks.hh"

namespace {

using namespace perfbench;

int g_failures = 0;

void
expect(bool ok, const char *what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok)
        ++g_failures;
}

std::string
join(const std::vector<std::string> &lines)
{
    std::string out;
    for (const std::string &l : lines)
        out += l + "\n";
    return out;
}

void
serveChecks()
{
    using Kind = ServeLine::Kind;
    ServeStream stream;
    stream.lines = {{Kind::Row, 0, ""},      {Kind::Row, 1, "r1"},
                    {Kind::Malformed, 0, ""}, {Kind::Assess, 0, ""},
                    {Kind::Reload, 0, ""},    {Kind::Row, 2, ""}};
    mica::model::Projection oracle;
    oracle.assignment = {3, 5, 7};
    oracle.dist2 = {0.5, 1.25, 0.1};

    const std::vector<std::string> good = {
        formatRowReply(1, 1, "", 3, 0.5),
        formatRowReply(2, 1, "r1", 5, 1.25),
        R"({"seq":3,"gen":1,"error":"expected 3 values, got 2"})",
        R"({"seq":4,"gen":1,"assessment":{"rows":2,"clusters_covered":2}})",
        R"({"seq":5,"gen":2,"reloaded":true})",
        formatRowReply(6, 2, "", 7, 0.1),
    };
    expect(checkServeReplies(stream, join(good), oracle).failed == 0,
           "serve: correct replies pass");

    std::vector<std::string> bad = good;
    bad[0] = formatRowReply(1, 1, "", 3, std::nextafter(0.5, 1.0));
    expect(checkServeReplies(stream, join(bad), oracle).failed == 1,
           "serve: one flipped dist2 bit fails its line");

    bad = good;
    bad[1] = formatRowReply(2, 1, "r1", 4, 1.25);
    expect(checkServeReplies(stream, join(bad), oracle).failed == 1,
           "serve: a wrong cluster fails its line");

    bad = good;
    std::swap(bad[0], bad[1]);
    expect(checkServeReplies(stream, join(bad), oracle).failed >= 1,
           "serve: replies out of input order fail");

    bad = good;
    bad.pop_back();
    expect(checkServeReplies(stream, join(bad), oracle).failed == 1,
           "serve: a missing reply fails its line");

    bad = good;
    bad[2] = formatRowReply(3, 1, "", 0, 0.0);
    expect(checkServeReplies(stream, join(bad), oracle).failed == 1,
           "serve: a malformed line without an error reply fails");

    bad = good;
    bad[5] = formatRowReply(6, 1, "", 7, 0.1);
    expect(checkServeReplies(stream, join(bad), oracle).failed == 1,
           "serve: gen not incremented by #reload fails");

    bad = good;
    bad[1] = formatRowReply(2, 1, "", 5, 1.25);
    expect(checkServeReplies(stream, join(bad), oracle).failed == 1,
           "serve: an NDJSON id not echoed fails");

    // The generator is deterministic and labels every line it writes.
    mica::model::PhaseModel meta;
    meta.norm_mean = {1.0, 2.0, 3.0};
    meta.norm_stddev = {0.5, 0.5, 0.5};
    const mica::stats::Matrix none(0, 3);
    const ServeStream a = makeServeStream(meta, none, 12000, 3, 7);
    const ServeStream b = makeServeStream(meta, none, 12000, 3, 7);
    std::size_t newlines = 0, reloads = 0, malformed = 0, rows = 0;
    for (char c : a.bytes)
        newlines += c == '\n';
    for (const ServeLine &l : a.lines) {
        reloads += l.kind == Kind::Reload;
        malformed += l.kind == Kind::Malformed;
        rows += l.kind == Kind::Row;
    }
    expect(a.bytes == b.bytes && newlines == a.lines.size() &&
               a.lines.size() == 12000 && reloads == 3 && malformed > 0 &&
               rows == a.rows.rows() && a.bytes.find("\n\n") ==
               std::string::npos,
           "serve: stream generation is deterministic and fully labelled");
}

void
analyzeChecks()
{
    const std::vector<std::size_t> expected = {0, 4, 4, 2, 9};
    std::vector<std::size_t> placed = expected;
    expect(comparePlacement(placed, expected).empty(),
           "analyze: identical placement passes");
    placed[3] = 1;
    expect(!comparePlacement(placed, expected).empty(),
           "analyze: one changed assignment fails");
    placed = expected;
    placed.pop_back();
    expect(!comparePlacement(placed, expected).empty(),
           "analyze: a missing row fails");
}

void
experimentChecks()
{
    mica::core::CharacterizationResult chars;
    chars.benchmark_ids = {"A/a", "B/b"};
    for (std::uint32_t i = 0; i < 5; ++i) {
        mica::core::IntervalRecord rec;
        rec.benchmark = i < 3 ? 0 : 1;
        for (std::size_t c = 0; c < rec.values.size(); ++c)
            rec.values[c] = 0.1 * i + 0.01 * static_cast<double>(c);
        chars.intervals.push_back(rec);
    }
    const std::vector<std::size_t> assignment = {1, 0, 1, 2, 2};
    const std::vector<std::size_t> keys = {3, 17, 40};
    std::vector<mica::metrics::CharacteristicVector> fresh;
    for (std::size_t i = 0; i < 3; ++i)
        fresh.push_back(chars.intervals[i].values);

    const std::uint64_t digest = experimentDigest(chars, assignment, keys);
    expect(experimentDigest(chars, assignment, keys) == digest,
           "experiment: digest is a pure function of the outputs");
    expect(checkIntervals(chars, 5).empty(),
           "experiment: correct interval count and values pass");
    expect(compareBenchmarkIntervals(chars, 0, fresh).empty(),
           "experiment: identical re-characterization passes");

    mica::core::CharacterizationResult changed = chars;
    changed.intervals[1].values[7] =
        std::nextafter(changed.intervals[1].values[7], 1.0);
    expect(experimentDigest(changed, assignment, keys) != digest,
           "experiment: one changed interval value changes the digest");
    expect(!compareBenchmarkIntervals(changed, 0, fresh).empty(),
           "experiment: one changed interval value fails re-characterization");

    std::vector<std::size_t> moved = assignment;
    moved[4] = 0;
    expect(experimentDigest(chars, moved, keys) != digest,
           "experiment: one changed assignment changes the digest");

    changed = chars;
    changed.intervals[2].values[0] = std::numeric_limits<double>::quiet_NaN();
    expect(!checkIntervals(changed, 5).empty(),
           "experiment: a non-finite value fails");
    expect(!checkIntervals(chars, 6).empty(),
           "experiment: an interval count off the budget fails");
}

} // namespace

int
main()
{
    serveChecks();
    analyzeChecks();
    experimentChecks();
    std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "PASSED",
                g_failures);
    return g_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
