#include "checks.hh"

#include <bit>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "stats/rng.hh"

namespace perfbench {

namespace {

constexpr std::uint64_t kFnvBasis = 1469598103934665603ULL;

void
fnv(std::uint64_t &h, const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 1099511628211ULL;
    }
}

/** The value after `"key":` in a flat JSON reply line, or empty. */
std::string_view
field(std::string_view line, std::string_view key)
{
    std::string pattern = "\"";
    pattern += key;
    pattern += "\":";
    const std::size_t at = line.find(pattern);
    if (at == std::string_view::npos)
        return {};
    std::string_view rest = line.substr(at + pattern.size());
    std::size_t end = 0;
    if (!rest.empty() && rest.front() == '"') {
        end = rest.find('"', 1);
        return end == std::string_view::npos ? std::string_view{}
                                             : rest.substr(0, end + 1);
    }
    while (end < rest.size() && rest[end] != ',' && rest[end] != '}')
        ++end;
    return rest.substr(0, end);
}

template <typename T>
bool
parseNumber(std::string_view s, T &out)
{
    const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
    return !s.empty() && ec == std::errc{} && ptr == s.data() + s.size();
}

/** Check one reply against the line it answers; "" when it matches. */
std::string
checkReply(const ServeLine &line, std::string_view reply, std::uint64_t seq,
           std::uint64_t gen, const mica::model::Projection &oracle)
{
    std::uint64_t got_seq = 0;
    std::uint64_t got_gen = 0;
    if (!parseNumber(field(reply, "seq"), got_seq) || got_seq != seq)
        return "reply out of order: expected seq " + std::to_string(seq);
    if (!parseNumber(field(reply, "gen"), got_gen) || got_gen != gen)
        return "wrong gen, expected " + std::to_string(gen);
    const bool has_error = !field(reply, "error").empty();
    switch (line.kind) {
      case ServeLine::Kind::Row: {
        if (has_error)
            return "well-formed row answered with an error";
        std::size_t cluster = 0;
        double dist2 = 0.0;
        if (!parseNumber(field(reply, "cluster"), cluster) ||
            !parseNumber(field(reply, "dist2"), dist2))
            return "row reply lacks cluster/dist2";
        if (cluster != oracle.assignment[line.row])
            return "cluster differs from in-process placeBatch";
        if (std::bit_cast<std::uint64_t>(dist2) !=
            std::bit_cast<std::uint64_t>(oracle.dist2[line.row]))
            return "dist2 differs bitwise from in-process placeBatch";
        const std::string_view id = field(reply, "id");
        const std::string want =
            line.id.empty() ? std::string() : "\"" + line.id + "\"";
        if (id != want)
            return "id not echoed";
        return "";
      }
      case ServeLine::Kind::Malformed:
        return has_error ? "" : "malformed line not answered with an error";
      case ServeLine::Kind::Assess:
        return field(reply, "assessment").empty() ? "missing assessment"
                                                  : "";
      case ServeLine::Kind::Reload:
        return field(reply, "reloaded") == "true" ? "" : "reload failed";
    }
    return "unknown line kind";
}

} // namespace

std::uint64_t
experimentDigest(const mica::core::CharacterizationResult &chars,
                 const std::vector<std::size_t> &assignment,
                 const std::vector<std::size_t> &selected)
{
    std::uint64_t h = kFnvBasis;
    for (const mica::core::IntervalRecord &rec : chars.intervals) {
        fnv(h, &rec.benchmark, sizeof rec.benchmark);
        fnv(h, &rec.input, sizeof rec.input);
        fnv(h, rec.values.data(), sizeof rec.values);
    }
    for (std::size_t a : assignment)
        fnv(h, &a, sizeof a);
    for (std::size_t s : selected)
        fnv(h, &s, sizeof s);
    return h;
}

std::uint32_t
inputBudget(const mica::workloads::BenchmarkSpec &bench, std::uint32_t input,
            const mica::core::ExperimentConfig &config)
{
    return std::max<std::uint32_t>(
        1, static_cast<std::uint32_t>(std::lround(
               bench.intervalsForInput(input) * config.interval_scale)));
}

std::string
checkIntervals(const mica::core::CharacterizationResult &chars,
               std::size_t expected_intervals)
{
    if (chars.intervals.size() != expected_intervals)
        return "interval count " + std::to_string(chars.intervals.size()) +
               " != sum of budgets " + std::to_string(expected_intervals);
    for (std::size_t i = 0; i < chars.intervals.size(); ++i)
        for (double v : chars.intervals[i].values)
            if (!std::isfinite(v))
                return "non-finite value in interval " + std::to_string(i);
    return "";
}

std::string
compareBenchmarkIntervals(
    const mica::core::CharacterizationResult &chars, std::uint32_t benchmark,
    const std::vector<mica::metrics::CharacteristicVector> &fresh)
{
    std::size_t next = 0;
    for (const mica::core::IntervalRecord &rec : chars.intervals) {
        if (rec.benchmark != benchmark)
            continue;
        if (next >= fresh.size())
            return "more stored intervals than re-characterized";
        if (std::memcmp(rec.values.data(), fresh[next].data(),
                        sizeof rec.values) != 0)
            return "interval " + std::to_string(next) + " of " +
                   chars.benchmark_ids[benchmark] +
                   " differs from its re-characterization";
        ++next;
    }
    if (next != fresh.size())
        return "stored " + std::to_string(next) + " intervals, " +
               "re-characterized " + std::to_string(fresh.size());
    return "";
}

std::string
comparePlacement(const std::vector<std::size_t> &placed,
                 const std::vector<std::size_t> &expected)
{
    if (placed.size() != expected.size())
        return "placed " + std::to_string(placed.size()) + " rows, expected " +
               std::to_string(expected.size());
    for (std::size_t i = 0; i < placed.size(); ++i)
        if (placed[i] != expected[i])
            return "row " + std::to_string(i) + " placed in cluster " +
                   std::to_string(placed[i]) + ", clustering says " +
                   std::to_string(expected[i]);
    return "";
}

ServeStream
makeServeStream(const mica::model::PhaseModel &meta,
                const mica::stats::Matrix &prominent_raw, std::size_t n,
                std::size_t reloads, std::uint64_t seed)
{
    const std::size_t p = meta.columns();
    mica::stats::Rng rng(seed);
    ServeStream s;
    s.rows = mica::stats::Matrix(0, p);
    std::vector<double> values(p);
    char buf[40];
    std::size_t next_reload = 1;
    for (std::size_t i = 0; i < n; ++i) {
        ServeLine line;
        if (next_reload <= reloads && i == n * next_reload / (reloads + 1)) {
            ++next_reload;
            line.kind = ServeLine::Kind::Reload;
            s.bytes += "#reload\n";
        } else if (i % 5000 == 4999) {
            line.kind = ServeLine::Kind::Assess;
            s.bytes += "#assess\n";
        } else {
            for (std::size_t c = 0; c < p; ++c) {
                const double base = prominent_raw.rows() > 0
                    ? prominent_raw(i % prominent_raw.rows(), c)
                    : meta.norm_mean[c];
                values[c] = base + 0.25 * meta.norm_stddev[c] *
                                       rng.nextGaussian();
            }
            const double u = rng.nextDouble();
            std::string text;
            for (std::size_t c = 0; c < p; ++c) {
                std::snprintf(buf, sizeof buf, "%.17g", values[c]);
                if (c > 0)
                    text += ',';
                text += buf;
            }
            if (u < 0.01) {
                line.kind = ServeLine::Kind::Malformed;
                switch (i % 3) {
                  case 0: // a field that is not a number
                    text += ",x";
                    break;
                  case 1: // one value short
                    text.resize(text.rfind(','));
                    break;
                  default: // NDJSON without a values array
                    text = "{\"id\":\"bad" + std::to_string(i) + "\"}";
                    break;
                }
            } else {
                line.row = s.rows.rows();
                s.rows.appendRow(values);
                if (u < 0.11) {
                    line.id = "r" + std::to_string(i);
                    text = "{\"id\":\"" + line.id + "\",\"values\":[" +
                           text + "]}";
                }
            }
            s.bytes += text;
            s.bytes += '\n';
        }
        s.lines.push_back(std::move(line));
    }
    return s;
}

ServeCheck
checkServeReplies(const ServeStream &stream, std::string_view replies,
                  const mica::model::Projection &oracle)
{
    ServeCheck result;
    result.lines = stream.lines.size();
    auto fail = [&](std::string error) {
        ++result.failed;
        if (result.first_error.empty())
            result.first_error = std::move(error);
    };
    std::uint64_t gen = 1;
    std::size_t pos = 0;
    for (std::size_t i = 0; i < stream.lines.size(); ++i) {
        const ServeLine &line = stream.lines[i];
        if (line.kind == ServeLine::Kind::Reload)
            ++gen;
        if (pos >= replies.size()) {
            fail("no reply to line " + std::to_string(i + 1));
            continue;
        }
        std::size_t eol = replies.find('\n', pos);
        if (eol == std::string_view::npos)
            eol = replies.size();
        const std::string_view reply = replies.substr(pos, eol - pos);
        pos = eol + 1;
        const std::string error = checkReply(line, reply, i + 1, gen, oracle);
        if (!error.empty())
            fail("line " + std::to_string(i + 1) + ": " + error);
    }
    if (pos < replies.size())
        fail("replies beyond the last line sent");
    return result;
}

std::string
formatRowReply(std::uint64_t seq, std::uint64_t gen, std::string_view id,
               std::size_t cluster, double dist2)
{
    char buf[160];
    std::string out;
    std::snprintf(buf, sizeof buf, "{\"seq\":%" PRIu64 ",\"gen\":%" PRIu64 ",",
                  seq, gen);
    out += buf;
    if (!id.empty()) {
        out += "\"id\":\"";
        out += id;
        out += "\",";
    }
    std::snprintf(buf, sizeof buf, "\"cluster\":%zu,\"dist2\":%.17g}", cluster,
                  dist2);
    out += buf;
    return out;
}

} // namespace perfbench
