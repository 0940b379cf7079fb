// The `analyze` workload: the analysis half at the paper's operating point
// (1000 samples per benchmark, k = 300, 3 restarts) on a characterization
// produced before timing, ending in a saved model. It stresses stats
// (PCA + k-means), ga and model writes and never touches vm or mica, so a
// profiler change should leave it unmoved and a clustering change should
// move it.

#include <cstdio>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "checks.hh"
#include "core/model_export.hh"
#include "core/pipeline.hh"
#include "layers.hh"
#include "spans.hh"
#include "workloads.hh"

namespace perfbench {

namespace core = mica::core;

std::string
ensureCharacterization(const Args &args,
                       const mica::workloads::SuiteCatalog &catalog,
                       const core::ExperimentConfig &config)
{
    std::ostringstream name;
    name << args.work_dir << "/chars-" << std::hex
         << config.characterizationKey() << ".csv";
    const std::string path = name.str();
    if (!std::filesystem::exists(path))
        core::saveCharacterization(
            path, core::characterizeCatalog(catalog, config));
    return path;
}

bool
prepareWorkload(const Args &args)
{
    if (args.workload == "experiment")
        return true;
    if (args.workload != "analyze" && args.workload != "serve")
        return false;
    const mica::workloads::SuiteCatalog catalog;
    (void)ensureCharacterization(args, catalog, baseConfig(args));
    return true;
}

core::CharacterizationResult
loadCharacterizationFile(const mica::workloads::SuiteCatalog &catalog,
                         const std::string &path)
{
    core::CharacterizationResult chars;
    for (const auto &b : catalog.benchmarks()) {
        chars.benchmark_ids.push_back(b.id());
        chars.benchmark_names.push_back(b.name);
        chars.benchmark_suites.push_back(b.suite);
    }
    if (!core::loadCharacterization(path, chars))
        throw std::runtime_error("cannot load characterization " + path);
    return chars;
}

Analysis
analyzeAndSave(const core::ExperimentConfig &cfg,
               const core::CharacterizationResult &chars,
               const std::string &model_path)
{
    Analysis run;
    core::ExperimentOutputs &o = run.outputs;
    StageObserver observer;
    o.config = cfg;
    o.characterization = chars;
    {
        const Span span("core.stage.sample");
        // The sampling seed runFullExperiment derives from config.seed.
        o.sampled = core::sampleIntervals(chars, cfg.samples_per_benchmark,
                                          cfg.seed ^ 0x5A);
    }
    {
        const Span span("core.analyze_phases");
        o.analysis = core::analyzePhases(o.sampled, chars, cfg, &observer);
    }
    {
        const Span span("core.stage.compare");
        o.comparison = core::compareSuites(chars, o.sampled, o.analysis);
    }
    run.keys = core::selectKeyCharacteristics(o, 12, &observer);
    {
        const Span span("model.export");
        const Clock::time_point t0 = Clock::now();
        core::buildPhaseModel(o, run.keys).save(model_path);
        run.export_s = secondsSince(t0);
    }
    return run;
}

namespace {

struct AnalyzeRun : Analysis
{
    double op_s = 0.0;
};

AnalyzeRun
runOnce(const core::ExperimentConfig &cfg,
        const core::CharacterizationResult &chars,
        const std::string &model_path)
{
    const Span op("bench.op");
    const Clock::time_point t0 = Clock::now();
    AnalyzeRun run{analyzeAndSave(cfg, chars, model_path)};
    run.op_s = secondsSince(t0);
    return run;
}

} // namespace

Outcome
runAnalyze(const Args &args)
{
    Outcome out;
    core::ExperimentConfig cfg = baseConfig(args);
    cfg.samples_per_benchmark = 1000;
    const mica::workloads::SuiteCatalog catalog;
    const std::string chars_path = ensureCharacterization(args, catalog, cfg);
    const std::string model_path = args.work_dir + "/analyze-model.bin";

    core::CharacterizationResult chars;
    const double setup_s = medianSeconds(args.trace ? 1 : 5, [&] {
        chars = loadCharacterizationFile(catalog, chars_path);
    });

    // Each operation clusters a different sample: operation i uses the
    // seed opSeed(seed, i). The k-means and GA work varies by seed, so a
    // run averages over several seeds rather than resting on one.
    auto configFor = [&](std::size_t op) {
        core::ExperimentConfig c = cfg;
        c.seed = opSeed(args.seed, op);
        return c;
    };
    auto digestOf = [](const AnalyzeRun &run) {
        return experimentDigest(run.outputs.characterization,
                                run.outputs.analysis.clustering.assignment,
                                run.keys.selected);
    };
    auto checkPlacement = [&](const AnalyzeRun &run) {
        const auto reader = mica::model::open(model_path);
        out.tally.check(
            comparePlacement(
                reader->placeBatch(run.outputs.sampled.data).assignment,
                run.outputs.analysis.clustering.assignment),
            "reopened model places every sampled row as clustered");
    };
    auto checkRepeat = [&](std::uint64_t first_digest) {
        out.tally.check(digestOf(runOnce(configFor(0), chars, model_path)) ==
                                first_digest
                            ? ""
                            : "digest differs when the first seed is rerun",
                        "analyze digest is stable");
    };

    if (!args.trace) {
        std::vector<double> op_s, rate;
        double peak_rss = 0.0; // before each operation's checks
        std::uint64_t first_digest = 0;
        const Clock::time_point start = Clock::now();
        do {
            const AnalyzeRun run =
                runOnce(configFor(op_s.size()), chars, model_path);
            peak_rss = selfPeakRssMb();
            if (op_s.empty())
                first_digest = digestOf(run);
            op_s.push_back(run.op_s);
            std::fprintf(stderr,
                         "perfbench: op %zu: %.3f s, peak RSS %.1f MB\n",
                         op_s.size(), run.op_s, peak_rss);
            rate.push_back(
                static_cast<double>(run.outputs.sampled.data.rows()) /
                run.op_s);
            checkPlacement(run);
        } while (anotherFits(start, args.seconds, op_s.back()));
        checkRepeat(first_digest);
        out.add("setup_s", setup_s, "s");
        out.add("op_s", median(op_s), "s");
        out.add("throughput_per_s", median(rate), "1/s");
        out.add("peak_rss_mb", peak_rss, "MB");
        return out;
    }

    const AnalyzeRun untraced = runOnce(configFor(0), chars, model_path);
    SpanLog::get().setEnabled(true);
    const AnalyzeRun run = runOnce(configFor(0), chars, model_path);
    checkPlacement(run);
    out.tally.check(digestOf(run) == digestOf(untraced)
                        ? ""
                        : "traced and untraced results differ",
                    "analyze digest is stable");
    out.add("bench.trace_overhead", run.op_s / untraced.op_s - 1.0,
            "ratio");
    probeClusteringCounters(run.outputs, out);
    probeModel(model_path, run.export_s, run.outputs.sampled.data,
               run.outputs.analysis.clustering.assignment, out);
    probeFrontHalf(catalog, cfg, kReplayIntervals, chars, out);
    probeFrontStages(catalog, cfg, chars, out);
    probeServe(args, model_path, 20000, out);
    return out;
}

} // namespace perfbench
