// The `experiment` workload: the paper's run as a user does it,
// runFullExperiment + selectKeyCharacteristics at the default config with
// no characterization cache. VM + profiler do most of its work, so a
// front-half change shows here and nowhere else.

#include <cstdio>
#include <fstream>
#include <optional>

#include "checks.hh"
#include "core/model_export.hh"
#include "core/pipeline.hh"
#include "layers.hh"
#include "spans.hh"
#include "workloads.hh"

namespace perfbench {

namespace core = mica::core;

namespace {

struct ExperimentRun
{
    core::ExperimentOutputs outputs;
    mica::ga::GaResult keys;
    double op_s = 0.0;
    double instr_per_s = 0.0; ///< characterized instructions / Characterize
};

ExperimentRun
runOnce(const core::ExperimentConfig &cfg, StageObserver &observer)
{
    ExperimentRun run;
    const Span op("bench.op");
    const Clock::time_point t0 = Clock::now();
    {
        const Span span("core.run_full_experiment");
        run.outputs = core::runFullExperiment(cfg, &observer);
    }
    {
        const Span span("core.select_key_characteristics");
        run.keys = core::selectKeyCharacteristics(run.outputs, 12, &observer);
    }
    run.op_s = secondsSince(t0);
    run.instr_per_s =
        static_cast<double>(run.outputs.characterization.intervals.size()) *
        static_cast<double>(cfg.interval_instructions) /
        observer.stageSeconds(core::Stage::Characterize);
    return run;
}

} // namespace

Outcome
runExperiment(const Args &args)
{
    Outcome out;
    const core::ExperimentConfig cfg = baseConfig(args);

    // Set-up is catalog construction; runFullExperiment builds its own
    // catalog inside the timed section, as a user's call does.
    std::optional<mica::workloads::SuiteCatalog> catalog;
    const double setup_s = medianSeconds(args.trace ? 1 : 101,
                                         [&] { catalog.emplace(); });

    std::size_t inputs = 0, expected_intervals = 0;
    for (const auto &bench : catalog->benchmarks()) {
        inputs += bench.num_inputs;
        for (std::uint32_t i = 0; i < bench.num_inputs; ++i)
            expected_intervals += inputBudget(bench, i, cfg);
    }

    // The digest of every operation at this seed must match: earlier
    // operations of this run, and earlier runs in this checkout (their
    // digest is kept in the work directory).
    const std::string digest_path =
        args.work_dir + "/experiment-digest-" + std::to_string(args.seed);
    std::optional<std::uint64_t> digest;
    if (std::ifstream in(digest_path); in) {
        std::uint64_t kept = 0;
        if (in >> kept)
            digest = kept;
    }
    auto check = [&](const ExperimentRun &run) {
        out.tally.ok(inputs); // one operation per input characterized
        const std::uint64_t d =
            experimentDigest(run.outputs.characterization,
                             run.outputs.analysis.clustering.assignment,
                             run.keys.selected);
        if (!digest) {
            digest = d;
            std::ofstream(digest_path) << d << "\n";
        }
        out.tally.check(d == *digest ? "" : "digest differs between runs",
                        "experiment digest is stable");
        out.tally.check(
            checkIntervals(run.outputs.characterization, expected_intervals),
            "interval count and values");
    };
    auto checkRecharacterize = [&](const ExperimentRun &run) {
        const auto b = static_cast<std::uint32_t>(
            args.seed % catalog->benchmarks().size());
        const auto &bench = catalog->benchmarks()[b];
        std::vector<mica::metrics::CharacteristicVector> fresh;
        for (std::uint32_t i = 0; i < bench.num_inputs; ++i) {
            const auto part = core::characterizeProgram(
                bench.build(i), cfg.interval_instructions,
                inputBudget(bench, i, cfg));
            fresh.insert(fresh.end(), part.begin(), part.end());
        }
        out.tally.check(
            compareBenchmarkIntervals(run.outputs.characterization, b, fresh),
            "re-characterized benchmark matches");
    };

    if (!args.trace) {
        std::vector<double> op_s, rate;
        double peak_rss = 0.0; // before each operation's checks
        const Clock::time_point start = Clock::now();
        do {
            StageObserver observer;
            const ExperimentRun run = runOnce(cfg, observer);
            peak_rss = selfPeakRssMb();
            op_s.push_back(run.op_s);
            std::fprintf(stderr,
                         "perfbench: op %zu: %.3f s, peak RSS %.1f MB\n",
                         op_s.size(), run.op_s, peak_rss);
            rate.push_back(run.instr_per_s);
            check(run);
            if (op_s.size() == 1)
                checkRecharacterize(run);
        } while (anotherFits(start, args.seconds, op_s.back()));
        out.add("setup_s", setup_s, "s");
        out.add("op_s", median(op_s), "s");
        out.add("throughput_per_s", median(rate), "1/s");
        out.add("peak_rss_mb", peak_rss, "MB");
        return out;
    }

    double untraced_s = 0.0;
    {
        StageObserver observer;
        const ExperimentRun run = runOnce(cfg, observer);
        untraced_s = run.op_s;
        check(run);
    }
    SpanLog::get().setEnabled(true);
    StageObserver observer;
    const ExperimentRun run = runOnce(cfg, observer);
    check(run);
    checkRecharacterize(run);
    out.add("bench.trace_overhead", run.op_s / untraced_s - 1.0, "ratio");
    addCharacterizeMetrics(observer, cfg.threads, out);
    probeClusteringCounters(run.outputs, out);
    const std::string model_path = args.work_dir + "/experiment-model.bin";
    double export_s = 0.0;
    {
        const Span span("model.export");
        const Clock::time_point t0 = Clock::now();
        core::buildPhaseModel(run.outputs, run.keys).save(model_path);
        export_s = secondsSince(t0);
    }
    probeModel(model_path, export_s, run.outputs.sampled.data,
               run.outputs.analysis.clustering.assignment, out);
    probeFrontHalf(*catalog, cfg, kReplayIntervals,
                   run.outputs.characterization, out);
    probeServe(args, model_path, 20000, out);
    return out;
}

} // namespace perfbench
