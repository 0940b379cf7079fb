#include "layers.hh"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>

#include "checks.hh"
#include "ga/feature_select.hh"
#include "mica/ilp.hh"
#include "mica/ppm.hh"
#include "mica/profiler.hh"
#include "spans.hh"
#include "util/thread_pool.hh"
#include "vm/cpu.hh"

namespace perfbench {

namespace core = mica::core;
namespace vm = mica::vm;

namespace {

/** Keeps every retired instruction so it can be replayed. */
class RecordingSink final : public vm::TraceSink
{
  public:
    explicit RecordingSink(std::size_t expected) { trace.reserve(expected); }
    void onInstruction(const vm::DynInstr &dyn) override
    {
        trace.push_back(dyn);
    }

    std::vector<vm::DynInstr> trace;
};

/** Not inlined: the sink is reached through the virtual call the VM makes. */
[[gnu::noinline]] void
replay(vm::TraceSink &sink, const std::vector<vm::DynInstr> &trace)
{
    for (const vm::DynInstr &dyn : trace)
        sink.onInstruction(dyn);
}

/** The profiler's 12 predictors: {GAg,GAs,PAg,PAs} x history {4,8,12}. */
std::vector<mica::profiler::PpmPredictor>
profilerPredictors()
{
    std::vector<mica::profiler::PpmPredictor> predictors;
    for (const bool local : {false, true})
        for (const bool per_address : {false, true})
            for (const unsigned history : {4u, 8u, 12u})
                predictors.emplace_back(history, local, per_address);
    return predictors;
}

} // namespace

void
probeFrontHalf(const mica::workloads::SuiteCatalog &catalog,
               const core::ExperimentConfig &config,
               std::uint32_t max_intervals,
               const core::CharacterizationResult &reference, Outcome &out)
{
    const Span span("layers.front_half");
    std::map<std::pair<std::uint32_t, std::uint32_t>,
             std::vector<const mica::metrics::CharacteristicVector *>>
        stored;
    for (const core::IntervalRecord &rec : reference.intervals)
        stored[{rec.benchmark, rec.input}].push_back(&rec.values);

    double build_s = 0, verify_s = 0, vm_s = 0, vm_instr = 0;
    double mica_s = 0, mica_instr = 0, ilp_s = 0, ppm_s = 0, branches = 0;
    std::map<std::string, std::pair<double, double>> suite; // instr, s
    const auto &benchmarks = catalog.benchmarks();
    for (std::uint32_t b = 0; b < benchmarks.size(); ++b) {
        const mica::workloads::BenchmarkSpec &bench = benchmarks[b];
        for (std::uint32_t input = 0; input < bench.num_inputs; ++input) {
            Clock::time_point t0 = Clock::now();
            const mica::isa::Program program = bench.build(input);
            build_s += secondsSince(t0);
            t0 = Clock::now();
            core::verifyProgram(program);
            verify_s += secondsSince(t0);

            const std::uint32_t budget = inputBudget(bench, input, config);
            {
                vm::Cpu cpu(program);
                t0 = Clock::now();
                const vm::RunResult run = cpu.run(
                    config.interval_instructions * budget, nullptr);
                vm_s += secondsSince(t0);
                vm_instr += static_cast<double>(run.executed);
            }

            const std::uint64_t n = config.interval_instructions *
                std::min(budget, max_intervals);
            vm::Cpu cpu(program); // owns the instructions the trace points at
            RecordingSink rec(n);
            (void)cpu.run(n, &rec);
            const double instr = static_cast<double>(rec.trace.size());

            mica::profiler::MicaProfiler profiler(config.interval_instructions);
            t0 = Clock::now();
            replay(profiler, rec.trace);
            const double dt = secondsSince(t0);
            mica_s += dt;
            mica_instr += instr;
            suite[bench.suite].first += instr;
            suite[bench.suite].second += dt;

            const auto &want = stored[{b, input}];
            std::string error;
            if (want.size() < profiler.intervals().size())
                error = bench.id() + ": fewer stored intervals than replayed";
            for (std::size_t i = 0;
                 error.empty() && i < profiler.intervals().size(); ++i)
                if (std::memcmp(want[i]->data(),
                                profiler.intervals()[i].data(),
                                sizeof(mica::metrics::CharacteristicVector))
                    != 0)
                    error = bench.id() + ": replayed interval " +
                            std::to_string(i) + " differs";
            out.tally.check(error,
                            "replayed profiler matches characterization");

            mica::profiler::IlpAnalyzer ilp;
            t0 = Clock::now();
            for (std::size_t i = 0; i < rec.trace.size(); ++i) {
                ilp.onInstruction(rec.trace[i]);
                if ((i + 1) % config.interval_instructions == 0)
                    (void)ilp.closeInterval();
            }
            ilp_s += secondsSince(t0);

            auto predictors = profilerPredictors();
            t0 = Clock::now();
            for (const vm::DynInstr &dyn : rec.trace) {
                if (!dyn.is_cond_branch)
                    continue;
                branches += 1;
                for (auto &p : predictors)
                    (void)p.predictAndTrain(dyn.pc, dyn.taken);
            }
            ppm_s += secondsSince(t0);
        }
    }

    out.add("workloads.build_s", build_s, "s");
    out.add("analysis.verify_s", verify_s, "s");
    out.add("vm.minstr_per_s", vm_instr / vm_s / 1e6, "Minstr/s");
    out.add("mica.minstr_per_s", mica_instr / mica_s / 1e6, "Minstr/s");
    for (const std::string &name :
         mica::workloads::SuiteCatalog::suiteNames()) {
        const auto &[instr, seconds] = suite[name];
        out.add("mica.minstr_per_s." + name,
                seconds > 0 ? instr / seconds / 1e6 : 0.0, "Minstr/s");
    }
    out.add("mica.ilp_ns_per_instr", ilp_s / mica_instr * 1e9, "ns");
    out.add("mica.ppm_ns_per_branch", ppm_s / branches * 1e9, "ns");
    out.add("mica.other_ns_per_instr",
            (mica_s - ilp_s - ppm_s) / mica_instr * 1e9, "ns");
}

void
addCharacterizeMetrics(const StageObserver &observer, unsigned threads,
                       Outcome &out)
{
    const std::vector<double> per_benchmark = observer.benchmarkSeconds();
    double serial = 0.0, longest = 0.0;
    for (double s : per_benchmark) {
        serial += s;
        longest = std::max(longest, s);
    }
    const double wall = observer.stageSeconds(core::Stage::Characterize);
    const unsigned used =
        mica::util::resolveThreads(threads, per_benchmark.size());
    out.add("characterize.serial_s", serial, "s");
    out.add("characterize.max_benchmark_s", longest, "s");
    out.add("util.parallel_efficiency", serial / (used * wall), "ratio");
}

void
probeFrontStages(const mica::workloads::SuiteCatalog &catalog,
                 const core::ExperimentConfig &config,
                 const core::CharacterizationResult &reference, Outcome &out)
{
    StageObserver observer;
    {
        const Span span("core.stage.verify");
        core::verifyCatalog(catalog);
    }
    const core::CharacterizationResult chars =
        core::characterizeCatalog(catalog, config, &observer);
    out.tally.check(
        experimentDigest(chars, {}, {}) == experimentDigest(reference, {}, {})
            ? ""
            : "fresh characterization differs from the one loaded in setup",
        "characterization is current");
    addCharacterizeMetrics(observer, config.threads, out);
}

double
placeWaves(const mica::model::ModelReader &reader,
           const mica::stats::Matrix &rows, mica::model::Projection &proj)
{
    // The serving frontend's shape: 512-row waves, 64-row blocks.
    constexpr std::size_t kWave = 512;
    std::vector<mica::stats::Matrix> waves;
    for (std::size_t start = 0; start < rows.rows(); start += kWave) {
        mica::stats::Matrix wave(0, rows.cols());
        for (std::size_t r = start; r < std::min(rows.rows(), start + kWave);
             ++r)
            wave.appendRow(rows.row(r));
        waves.push_back(std::move(wave));
    }
    mica::stats::ProjectOptions popts;
    popts.threads = benchThreads();
    popts.block_rows = 64;
    proj = mica::model::Projection{};
    const Clock::time_point t0 = Clock::now();
    for (const mica::stats::Matrix &wave : waves) {
        const mica::model::Projection part = reader.placeBatch(wave, popts);
        proj.assignment.insert(proj.assignment.end(), part.assignment.begin(),
                               part.assignment.end());
        proj.dist2.insert(proj.dist2.end(), part.dist2.begin(),
                          part.dist2.end());
    }
    return secondsSince(t0);
}

void
probeModel(const std::string &path, double export_s,
           const mica::stats::Matrix &rows,
           const std::vector<std::size_t> &expected, Outcome &out)
{
    out.add("model.export_s", export_s, "s");
    out.add("model.bytes",
            static_cast<double>(std::filesystem::file_size(path)), "bytes");

    std::unique_ptr<mica::model::ModelReader> reader;
    {
        const Span span("model.open");
        const Clock::time_point t0 = Clock::now();
        reader = mica::model::open(path);
        out.add("model.open_ms", secondsSince(t0) * 1e3, "ms");
    }
    mica::model::Projection proj;
    {
        const Span span("stats.place");
        const double seconds = placeWaves(*reader, rows, proj);
        out.add("stats.place_rows_per_s",
                static_cast<double>(rows.rows()) / seconds, "rows/s");
    }
    {
        const Span span("model.assess");
        const Clock::time_point t0 = Clock::now();
        (void)reader->assessWorkload(proj);
        out.add("model.assess_ms", secondsSince(t0) * 1e3, "ms");
    }
    out.tally.check(comparePlacement(proj.assignment, expected),
                    "reopened model places the sample as clustered");
}

void
probeClusteringCounters(const core::ExperimentOutputs &outputs,
                        Outcome &out)
{
    const mica::stats::KMeansResult &km = outputs.analysis.clustering;
    const auto &dc = km.distance_counters;
    out.add("stats.kmeans_iterations", km.iterations, "count");
    out.add("stats.kmeans_distances", static_cast<double>(dc.computed),
            "count");
    out.add("stats.kmeans_pruned_share",
            static_cast<double>(dc.pruned) /
                static_cast<double>(dc.computed + dc.pruned),
            "ratio");

    // selectKeyCharacteristics builds its selector internally; the cache
    // counters come from an identical selection on a selector of our own.
    const Span span("ga.select");
    const mica::ga::FeatureSelector selector(
        core::prominentPhaseMatrix(outputs.sampled, outputs.analysis));
    mica::ga::GaOptions opts;
    opts.target_count = 12;
    opts.seed = outputs.config.seed ^ 0x6A;
    opts.threads = outputs.config.threads;
    (void)selector.select(opts);
    const auto stats = selector.cacheStats();
    out.add("ga.genomes_evaluated", static_cast<double>(stats.misses),
            "count");
    out.add("ga.cache_hit_rate",
            static_cast<double>(stats.hits) /
                static_cast<double>(stats.hits + stats.misses),
            "ratio");
}

} // namespace perfbench
