/**
 * @file
 * The benchmark's three workloads. Each runs as many whole operations as
 * fit in `args.seconds` (at least one), checks every output,
 * and fills the end-to-end metrics; with `args.trace` it instead runs one
 * untraced and one traced operation plus the per-layer probes, and fills
 * the per-layer metrics.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <string>

#include "common.hh"
#include "core/pipeline.hh"

namespace perfbench {

/** runFullExperiment + selectKeyCharacteristics at the default config. */
[[nodiscard]] Outcome runExperiment(const Args &args);

/** sample -> PCA -> k-means -> compare -> GA -> model save, 1000/bench. */
[[nodiscard]] Outcome runAnalyze(const Args &args);

/** The built phase_serve binary fed a generated stream over a pipe. */
[[nodiscard]] Outcome runServe(const Args &args);

/**
 * Make the inputs a workload keeps between runs (the characterization
 * analyze and serve load). False for an unknown workload.
 */
[[nodiscard]] bool prepareWorkload(const Args &args);

/** Intervals per input the front-half probe records and replays. */
inline constexpr std::uint32_t kReplayIntervals = 4;

/**
 * Path of the catalog characterization at `config`'s interval settings
 * under the work directory, characterizing and saving it first when it
 * is missing. This is preparation, not set-up: prepareWorkload does it
 * once per checkout, outside every timed or set-up measurement.
 */
[[nodiscard]] std::string ensureCharacterization(
    const Args &args, const mica::workloads::SuiteCatalog &catalog,
    const mica::core::ExperimentConfig &config);

/** Load a characterization saved by ensureCharacterization. */
[[nodiscard]] mica::core::CharacterizationResult loadCharacterizationFile(
    const mica::workloads::SuiteCatalog &catalog, const std::string &path);

/** A finished analysis and the time its model took to build and save. */
struct Analysis
{
    mica::core::ExperimentOutputs outputs;
    mica::ga::GaResult keys;
    double export_s = 0.0;
};

/**
 * sample -> analyzePhases -> compareSuites -> selectKeyCharacteristics ->
 * buildPhaseModel + save to `model_path`, with a span around each call.
 */
[[nodiscard]] Analysis analyzeAndSave(
    const mica::core::ExperimentConfig &cfg,
    const mica::core::CharacterizationResult &chars,
    const std::string &model_path);

/**
 * Traced-run serve probe shared by every workload: serve `lines` lines
 * generated from the model at `model_path` through phase_serve with and
 * without its --trace, and through a trivial pipe consumer, and add the
 * serve.* and obs.serve_trace_overhead metrics. Checks every reply.
 */
void probeServe(const Args &args, const std::string &model_path,
                std::size_t lines, Outcome &out);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
