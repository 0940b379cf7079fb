/**
 * @file
 * Per-layer probes for the traced run, each timed from outside through
 * the layer's public entry points: the front half (workloads, analysis,
 * vm, mica), the characterization's parallel schedule, the model and
 * placement layers, and the k-means / GA counters.
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <string>
#include <vector>

#include "common.hh"
#include "core/pipeline.hh"
#include "model/reader.hh"
#include "stats/matrix.hh"

namespace perfbench {

class StageObserver;

/**
 * Time BenchmarkSpec::build and core::verifyProgram over every catalog
 * input; run each input on a bare vm::Cpu at its full budget; record the
 * first `max_intervals` intervals of each input's DynInstr stream once
 * and replay it into a MicaProfiler, an IlpAnalyzer and the profiler's 12
 * PPM predictors. The replayed profiler's intervals are checked against
 * `reference` (the characterization the workload holds), one check per
 * input. Adds the workloads.*, analysis.*, vm.* and mica.* metrics.
 */
void probeFrontHalf(const mica::workloads::SuiteCatalog &catalog,
                    const mica::core::ExperimentConfig &config,
                    std::uint32_t max_intervals,
                    const mica::core::CharacterizationResult &reference,
                    Outcome &out);

/**
 * For workloads whose timed section does not characterize: run the
 * pipeline's first two stages as runFullExperiment does (verifyCatalog,
 * then characterizeCatalog with a StageObserver), check the result equals
 * `reference`, and add the characterize.* and util.* metrics.
 */
void probeFrontStages(const mica::workloads::SuiteCatalog &catalog,
                      const mica::core::ExperimentConfig &config,
                      const mica::core::CharacterizationResult &reference,
                      Outcome &out);

/** characterize.* / util.* metrics from an observer of a Characterize. */
void addCharacterizeMetrics(const StageObserver &observer, unsigned threads,
                            Outcome &out);

/**
 * Add the model.* and stats.place_rows_per_s metrics for the model the
 * workload saved at `path` in `export_s` seconds (buildPhaseModel + save):
 * its size, then model::open, placeBatch of `rows` in serve-sized waves,
 * and assessWorkload over that projection, each timed. Checks the
 * placement against `expected`.
 */
void probeModel(const std::string &path, double export_s,
                const mica::stats::Matrix &rows,
                const std::vector<std::size_t> &expected, Outcome &out);

/**
 * Add the stats.kmeans_* counters of the outputs' clustering, and the
 * ga.* counters of a key-characteristic selection re-run on a
 * FeatureSelector of our own with selectKeyCharacteristics' options.
 */
void probeClusteringCounters(const mica::core::ExperimentOutputs &outputs,
                             Outcome &out);

/**
 * placeBatch over `rows` in the serving frontend's shape (512-row waves,
 * 64-row blocks, benchThreads()); returns the seconds spent in placeBatch
 * and the concatenated placements in `proj`.
 */
double placeWaves(const mica::model::ModelReader &reader,
                  const mica::stats::Matrix &rows,
                  mica::model::Projection &proj);

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
