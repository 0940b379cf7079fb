/**
 * @file
 * The benchmark's own tracing: spans recorded in memory around the
 * harness's calls into each layer, written out as Chrome trace-event JSON
 * when the run ends. Nothing under src/ is instrumented by this; the
 * pipeline's stage events arrive through the public PipelineObserver.
 *
 * Spans are opened and closed on the harness's main thread only, so a
 * span's children never overlap and its self time is its duration minus
 * the sum of its children's durations.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <array>
#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/observer.hh"

namespace perfbench {

/** In-memory span log; disabled logs record nothing. */
class SpanLog
{
  public:
    struct Record
    {
        std::string name;
        int parent = -1;      ///< index of the enclosing span, -1 = root
        double start_s = 0.0; ///< seconds since the log was created
        double end_s = -1.0;  ///< < start_s while the span is open
    };

    static SpanLog &get();

    void setEnabled(bool on) { enabled_ = on; }
    [[nodiscard]] bool enabled() const { return enabled_; }

    /** Open a span nested in the innermost open one; -1 when disabled. */
    int begin(std::string name);
    void end(int index);

    /** Sum of the durations of every span called `name`. */
    [[nodiscard]] double totalSeconds(const std::string &name) const;
    /** Sum over spans called `name` of duration minus child durations. */
    [[nodiscard]] double selfSeconds(const std::string &name) const;

    /** Write Chrome trace-event JSON ("X" events plus a self-time table). */
    void write(const std::string &path) const;

  private:
    SpanLog();
    [[nodiscard]] double now() const;

    bool enabled_ = false;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Record> records_;
    std::vector<int> open_;
};

/** RAII span on the global log. */
class Span
{
  public:
    explicit Span(std::string name)
        : index_(SpanLog::get().begin(std::move(name)))
    {
    }
    ~Span() { SpanLog::get().end(index_); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    int index_;
};

/**
 * PipelineObserver the harness passes into the pipeline. It keeps each
 * stage's End `elapsed`, mirrors Begin/End pairs into "core.stage.<name>"
 * spans, and records when each worker thread finished each benchmark
 * during Characterize, from which per-benchmark times are recovered
 * (consecutive finishes on one thread bracket one benchmark).
 */
class StageObserver final : public mica::core::PipelineObserver
{
  public:
    StageObserver() { span_.fill(-1); }

    void onStage(const mica::core::StageEvent &event) override;

    /** End `elapsed` of the last run of `stage`, in seconds. */
    [[nodiscard]] double stageSeconds(mica::core::Stage stage) const
    {
        return stage_s_[static_cast<std::size_t>(stage)];
    }

    /** Per-benchmark Characterize times, from the Progress timestamps. */
    [[nodiscard]] std::vector<double> benchmarkSeconds() const;

  private:
    struct Finish
    {
        std::thread::id thread;
        std::chrono::steady_clock::time_point at;
    };

    std::array<double, mica::core::kNumStages> stage_s_{};
    std::array<int, mica::core::kNumStages> span_{};
    std::chrono::steady_clock::time_point characterize_begin_{};
    std::mutex mutex_; ///< guards finishes_ (Progress may come from workers)
    std::vector<Finish> finishes_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
