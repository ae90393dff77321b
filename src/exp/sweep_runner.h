/**
 * @file
 * Sweep execution: the `qec::sweep` back half.
 *
 * SweepRunner executes a SweepPlan, building each point's
 * MemoryExperiment from cross-point caches (codes per distance,
 * detector models per (d, rounds, basis), decoders per (model, kind,
 * p)) so grids that revisit a lattice or a detector model never
 * rebuild them. Every policy of a point runs through an
 * ExperimentSession (honoring the plan's early-stop rule), and the
 * finished PointResult streams to the attached sinks in plan order: a
 * bench_util style table printer, the unified JSON emitter, or a plain
 * collector for benches with bespoke presentation.
 *
 * One loop, two window defaults. The runner keeps a window of points
 * *live* at once and feeds their sessions' chunks to one set of
 * workers: each allocation round plans the next chunks of every live
 * session, splits them into word-group units, dispatches the unit bag
 * (parallelForWorkers), and then commits the finished chunks point by
 * point. By default the window is one point and the worker count is
 * the plan's thread count — the sequential sweep. With
 * SweepRunOptions::schedule the window widens to maxLivePoints points
 * on `workers` workers, so one point's tail (few word-groups left,
 * early stop pending) no longer strands the others' workers. A live
 * point opens its policies' sessions one at a time, in plan order, and
 * frees each once it is done, so at most one set of decode contexts
 * per point is ever held.
 *
 * Adaptive allocation: beyond a fair one-chunk-per-live-session
 * baseline, extra chunks of the round go to the sessions whose Wilson
 * confidence intervals are widest relative to the plan's precision
 * target — shots flow to the points that are furthest from stopping,
 * under the global SweepRunOptions::maxTotalShots budget. A one-point
 * window has one session and plans no extras: they could only run
 * ahead of its early stop.
 *
 * Determinism contract: results are bit-identical at ANY window and
 * worker count, and to a standalone ExperimentSession run —
 *
 *  - chunk boundaries are the session's own (planChunkAt /
 *    defaultChunkShotsAt reproduce exactly the sizes runChunk would
 *    have used, including the shrink near a shot cap);
 *  - chunk merges are unit-partial merges, commutative by
 *    ExperimentResult::merge's construction;
 *  - early stop is evaluated at commitChunk time on cumulative
 *    counters, in fixed session order — chunks planned past a
 *    boundary where the rule fires are executed speculatively and
 *    *discarded*, never committed, so every session stops at exactly
 *    the shot runChunk would stop at;
 *  - allocation decisions read only committed state at round
 *    barriers, never in-flight partials or wall-clock, so the round
 *    structure itself is worker-count-independent (the wall-clock
 *    deadline is the one documented exception).
 *
 * Fault tolerance (SweepRunOptions):
 *
 *  - Checkpoint/resume. With CheckpointOptions::path set, the runner
 *    persists a qec.ckpt.v1 artifact (exp/checkpoint.h) holding the
 *    working record of every live point at chunk boundaries —
 *    atomically, so a kill at any instant leaves a loadable
 *    checkpoint — and a rerun against the same plan skips completed
 *    points (re-emitting them to the sinks, so the final artifact is
 *    complete), restores in-flight points' partials at their exact
 *    chunk boundaries, and finishes bit-identically to a run that was
 *    never interrupted, whichever window either run used.
 *  - Recoverable point failures. A point that fails with a retryable
 *    Status (transient I/O, allocation failure) is retried with
 *    bounded backoff — its uncommitted round chunks discarded,
 *    committed progress kept — while the other points keep running; a
 *    point that keeps failing is quarantined — recorded in
 *    SweepSummary::errors, not emitted — and the sweep continues.
 *  - Deadlines. A wall-clock budget stops the sweep cleanly at a
 *    round boundary, checkpointing the partials so a later run can
 *    pick up where it stopped.
 */

#ifndef QEC_EXP_SWEEP_RUNNER_H
#define QEC_EXP_SWEEP_RUNNER_H

#include <cstdio>
#include <string>
#include <vector>

#include "base/status.h"
#include "exp/sweep_plan.h"

namespace qec
{

/** Everything produced at one grid point. */
struct PointResult
{
    SweepPoint point;
    /** One result per plan policy, in plan order. */
    std::vector<ExperimentResult> results;
    /** Unit-execution seconds per policy (summed over workers). */
    std::vector<double> seconds;
    std::vector<bool> stoppedEarly;
    /** Policy stopped at a deadline with shots remaining (the result
     *  is a valid, checkpoint-resumable partial). */
    std::vector<bool> truncated;
    /** Wall-clock seconds from the point entering execution to its
     *  completion (spans concurrent points in a cross-point window; 0
     *  for points re-emitted from a checkpoint). */
    double wallSeconds = 0.0;

    double
    shotsPerSec(size_t policy) const
    {
        return seconds[policy] > 0.0
            ? (double)results[policy].shots / seconds[policy]
            : 0.0;
    }
};

/** One quarantined grid point: what failed, and how it failed. */
struct SweepPointError
{
    uint64_t pointIndex = 0;
    int distance = 0;
    double p = 0.0;
    /** Execution attempts spent (1 + retries). */
    int attempts = 0;
    Status status;
};

/** Aggregate accounting for a finished sweep. */
struct SweepSummary
{
    size_t points = 0;
    uint64_t shotsRun = 0;
    double seconds = 0.0;
    /** Cross-point component-cache accounting. */
    size_t codesBuilt = 0;
    size_t codesReused = 0;
    size_t demsBuilt = 0;
    size_t demsReused = 0;
    size_t decodersBuilt = 0;
    size_t decodersReused = 0;

    // ------------------------------------------- fault tolerance
    /**
     * Overall outcome. Non-OK when the sweep could not run at all
     * (plan validation failure, unusable checkpoint) — the sinks are
     * never started in that case — or when every executed point
     * failed. Individual quarantined points do NOT make this non-OK;
     * they are listed in `errors`.
     */
    Status status;
    /** Outcome of the checkpoint load when resume was requested
     *  (OK also covers "no checkpoint yet"). */
    Status resumeStatus;
    /** Last checkpoint-save failure, if any (the sweep continues
     *  without durability rather than dying). */
    Status checkpointStatus;
    /** A checkpoint was loaded and at least one point was skipped
     *  or restored from it. */
    bool resumed = false;
    /** The wall-clock deadline stopped the sweep before the last
     *  point (resumable from the checkpoint). */
    bool truncated = false;
    /** Points skipped as already complete in the checkpoint. */
    size_t pointsResumed = 0;
    /** Points quarantined after exhausting retries (see errors). */
    size_t pointsFailed = 0;
    /** Point execution retries after retryable failures. */
    size_t retries = 0;
    size_t checkpointSaves = 0;
    std::vector<SweepPointError> errors;

    // ------------------------------------------- execution stats
    /** The sweep ran with the cross-point window
     *  (SweepRunOptions::schedule). */
    bool scheduled = false;
    /** Workers the units were dispatched onto. */
    unsigned workersUsed = 0;
    /** Allocation rounds the loop ran. */
    uint64_t schedulerRounds = 0;
    /** Session chunks dispatched (committed + discarded). */
    uint64_t chunksDispatched = 0;
    /** Shots granted beyond the fair one-chunk-per-session baseline
     *  by the Wilson-need ranking (adaptive reallocation). */
    uint64_t shotsReallocated = 0;
    /** Speculative shots executed but discarded because the early
     *  stop fired at an earlier committed boundary. */
    uint64_t shotsDiscarded = 0;
    /** Summed unit-execution seconds / (workers * sweep wall
     *  seconds). */
    double poolUtilization = 0.0;
    /** SweepRunOptions::maxTotalShots stopped the sweep with work
     *  remaining (truncated is set too; resumable). */
    bool budgetExhausted = false;
};

/** Streaming consumer of sweep results. */
class SweepSink
{
  public:
    virtual ~SweepSink() = default;
    virtual void
    beginSweep(const SweepPlan &plan,
               const std::vector<SweepPoint> &points)
    {
        (void)plan;
        (void)points;
    }
    virtual void onPoint(const PointResult &result) = 0;
    virtual void
    endSweep(const SweepSummary &summary)
    {
        (void)summary;
    }
};

/** Buffers every PointResult for bench-specific presentation. */
class CollectSink : public SweepSink
{
  public:
    std::vector<PointResult> points;

    void
    onPoint(const PointResult &result) override
    {
        points.push_back(result);
    }
};

/**
 * bench_util-style table: one row per point, one metric cell per
 * policy, with the varying axes as leading columns and a closing
 * throughput line — the uniform replacement for the hand-rolled
 * printf tables of the figure benches.
 */
class TableSink : public SweepSink
{
  public:
    enum class Metric
    {
        Ler,           ///< lerCell: value or <1/shots bound.
        Accuracy,      ///< Speculation accuracy, percent.
        LrcsPerRound,  ///< Average LRCs per round.
    };

    struct Options
    {
        Metric metric = Metric::Ler;
        /** Print results[gainNum].ler() / results[gainDen].ler() as a
         *  trailing ratio column (both >= 0 enables it). */
        int gainNum = -1;
        int gainDen = -1;
        std::string gainHeader = "gain";
        FILE *out = nullptr;   ///< Defaults to stdout.
    };

    TableSink() = default;
    explicit TableSink(Options options) : options_(options) {}

    void beginSweep(const SweepPlan &plan,
                    const std::vector<SweepPoint> &points) override;
    void onPoint(const PointResult &result) override;
    void endSweep(const SweepSummary &summary) override;

  private:
    FILE *out() const;
    Options options_;
    bool showP_ = false, showRounds_ = false, showProtocol_ = false,
         showDecoder_ = false, showWidth_ = false;
    std::vector<std::string> policyNames_;
};

/**
 * The unified machine-readable sweep artifact (schema
 * "qec.sweep.v1"): per point the resolved axes, derived seed and
 * shot count, and per policy the full counter set — logical errors,
 * LER, the order-independent verdict fingerprint, LRC/speculation
 * rates, decode-pipeline counters, early-stop state and throughput.
 * One emitter for every bench, replacing the bespoke
 * BENCH_decode.json / BENCH_simd.json printf code.
 *
 * In path mode the JSON is composed in memory and the file appears
 * atomically (temp + fsync + rename, with a bounded retry on
 * transient failures) in endSweep — a kill mid-sweep leaves the
 * previous artifact or none, never a syntactically-torn one. status()
 * reports the final write outcome. Stream mode (an already-open
 * FILE*, e.g. stdout) writes through unchanged.
 */
class JsonSink : public SweepSink
{
  public:
    /** Writes `path` atomically in endSweep; ok() reports whether
     *  the destination was probed writable. */
    explicit JsonSink(std::string path);
    /** Writes to an already-open stream (not closed on destruction). */
    explicit JsonSink(FILE *out);
    ~JsonSink() override;

    bool
    ok() const
    {
        return out_ != nullptr && status_.isOk();
    }

    /** Outcome of the artifact write (OK until endSweep in path
     *  mode, unless the writability probe already failed). */
    const Status &
    status() const
    {
        return status_;
    }

    void beginSweep(const SweepPlan &plan,
                    const std::vector<SweepPoint> &points) override;
    void onPoint(const PointResult &result) override;
    void endSweep(const SweepSummary &summary) override;

  private:
    std::string path_;
    FILE *out_ = nullptr;
    bool owned_ = false;
    bool firstPoint_ = true;
    bool closed_ = false;
    /** Path mode: open_memstream buffer behind out_. */
    char *memBuf_ = nullptr;
    size_t memLen_ = 0;
    Status status_;
};

/** Checkpoint policy for SweepRunner::run. */
struct CheckpointOptions
{
    /** qec.ckpt.v1 artifact path; empty disables checkpointing. */
    std::string path;
    /** Save every N session chunks (1 = every chunk boundary). */
    uint64_t everyChunks = 1;
    /** Also save when this much wall time passed since the last
     *  save, checked at chunk boundaries (0 = chunk cadence only). */
    double everySeconds = 0.0;
    /** Load an existing checkpoint and resume from it; with this off
     *  an existing file is overwritten as the sweep progresses. */
    bool resume = true;

    bool
    enabled() const
    {
        return !path.empty();
    }
};

/** Fault-tolerance policy for one SweepRunner::run invocation. */
struct SweepRunOptions
{
    CheckpointOptions checkpoint;
    /**
     * Wall-clock budget for the whole sweep, checked at chunk
     * boundaries (0 = none). On expiry the in-flight point is
     * checkpointed and the sweep stops with summary.truncated set;
     * finished points keep their sink rows, the partial point is not
     * emitted (a resumed run emits it when it completes).
     */
    double deadlineSeconds = 0.0;
    /** Execution attempts per point before quarantine (>= 1). */
    int maxPointAttempts = 3;
    /** Backoff before retry k is 2^(k-1) times this (bounded). */
    double retryBackoffSeconds = 0.05;

    // --------------------------------------------- sweep window
    /**
     * Widen the window from one point to maxLivePoints points:
     * chunks from many live points share `workers` workers, with
     * shots flowing to the sessions whose Wilson intervals are widest
     * relative to the precision target. Off (the default), one point
     * is live at a time on resolveThreadCount(plan.base.threads)
     * workers — the sequential sweep. Both run the same loop, so
     * results are bit-identical either way at any worker count
     * (fingerprints, counters, early-stop shots); only wall-clock
     * fields and, when maxTotalShots binds, the budget's distribution
     * across points differ.
     */
    bool schedule = false;
    /** Workers of the cross-point window (0 = defaultThreadCount());
     *  ignored without `schedule`. */
    unsigned workers = 0;
    /**
     * Global shot budget across every point and policy, accounted at
     * chunk boundaries (0 = none; overshoot is at most one chunk).
     * On exhaustion the sweep truncates exactly like a deadline —
     * partials checkpointed, summary.budgetExhausted set — but,
     * unlike a deadline, deterministically: the same budget truncates
     * at the same boundaries at any worker count.
     */
    uint64_t maxTotalShots = 0;
    /**
     * Cross-point window size: how many points may be live (built,
     * one session each in memory) at once. 0 derives max(8, workers);
     * ignored without `schedule` (the window is then one point).
     * Wider admits more cross-point parallelism; narrower bounds
     * memory. Does not affect results unless maxTotalShots binds
     * (admission order decides who competes for the remaining
     * budget).
     */
    size_t maxLivePoints = 0;
};

/** Executes a plan, streaming each point to the attached sinks. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepPlan plan);

    /** Attach a (non-owned) sink; call before run(). */
    void addSink(SweepSink &sink);

    const SweepPlan &
    plan() const
    {
        return plan_;
    }

    /** Run every point; returns the accounting summary. */
    SweepSummary run();

    /** As run(), with checkpointing, retry/quarantine, and deadline
     *  behavior per `options` (see SweepRunOptions). */
    SweepSummary run(const SweepRunOptions &options);

  private:
    SweepPlan plan_;
    std::vector<SweepSink *> sinks_;
};

} // namespace qec

#endif // QEC_EXP_SWEEP_RUNNER_H
