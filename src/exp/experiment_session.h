/**
 * @file
 * Streaming, resumable execution of one experiment point.
 *
 * An ExperimentSession runs the shots of one (experiment, policy)
 * pair in caller-sized chunks instead of one blocking call. Each
 * runChunk() returns a mergeable partial ExperimentResult (see
 * ExperimentResult::merge), and the accumulated result is available
 * at any time — so sweep orchestration can interleave points, stream
 * rows to sinks, and stop early once a target precision is reached.
 *
 * Bit-identity guarantee: chunk boundaries are aligned to the
 * word-group decomposition of the full run (batchGroupSpans), and
 * every group's noise streams are seeded by (config.seed, first shot)
 * alone — so a chunked session is bit-identical (equal verdict
 * fingerprint, counters, and LPR sums) to a single
 * MemoryExperiment::run call at every width, for any sequence of
 * chunk sizes.
 */

#ifndef QEC_EXP_EXPERIMENT_SESSION_H
#define QEC_EXP_EXPERIMENT_SESSION_H

#include <cstdint>
#include <memory>
#include <string>

#include "exp/memory_experiment.h"

namespace qec
{

/**
 * Early-stop rule evaluated between chunks on the accumulated result.
 * Stopping depends only on the cumulative counters at deterministic
 * chunk boundaries, so the same plan always stops at the same shot
 * count, at any thread count.
 */
struct EarlyStopRule
{
    /**
     * Stop once the Wilson score interval for the logical error rate
     * is relatively tight: half-width / center <= this value
     * (e.g. 0.1 for +-10%). 0 disables precision-based stopping.
     * Never fires before at least `minErrors` logical errors have
     * been observed (a zero-error LER has no meaningful interval).
     */
    double targetRelPrecision = 0.0;
    /** Normal quantile of the Wilson interval (1.96 ~ 95%). */
    double z = 1.96;
    /** Minimum observed logical errors before precision can stop. */
    uint64_t minErrors = 8;
    /** Hard shot cap (0 = config.shots is the only cap). */
    uint64_t maxShots = 0;
    /**
     * Shots between rule evaluations in runToCompletion (rounded up
     * to word-group boundaries). 0 derives a deterministic default
     * from the plan: max(4 * width, shots / 64).
     */
    uint64_t checkEvery = 0;

    bool
    enabled() const
    {
        return targetRelPrecision > 0.0 || maxShots > 0;
    }
};

/** Wilson-interval relative half-width (half-width / center) for k
 *  errors in n shots at normal quantile z; >1e300 when undefined. */
double wilsonRelHalfWidth(uint64_t k, uint64_t n, double z);

/**
 * One planned, not-yet-committed chunk: the half-open range of
 * execution units [beginUnit, endUnit) a chunk covers, aligned exactly
 * as runChunk would align it. A unit is one word-group span — the
 * grain at which a scheduler may execute a session's work
 * concurrently (see
 * ExperimentSession::runPlannedUnit / commitChunk).
 */
struct SessionChunkPlan
{
    uint64_t beginUnit = 0;
    uint64_t endUnit = 0;
    /** Shots the units cover (the chunk's partial.shots). */
    uint64_t shots = 0;

    bool
    empty() const
    {
        return beginUnit >= endUnit;
    }

    uint64_t
    units() const
    {
        return endUnit - beginUnit;
    }
};

/** Construction options for ExperimentSession. */
struct SessionOptions
{
    EarlyStopRule earlyStop;
    /**
     * Wall-clock budget for runToCompletion, checked between chunks
     * (0 = none). When it expires the session stops cleanly at the
     * chunk boundary and reports truncated(); the accumulated result
     * is a valid partial that a later session can resume from via
     * progress()/restore(). Truncation is wall-clock-dependent and so
     * never bit-reproducible; the *resume* contract is — a resumed
     * session replays the remaining chunks exactly.
     */
    double deadlineSeconds = 0.0;
};

/**
 * Everything needed to continue a session in another process: the
 * accumulated result plus the execution cursors at a chunk boundary.
 * Captured by progress(), persisted in qec.ckpt.v1 checkpoints
 * (exp/checkpoint.h), and reinstated with restore() — after which the
 * session runs the remaining chunks bit-identically to a session that
 * was never interrupted (group seeds depend only on (seed, first
 * shot), and early-stop decisions only on cumulative counters at
 * deterministic chunk boundaries).
 */
struct SessionProgress
{
    ExperimentResult total;
    /** Word-groups already executed. */
    uint64_t nextSpan = 0;
    /** The early-stop rule had already ended the session. */
    bool stopped = false;
};

class ExperimentSession
{
  public:
    /** Session over one policy kind (every_round follows the
     *  protocol). Precondition, as for MemoryExperiment::run
     *  (PolicyKind): validateExperimentConfig(exp.config(), kind)
     *  accepts the pair; a rejected pair panics. */
    ExperimentSession(const MemoryExperiment &exp, PolicyKind kind,
                      SessionOptions options = SessionOptions());
    ExperimentSession(const MemoryExperiment &exp,
                      PolicyFactory factory, std::string name,
                      SessionOptions options = SessionOptions());
    ~ExperimentSession();
    ExperimentSession(ExperimentSession &&) noexcept;
    ExperimentSession &operator=(ExperimentSession &&) noexcept;

    /**
     * Run up to `max_shots` more shots and return that chunk's partial
     * result (also merged into result()). The chunk is rounded up
     * to the next word-group boundary — the unit of execution — so
     * the shots actually run (`partial.shots`) may exceed the
     * request; a zero request still runs one group. Returns
     * an empty partial once the session is done. Evaluates the
     * early-stop rule on the accumulated result before returning.
     */
    ExperimentResult runChunk(uint64_t max_shots);

    /** Run chunks until done(), the early stop, or the deadline. */
    const ExperimentResult &runToCompletion();

    /** All planned shots executed, or the early-stop rule fired. */
    bool done() const;
    /** The early-stop rule ended the session before config.shots. */
    bool stoppedEarly() const;
    /** runToCompletion stopped at the wall-clock deadline with the
     *  session unfinished (resumable via progress()). */
    bool truncated() const;
    uint64_t shotsRun() const;
    /** config.shots, capped by EarlyStopRule::maxShots if set. */
    uint64_t shotsPlanned() const;
    /** Accumulated result over every chunk so far. */
    const ExperimentResult &result() const;

    /** Resumable snapshot at the current chunk boundary. */
    SessionProgress progress() const;

    /**
     * Reinstate a progress snapshot into a freshly-constructed
     * session of the same (experiment, policy). Rejects snapshots
     * whose cursor is inconsistent with this session's word-group
     * decomposition — the defense against resuming a
     * checkpoint against the wrong plan. FailedPrecondition if this
     * session has already run chunks.
     */
    Status restore(const SessionProgress &progress);

    /**
     * The chunk size runToCompletion uses between early-stop
     * evaluations — deterministic for a given (plan, rule), which
     * makes externally-driven chunk loops hit the same boundaries as
     * an uninterrupted runToCompletion.
     * ~0 when no early-stop rule is active (one maximal chunk).
     */
    uint64_t defaultChunkShots() const;

    // ------------------------------------------ scheduler interface
    //
    // The sweep loop (SweepRunner::run, exp/sweep_runner.h) splits
    // chunks into units, executes the units of *many* sessions
    // concurrently on one set of workers, and commits each chunk at a
    // barrier — in the session's own chunk order, so the committed
    // sequence of chunk boundaries (and therefore every early-stop
    // decision) is exactly the sequence runChunk/runToCompletion would
    // have produced.

    /** Execution units (word-group spans) in the whole session;
     *  progress().nextSpan ranges over [0, this]. */
    uint64_t totalUnits() const;
    /** Cursor of the next unexecuted unit. */
    uint64_t nextUnit() const;

    /**
     * Plan the chunk that a runChunk(max_shots) issued at cursor
     * `begin_unit` would execute: units accumulated until their shots
     * reach max(max_shots, 1), rounded up to unit boundaries. Pure —
     * does not advance the session — so a scheduler can plan several
     * consecutive chunks ahead (chain begin_unit = previous endUnit).
     */
    SessionChunkPlan planChunkAt(uint64_t begin_unit,
                                 uint64_t max_shots) const;

    /**
     * defaultChunkShots() as a pure function of the cumulative shot
     * count, for planning chunks ahead of commit: the default shrinks
     * near a maxShots cap, and a chunk planned k chunks ahead must be
     * sized as if the preceding k had already been committed.
     */
    uint64_t defaultChunkShotsAt(uint64_t shots_done) const;

    /** Grow the per-worker decode contexts to at least `n` slots, so
     *  units may run with worker indices in [0, n). Must not be
     *  called while units are in flight. */
    void ensureWorkerSlots(unsigned n);

    /**
     * Execute one unit on worker slot `slot` and return its partial
     * result (decode-pipeline counters attributed per unit, so a
     * chunk's partial is the merge of its units' partials no matter
     * which slots ran them). Thread-safe for concurrent calls with
     * distinct (unit, slot) pairs; does not advance the session.
     */
    ExperimentResult runPlannedUnit(uint64_t unit, unsigned slot);

    /**
     * Commit a fully-executed chunk: `merged` must be the merge of
     * runPlannedUnit partials for exactly plan's units. Advances the
     * cursor, folds `merged` into result(), and evaluates the
     * early-stop rule — equivalent to runChunk having executed the
     * chunk itself. Chunks must be committed in order from the
     * current cursor; a chunk planned past a boundary where the rule
     * fired must be discarded, not committed (the scheduler's
     * speculative-execution contract).
     */
    void commitChunk(const SessionChunkPlan &plan,
                     const ExperimentResult &merged);

  private:
    struct Impl;

    ExperimentResult newPartial() const;
    void evaluateStop();

    std::unique_ptr<Impl> impl_;
};

} // namespace qec

#endif // QEC_EXP_EXPERIMENT_SESSION_H
