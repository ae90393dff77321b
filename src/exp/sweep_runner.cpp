#include "exp/sweep_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <new>
#include <thread>

#include "base/atomic_file.h"
#include "base/fault_injection.h"
#include "base/simd_word.h"
#include "exp/sweep_exec.h"
#include "exp/sweep_scheduler.h"

namespace qec
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start)
        .count();
}

std::string
metricCell(TableSink::Metric metric, const ExperimentResult &r)
{
    char buf[48];
    switch (metric) {
    case TableSink::Metric::Ler:
        if (r.logicalErrors == 0)
            std::snprintf(buf, sizeof(buf), "<%.1e",
                          r.shots ? 1.0 / (double)r.shots : 0.0);
        else
            std::snprintf(buf, sizeof(buf), "%.3e", r.ler());
        break;
    case TableSink::Metric::Accuracy:
        std::snprintf(buf, sizeof(buf), "%.1f%%",
                      r.speculationAccuracy() * 100.0);
        break;
    case TableSink::Metric::LrcsPerRound:
        std::snprintf(buf, sizeof(buf), "%.3f", r.avgLrcsPerRound());
        break;
    }
    return buf;
}

} // namespace

// ------------------------------------------------------------ TableSink

FILE *
TableSink::out() const
{
    return options_.out ? options_.out : stdout;
}

void
TableSink::beginSweep(const SweepPlan &plan,
                      const std::vector<SweepPoint> &points)
{
    showP_ = plan.ps.size() > 1;
    showRounds_ = plan.rounds.size() > 1;
    showProtocol_ = plan.protocols.size() > 1;
    showDecoder_ = plan.decoders.size() > 1;
    showWidth_ = plan.widths.size() > 1;
    (void)points;

    const RemovalProtocol proto =
        plan.protocols.empty() ? plan.base.protocol
                               : plan.protocols.front();
    policyNames_.clear();
    for (const SweepPolicy &policy : plan.policies)
        policyNames_.push_back(policy.displayName(proto));

    std::fprintf(out(), "%4s", "d");
    if (showP_)
        std::fprintf(out(), " %8s", "p");
    if (showRounds_)
        std::fprintf(out(), " %7s", "rounds");
    if (showProtocol_)
        std::fprintf(out(), " %5s", "proto");
    if (showDecoder_)
        std::fprintf(out(), " %10s", "decoder");
    if (showWidth_)
        std::fprintf(out(), " %6s", "width");
    std::fprintf(out(), " %9s", "shots");
    for (const std::string &name : policyNames_)
        std::fprintf(out(), " %12s", name.c_str());
    if (options_.gainNum >= 0 && options_.gainDen >= 0)
        std::fprintf(out(), " %14s", options_.gainHeader.c_str());
    std::fprintf(out(), "\n");
}

void
TableSink::onPoint(const PointResult &pr)
{
    std::fprintf(out(), "%4d", pr.point.distance);
    if (showP_)
        std::fprintf(out(), " %8.0e", pr.point.p);
    if (showRounds_)
        std::fprintf(out(), " %7d", pr.point.rounds);
    if (showProtocol_)
        std::fprintf(out(), " %5s", protocolName(pr.point.protocol));
    if (showDecoder_)
        std::fprintf(out(), " %10s",
                     decoderKindName(pr.point.decoderKind));
    if (showWidth_)
        std::fprintf(out(), " %6u", pr.point.batchWidth);
    // Shots actually run, not planned: with early stopping, policies
    // can finish at different counts (the per-policy exact numbers
    // are in the JSON artifact); report the largest so the column
    // never overstates a cell's sample size by more than its own
    // early stop did.
    uint64_t shots_run = 0;
    for (const ExperimentResult &r : pr.results)
        shots_run = std::max(shots_run, r.shots);
    std::fprintf(out(), " %9llu", (unsigned long long)shots_run);
    for (const ExperimentResult &r : pr.results)
        std::fprintf(out(), " %12s",
                     metricCell(options_.metric, r).c_str());
    if (options_.gainNum >= 0 && options_.gainDen >= 0) {
        const ExperimentResult &num = pr.results[options_.gainNum];
        const ExperimentResult &den = pr.results[options_.gainDen];
        if (num.logicalErrors == 0 || den.logicalErrors == 0)
            std::fprintf(out(), " %14s", "-");
        else
            std::fprintf(out(), " %13.2fx", num.ler() / den.ler());
    }
    std::fprintf(out(), "\n");
}

void
TableSink::endSweep(const SweepSummary &summary)
{
    std::fprintf(
        out(),
        "[sweep] %zu points, %llu shots in %.2fs (%.0f shots/s); "
        "reuse: codes %zu/%zu, dems %zu/%zu, decoders %zu/%zu\n",
        summary.points, (unsigned long long)summary.shotsRun,
        summary.seconds,
        (double)summary.shotsRun /
            (summary.seconds > 0.0 ? summary.seconds : 1.0),
        summary.codesReused, summary.codesBuilt + summary.codesReused,
        summary.demsReused, summary.demsBuilt + summary.demsReused,
        summary.decodersReused,
        summary.decodersBuilt + summary.decodersReused);
    if (summary.scheduled)
        std::fprintf(
            out(),
            "[sched] %u workers, %llu rounds, %llu chunks, "
            "%llu shots reallocated, %llu discarded, "
            "pool %.0f%% busy\n",
            summary.workersUsed,
            (unsigned long long)summary.schedulerRounds,
            (unsigned long long)summary.chunksDispatched,
            (unsigned long long)summary.shotsReallocated,
            (unsigned long long)summary.shotsDiscarded,
            summary.poolUtilization * 100.0);
}

// ------------------------------------------------------------- JsonSink

JsonSink::JsonSink(std::string path) : path_(std::move(path))
{
    owned_ = true;
    // Probe the destination before a potentially hours-long sweep:
    // an unwritable path should fail ok() now, not at endSweep.
    AtomicFileWriter probe;
    status_ = probe.open(path_);
    if (!status_.isOk()) {
        std::fprintf(stderr, "JsonSink: cannot write %s (%s)\n",
                     path_.c_str(), status_.toString().c_str());
        return;
    }
    probe.abandon();
    // Compose the artifact in memory; endSweep publishes it with one
    // atomic rename, so a crash mid-sweep can never leave a torn
    // half-JSON under the final name.
    out_ = open_memstream(&memBuf_, &memLen_);
    if (!out_)
        status_ = resourceExhaustedError(
            "JsonSink: open_memstream failed");
}

JsonSink::JsonSink(FILE *out) : out_(out), owned_(false) {}

JsonSink::~JsonSink()
{
    if (owned_) {
        if (out_)
            std::fclose(out_);
        std::free(memBuf_);
    }
}

void
JsonSink::beginSweep(const SweepPlan &plan,
                     const std::vector<SweepPoint> &points)
{
    if (!out_)
        return;
    std::fprintf(out_,
                 "{\n"
                 "  \"schema\": \"qec.sweep.v1\",\n"
                 "  \"sweep\": \"%s\",\n"
                 "  \"engine_backend\": \"%s\",\n"
                 "  \"recommended_width\": %d,\n"
                 "  \"early_stop\": %s,\n"
                 "  \"planned_points\": %zu,\n"
                 "  \"points\": [",
                 plan.name.c_str(), simdBackendName(),
                 recommendedBatchWidth(),
                 plan.earlyStop.enabled() ? "true" : "false",
                 points.size());
    firstPoint_ = true;
}

void
JsonSink::onPoint(const PointResult &pr)
{
    if (!out_)
        return;
    std::fprintf(
        out_,
        "%s\n    {\"index\": %zu, \"d\": %d, \"p\": %.6g, "
        "\"rounds\": %d, \"protocol\": \"%s\", \"decoder\": \"%s\", "
        "\"width\": %u, \"shots\": %llu, \"seed\": %llu, "
        "\"wall_seconds\": %.6g,\n"
        "     \"results\": [",
        firstPoint_ ? "" : ",", pr.point.index, pr.point.distance,
        pr.point.p, pr.point.rounds, protocolName(pr.point.protocol),
        decoderKindName(pr.point.decoderKind), pr.point.batchWidth,
        (unsigned long long)pr.point.shots,
        (unsigned long long)pr.point.seed, pr.wallSeconds);
    firstPoint_ = false;
    for (size_t i = 0; i < pr.results.size(); ++i) {
        const ExperimentResult &r = pr.results[i];
        std::fprintf(
            out_,
            "%s\n      {\"policy\": \"%s\", \"shots\": %llu, "
            "\"logical_errors\": %llu, \"ler\": %.8g, "
            "\"fingerprint\": \"0x%016llx\", "
            "\"lrcs_per_round\": %.6g, \"accuracy\": %.6g, "
            "\"fpr\": %.6g, \"fnr\": %.6g, "
            "\"decoded_shots\": %llu, \"zero_defect_shots\": %llu, "
            "\"cache_hits\": %llu, \"stopped_early\": %s, "
            "\"truncated\": %s, "
            "\"seconds\": %.6g, \"shots_per_s\": %.1f}",
            i == 0 ? "" : ",", r.policy.c_str(),
            (unsigned long long)r.shots,
            (unsigned long long)r.logicalErrors, r.ler(),
            (unsigned long long)r.verdictFingerprint,
            r.avgLrcsPerRound(), r.speculationAccuracy(),
            r.falsePositiveRate(), r.falseNegativeRate(),
            (unsigned long long)r.decodedShots,
            (unsigned long long)r.zeroDefectShots,
            (unsigned long long)r.syndromeCacheHits,
            pr.stoppedEarly[i] ? "true" : "false",
            // Benches that hand-build PointResults predate the
            // truncated column; treat a missing entry as false.
            (i < pr.truncated.size() && pr.truncated[i]) ? "true"
                                                         : "false",
            pr.seconds[i], pr.shotsPerSec(i));
    }
    std::fprintf(out_, "]}");
}

void
JsonSink::endSweep(const SweepSummary &summary)
{
    if (!out_ || closed_)
        return;
    std::fprintf(
        out_,
        "\n  ],\n"
        "  \"summary\": {\"points\": %zu, \"shots\": %llu, "
        "\"seconds\": %.3f, \"codes_built\": %zu, "
        "\"codes_reused\": %zu, \"dems_built\": %zu, "
        "\"dems_reused\": %zu, \"decoders_built\": %zu, "
        "\"decoders_reused\": %zu, \"status\": \"%s\", "
        "\"resumed\": %s, \"truncated\": %s, "
        "\"points_resumed\": %zu, \"points_failed\": %zu, "
        "\"retries\": %zu, \"scheduled\": %s, \"workers\": %u, "
        "\"scheduler_rounds\": %llu, \"chunks_dispatched\": %llu, "
        "\"shots_reallocated\": %llu, \"shots_discarded\": %llu, "
        "\"pool_utilization\": %.4f, \"budget_exhausted\": %s}\n}\n",
        summary.points, (unsigned long long)summary.shotsRun,
        summary.seconds, summary.codesBuilt, summary.codesReused,
        summary.demsBuilt, summary.demsReused, summary.decodersBuilt,
        summary.decodersReused, statusCodeName(summary.status.code()),
        summary.resumed ? "true" : "false",
        summary.truncated ? "true" : "false", summary.pointsResumed,
        summary.pointsFailed, summary.retries,
        summary.scheduled ? "true" : "false", summary.workersUsed,
        (unsigned long long)summary.schedulerRounds,
        (unsigned long long)summary.chunksDispatched,
        (unsigned long long)summary.shotsReallocated,
        (unsigned long long)summary.shotsDiscarded,
        summary.poolUtilization,
        summary.budgetExhausted ? "true" : "false");
    std::fflush(out_);
    closed_ = true;
    if (!owned_)
        return;

    // Path mode: publish the buffered artifact atomically, with a
    // short bounded-backoff retry on transient I/O failures.
    constexpr int kAttempts = 3;
    for (int attempt = 1; attempt <= kAttempts; ++attempt) {
        status_ = writeFileAtomic(path_, memBuf_, memLen_);
        if (status_.isOk() || !status_.isRetryable() ||
            attempt == kAttempts)
            break;
        std::this_thread::sleep_for(std::chrono::duration<double>(
            0.05 * (double)(1 << (attempt - 1))));
    }
    if (!status_.isOk())
        std::fprintf(stderr, "JsonSink: writing %s failed (%s)\n",
                     path_.c_str(), status_.toString().c_str());
}

// ---------------------------------------------------------- SweepRunner

SweepRunner::SweepRunner(SweepPlan plan) : plan_(std::move(plan)) {}

void
SweepRunner::addSink(SweepSink &sink)
{
    sinks_.push_back(&sink);
}

SweepSummary
SweepRunner::run()
{
    return run(SweepRunOptions());
}

SweepSummary
SweepRunner::run(const SweepRunOptions &options)
{
    if (options.schedule) {
        SweepScheduler scheduler(plan_, sinks_);
        return scheduler.run(options);
    }

    SweepSummary summary;
    // Recoverable up-front validation: a bad plan is reported in the
    // summary instead of aborting the process (the sinks are never
    // started, so no artifact is touched).
    summary.status = plan_.validate();
    if (!summary.status.isOk())
        return summary;

    const std::vector<SweepPoint> points = plan_.points();
    SweepCheckpoint ckpt;
    ckpt.planFingerprint =
        SweepCheckpoint::fingerprintPlan(plan_, points);
    if (!prepareSweepCheckpoint(options.checkpoint, ckpt, summary))
        return summary;

    for (SweepSink *sink : sinks_)
        sink->beginSweep(plan_, points);

    SweepBuildCache cache;

    const auto sweep_start = Clock::now();
    double last_save = 0.0;
    uint64_t chunks_since_save = 0;
    uint64_t budget_used = 0;

    const auto deadlineExpired = [&]() {
        return options.deadlineSeconds > 0.0 &&
               secondsSince(sweep_start) >= options.deadlineSeconds;
    };
    const auto budgetLeft = [&]() -> uint64_t {
        if (options.maxTotalShots == 0)
            return UINT64_MAX;
        return options.maxTotalShots > budget_used
            ? options.maxTotalShots - budget_used
            : 0;
    };
    // A failing save is recorded but does not stop the sweep: losing
    // checkpoint durability is strictly better than losing the run.
    const auto saveCheckpoint = [&]() {
        if (!options.checkpoint.enabled())
            return;
        Status st = ckpt.save(options.checkpoint.path);
        if (st.isOk())
            ++summary.checkpointSaves;
        else
            summary.checkpointStatus = st;
        chunks_since_save = 0;
        last_save = secondsSince(sweep_start);
    };

    for (const SweepPoint &point : points) {
        PointCheckpoint *saved = nullptr;
        auto saved_it = ckpt.points.find(point.index);
        if (saved_it != ckpt.points.end()) {
            if (saved_it->second.seed != point.seed) {
                // The plan fingerprint already covers every derived
                // seed; a mismatch here means the file was doctored
                // around the CRC. Refuse rather than resume garbage.
                summary.status = dataLossError(
                    "checkpoint point " +
                    std::to_string(point.index) +
                    " carries a different derived seed than the plan");
                break;
            }
            saved = &saved_it->second;
        }

        // Completed in a previous incarnation: re-emit the stored
        // result so the sink artifact of the resumed run is complete.
        if (saved && saved->finished) {
            PointResult pr;
            pr.point = point;
            for (const PolicyCheckpoint &pc : saved->policies) {
                pr.results.push_back(pc.progress.total);
                pr.seconds.push_back(pc.seconds);
                pr.stoppedEarly.push_back(pc.stoppedEarly);
                pr.truncated.push_back(false);
                summary.shotsRun += pc.progress.total.shots;
            }
            ++summary.points;
            ++summary.pointsResumed;
            for (SweepSink *sink : sinks_)
                sink->onPoint(pr);
            continue;
        }

        if (deadlineExpired()) {
            summary.truncated = true;
            break;
        }
        if (budgetLeft() == 0) {
            // The global shot budget is spent with points remaining:
            // truncate exactly like a deadline, but deterministically
            // (accounting is in committed shots, not wall-clock).
            summary.truncated = true;
            summary.budgetExhausted = true;
            break;
        }

        // Working progress record for this point: adopted from the
        // checkpoint partial when there is one, widened to the full
        // policy set (records past the crashed policy are fresh).
        PointCheckpoint working;
        if (saved)
            working = *saved;
        working.pointIndex = point.index;
        working.seed = point.seed;
        working.policies.resize(plan_.policies.size());

        PointResult pr;
        bool point_truncated = false;
        const auto point_start = Clock::now();

        const auto executePoint = [&]() -> Status {
            pr = PointResult();
            pr.point = point;
            point_truncated = false;
            try {
                StatusOr<SweepBuildCache::Components> built =
                    cache.build(point, plan_.base.decoderOptions,
                                summary);
                if (!built.ok())
                    return built.status();
                SweepBuildCache::Components comp =
                    std::move(built).value();

                MemoryExperiment exp(*comp.code, point.config,
                                     comp.dem, comp.decoder,
                                     comp.program);

                for (size_t pi = 0; pi < plan_.policies.size();
                     ++pi) {
                    PolicyCheckpoint &pc = working.policies[pi];
                    const SweepPolicy &policy = plan_.policies[pi];

                    // Finished policies (checkpoint, or an earlier
                    // attempt of this incarnation) are not re-run.
                    if (pc.finished) {
                        pr.results.push_back(pc.progress.total);
                        pr.seconds.push_back(pc.seconds);
                        pr.stoppedEarly.push_back(pc.stoppedEarly);
                        pr.truncated.push_back(false);
                        continue;
                    }

                    PolicyFactory factory = policy.custom
                        ? policy.custom(*comp.code, exp.lookup())
                        : makePolicyFactory(
                              policy.kind, *comp.code, exp.lookup(),
                              point.protocol ==
                                  RemovalProtocol::Dqlr);
                    SessionOptions session_options;
                    session_options.earlyStop = plan_.earlyStop;
                    ExperimentSession session(
                        exp, std::move(factory),
                        policy.displayName(point.protocol),
                        session_options);

                    const bool has_partial =
                        pc.progress.total.shots > 0 ||
                        pc.progress.nextSpan > 0 ||
                        pc.progress.stopped;
                    if (has_partial) {
                        Status st = session.restore(pc.progress);
                        if (!st.isOk())
                            return st;
                    }

                    const double base_seconds = pc.seconds;
                    const auto policy_start = Clock::now();
                    while (!session.done()) {
                        if (deadlineExpired()) {
                            point_truncated = true;
                            break;
                        }
                        if (budgetLeft() == 0) {
                            point_truncated = true;
                            summary.budgetExhausted = true;
                            break;
                        }
                        // The in-process SIGKILL stand-in: armed with
                        // Kind::Crash this throws SimulatedCrash out
                        // of run() (nothing below catches it), and
                        // the checkpoint saved at the previous
                        // boundary is what a rerun resumes from.
                        if (QEC_FAULT_POINT("sweep.chunk"))
                            return unavailableError(
                                "injected fault: sweep.chunk");
                        // Recomputed every iteration, exactly as
                        // runToCompletion does: the default shrinks
                        // near a shot cap, and a resumed session must
                        // hit the same boundaries an uninterrupted
                        // one would. The budget caps the request the
                        // same way maxShots does (overshoot at most
                        // one word-group).
                        const ExperimentResult chunk = session.runChunk(
                            std::min(session.defaultChunkShots(),
                                     budgetLeft()));
                        budget_used += chunk.shots;
                        pc.progress = session.progress();
                        pc.seconds =
                            base_seconds + secondsSince(policy_start);
                        pc.stoppedEarly = session.stoppedEarly();
                        ++chunks_since_save;
                        if (options.checkpoint.enabled() &&
                            (chunks_since_save >=
                                 options.checkpoint.everyChunks ||
                             (options.checkpoint.everySeconds > 0.0 &&
                              secondsSince(sweep_start) - last_save >=
                                  options.checkpoint.everySeconds))) {
                            ckpt.points[point.index] = working;
                            saveCheckpoint();
                        }
                    }

                    pc.progress = session.progress();
                    pc.seconds =
                        base_seconds + secondsSince(policy_start);
                    pc.finished = session.done();
                    pc.stoppedEarly = session.stoppedEarly();
                    pc.truncated = point_truncated && !pc.finished;
                    pr.results.push_back(session.result());
                    pr.seconds.push_back(pc.seconds);
                    pr.stoppedEarly.push_back(pc.stoppedEarly);
                    pr.truncated.push_back(pc.truncated);
                    if (point_truncated)
                        break;
                }
            } catch (const std::bad_alloc &) {
                return resourceExhaustedError(
                    "allocation failed while executing sweep point " +
                    std::to_string(point.index));
            }
            return okStatus();
        };

        // Bounded-backoff retry on transient failures; anything else
        // (or exhausted attempts) quarantines the point and the sweep
        // moves on. Retries resume from the policy's last completed
        // chunk (`working` keeps the partial), not from shot zero.
        const int max_attempts = std::max(1, options.maxPointAttempts);
        Status point_status;
        int attempts = 0;
        while (true) {
            ++attempts;
            point_status = executePoint();
            if (point_status.isOk() ||
                !point_status.isRetryable() ||
                attempts >= max_attempts)
                break;
            ++summary.retries;
            const double backoff = options.retryBackoffSeconds *
                (double)(1ull << (attempts - 1));
            if (backoff > 0.0)
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(backoff));
        }

        if (point_status.isOk() && !point_truncated) {
            working.finished = true;
            ckpt.points[point.index] = working;
            ++summary.points;
            for (const ExperimentResult &r : pr.results)
                summary.shotsRun += r.shots;
            pr.wallSeconds = secondsSince(point_start);
            summary.seconds = secondsSince(sweep_start);
            for (SweepSink *sink : sinks_)
                sink->onPoint(pr);
            // Completion is a durability milestone even when the
            // chunk cadence did not line up.
            saveCheckpoint();
        } else if (point_status.isOk()) {
            // Deadline hit mid-point: checkpoint the partial and stop.
            // The incomplete point is not emitted; the resumed run
            // emits it once it finishes.
            ckpt.points[point.index] = working;
            summary.truncated = true;
            saveCheckpoint();
            break;
        } else {
            ++summary.pointsFailed;
            SweepPointError err;
            err.pointIndex = point.index;
            err.distance = point.distance;
            err.p = point.p;
            err.attempts = attempts;
            err.status = point_status;
            summary.errors.push_back(std::move(err));
            // Keep the partial: a later resume retries the point
            // from its last checkpointed boundary.
            ckpt.points[point.index] = working;
            saveCheckpoint();
        }
    }

    if (summary.status.isOk() && summary.pointsFailed > 0 &&
        summary.points == 0)
        summary.status = summary.errors.front().status;

    summary.seconds = secondsSince(sweep_start);
    for (SweepSink *sink : sinks_)
        sink->endSweep(summary);
    return summary;
}

} // namespace qec
