#include "exp/sweep_runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <set>
#include <thread>

#include "base/atomic_file.h"
#include "base/fault_injection.h"
#include "base/parallel.h"
#include "base/simd_word.h"
#include "exp/sweep_exec.h"

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

/** One planned chunk of a session's round: the unit range, and the
 *  merge of its executed unit partials (filled by the workers). */
struct RoundChunk
{
    SessionChunkPlan plan;
    ExperimentResult acc;
};

/** One live point: its experiment, its one open policy session, and
 *  its working checkpoint record. */
struct LivePoint
{
    SweepPoint point;
    std::unique_ptr<MemoryExperiment> exp;
    /** Plan index of the open session's policy (the policy count
     *  once every policy finished). */
    size_t policy = 0;
    /** Null between policies and once every policy finished. */
    std::unique_ptr<ExperimentSession> session;
    /** Seconds the open policy inherited from the checkpoint. */
    double baseSeconds = 0.0;
    /** Unit-execution seconds the open session spent this
     *  incarnation (its per-policy wall time). */
    double busySeconds = 0.0;
    /** This round's planned chunks, in commit order. */
    std::vector<RoundChunk> chunks;
    /** Planning cursors: simulate commits while planning ahead. */
    uint64_t simUnit = 0;
    uint64_t simShots = 0;
    PointCheckpoint working;
    /** Execution attempts so far (1 = first). */
    int attempts = 1;
    Clock::time_point started;
    /** Set by a worker task on failure; the commit phase resolves
     *  it. */
    std::atomic<bool> faulted{false};
    /** Guarded by the merge mutex while workers run. */
    Status faultStatus;
};

/** A retryable-faulted point waiting out its backoff. Its partial
 *  lives in ckpt.points; re-admission rebuilds it from there. */
struct RetryGate
{
    int attempts = 1;
    Clock::time_point nextAttempt;
    Clock::time_point started;
};

/** One executable work item: a unit of a planned chunk. */
struct UnitTask
{
    LivePoint *lp = nullptr;
    RoundChunk *chunk = nullptr;
    uint64_t unit = 0;
};

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
            pr.truncated[i] ? "true" : "false",
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
    SweepSummary summary;
    summary.scheduled = options.schedule;
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

    // The sequential window is one point on the plan's own thread
    // count; the cross-point window admits several onto
    // options.workers.
    const unsigned workers = resolveThreadCount(
        UINT64_MAX,
        options.schedule ? options.workers : plan_.base.threads);
    summary.workersUsed = workers;
    // The cross-point window's floor keeps the window (and therefore
    // every allocation decision) identical across the worker counts
    // the determinism tests compare.
    const size_t max_live = !options.schedule ? 1
        : options.maxLivePoints ? options.maxLivePoints
                                : std::max<size_t>(8, workers);
    const size_t num_policies = plan_.policies.size();
    const int max_attempts = std::max(1, options.maxPointAttempts);

    for (SweepSink *sink : sinks_)
        sink->beginSweep(plan_, points);

    SweepBuildCache cache;
    const auto sweep_start = Clock::now();
    double last_save = 0.0;
    uint64_t chunks_since_save = 0;
    uint64_t committed_shots = 0;
    double busy_seconds = 0.0;

    std::map<uint64_t, LivePoint> live;
    std::map<uint64_t, RetryGate> retry_wait;
    /** Finished out of order, awaiting their turn in plan order. */
    std::map<uint64_t, PointResult> completed;
    std::set<uint64_t> resolved_failed;
    size_t next_admit = 0;
    size_t next_emit = 0;
    std::mutex merge_mutex;
    std::vector<UnitTask> tasks;
    std::vector<uint64_t> to_erase;
    uint64_t round_chunks = 0;
    uint64_t planned_round_shots = 0;

    const auto deadlineExpired = [&]() {
        return options.deadlineSeconds > 0.0 &&
               secondsSince(sweep_start) >= options.deadlineSeconds;
    };
    const auto budgetLeft = [&]() -> uint64_t {
        if (options.maxTotalShots == 0)
            return UINT64_MAX;
        return options.maxTotalShots > committed_shots
            ? options.maxTotalShots - committed_shots
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
    const auto writeLivePartials = [&]() {
        for (auto &kv : live)
            ckpt.points[kv.first] = kv.second.working;
    };
    const auto flushEmissions = [&]() {
        while (next_emit < points.size()) {
            const uint64_t idx = points[next_emit].index;
            if (resolved_failed.count(idx)) {
                ++next_emit;
                continue;
            }
            auto it = completed.find(idx);
            if (it == completed.end())
                break;
            for (SweepSink *sink : sinks_)
                sink->onPoint(it->second);
            completed.erase(it);
            ++next_emit;
        }
    };
    // Unfinished work beyond what the checkpoint already completed —
    // the "does truncation apply" test for budget exhaustion.
    const auto workRemains = [&]() {
        if (!live.empty() || !retry_wait.empty())
            return true;
        for (size_t p = next_admit; p < points.size(); ++p) {
            auto it = ckpt.points.find(points[p].index);
            if (it == ckpt.points.end() || !it->second.finished)
                return true;
        }
        return false;
    };
    // A point whose every policy finished, as its sinks see it.
    const auto finishedResult = [&](const SweepPoint &point,
                                    const PointCheckpoint &record) {
        PointResult pr;
        pr.point = point;
        for (const PolicyCheckpoint &pc : record.policies) {
            pr.results.push_back(pc.progress.total);
            pr.seconds.push_back(pc.seconds);
            pr.stoppedEarly.push_back(pc.stoppedEarly);
            pr.truncated.push_back(false);
            summary.shotsRun += pc.progress.total.shots;
        }
        ++summary.points;
        return pr;
    };
    // Orchestration-thread faults; pool tasks set theirs under the
    // merge mutex.
    const auto fault = [](LivePoint &lp, Status st) {
        lp.faultStatus = std::move(st);
        lp.faulted.store(true);
    };

    // Resolve a faulted point after its round chunks are discarded:
    // retryable and attempts left -> wait out the backoff and rebuild
    // from the committed partial; otherwise quarantine. Committed
    // progress is kept either way.
    const auto handleFault = [&](LivePoint &lp) {
        lp.chunks.clear();
        const Status st = lp.faultStatus;
        ckpt.points[lp.point.index] = lp.working;
        if (!st.isRetryable() || lp.attempts >= max_attempts) {
            ++summary.pointsFailed;
            SweepPointError err;
            err.pointIndex = lp.point.index;
            err.distance = lp.point.distance;
            err.p = lp.point.p;
            err.attempts = lp.attempts;
            err.status = st;
            summary.errors.push_back(std::move(err));
            saveCheckpoint();
            resolved_failed.insert(lp.point.index);
        } else {
            ++summary.retries;
            const double backoff = options.retryBackoffSeconds *
                (double)(1ull << (lp.attempts - 1));
            RetryGate gate;
            gate.attempts = lp.attempts + 1;
            gate.nextAttempt = Clock::now() +
                std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(backoff));
            gate.started = lp.started;
            retry_wait[lp.point.index] = gate;
        }
        to_erase.push_back(lp.point.index);
    };

    const auto recordProgress = [&](LivePoint &lp) {
        PolicyCheckpoint &pc = lp.working.policies[lp.policy];
        pc.progress = lp.session->progress();
        pc.seconds = lp.baseSeconds + lp.busySeconds;
        pc.finished = lp.session->done();
        pc.stoppedEarly = lp.session->stoppedEarly();
    };
    // Move the point on to its next unfinished policy, in plan order:
    // a done session is closed (its result stays in the point's
    // PolicyCheckpoint) before the next one opens, restored from its
    // committed partial when the checkpoint has one. A point never
    // holds more than one session, and so never more than one set of
    // decode contexts.
    const auto advanceSession = [&](LivePoint &lp) {
        while (!lp.faulted.load()) {
            if (lp.session) {
                if (!lp.session->done())
                    return;
                recordProgress(lp);
                lp.session.reset();
                ++lp.policy;
            }
            while (lp.policy < num_policies &&
                   lp.working.policies[lp.policy].finished)
                ++lp.policy;
            if (lp.policy == num_policies)
                return;
            const PolicyCheckpoint &pc = lp.working.policies[lp.policy];
            const SweepPolicy &policy = plan_.policies[lp.policy];
            const RotatedSurfaceCode &code = lp.exp->code();
            try {
                PolicyFactory factory = policy.custom
                    ? policy.custom(code, lp.exp->lookup())
                    : makePolicyFactory(
                          policy.kind, code, lp.exp->lookup(),
                          lp.point.protocol == RemovalProtocol::Dqlr);
                SessionOptions session_options;
                session_options.earlyStop = plan_.earlyStop;
                lp.session = std::make_unique<ExperimentSession>(
                    *lp.exp, std::move(factory),
                    policy.displayName(lp.point.protocol),
                    session_options);
                lp.baseSeconds = pc.seconds;
                lp.busySeconds = 0.0;
                const bool has_partial = pc.progress.total.shots > 0 ||
                                         pc.progress.nextSpan > 0 ||
                                         pc.progress.stopped;
                if (has_partial) {
                    Status st = lp.session->restore(pc.progress);
                    if (!st.isOk()) {
                        fault(lp, std::move(st));
                        return;
                    }
                }
                lp.session->ensureWorkerSlots(workers);
            } catch (const std::bad_alloc &) {
                fault(lp, resourceExhaustedError(
                              "allocation failed while opening a "
                              "session of sweep point " +
                              std::to_string(lp.point.index)));
            }
        }
    };

    const auto pointComplete = [&](const LivePoint &lp) {
        return !lp.faulted.load(std::memory_order_relaxed) &&
               !lp.session && lp.policy == num_policies;
    };
    const auto finalizePoint = [&](LivePoint &lp) {
        lp.working.finished = true;
        for (PolicyCheckpoint &pc : lp.working.policies)
            pc.truncated = false;
        PointResult pr = finishedResult(lp.point, lp.working);
        pr.wallSeconds = secondsSince(lp.started);
        ckpt.points[lp.point.index] = lp.working;
        completed[lp.point.index] = std::move(pr);
        to_erase.push_back(lp.point.index);
        // Completion is a durability milestone even when the chunk
        // cadence did not line up.
        saveCheckpoint();
    };
    const auto finalizePass = [&]() {
        to_erase.clear();
        for (auto &kv : live)
            if (pointComplete(kv.second))
                finalizePoint(kv.second);
        for (uint64_t idx : to_erase)
            live.erase(idx);
        flushEmissions();
    };

    // Admit one point: build its components and open its first
    // unfinished policy's session. Failures mark the point faulted
    // for the fault pass.
    const auto admitOne = [&](const SweepPoint &point, int attempts,
                              Clock::time_point started) {
        auto saved_it = ckpt.points.find(point.index);
        LivePoint &lp = live[point.index];
        lp.point = point;
        lp.attempts = attempts;
        lp.started = started;
        lp.working = saved_it != ckpt.points.end() ? saved_it->second
                                                   : PointCheckpoint();
        lp.working.pointIndex = point.index;
        lp.working.seed = point.seed;
        lp.working.policies.resize(num_policies);
        try {
            StatusOr<SweepBuildCache::Components> built =
                cache.build(point, plan_.base.decoderOptions,
                            summary);
            if (!built.ok()) {
                fault(lp, built.status());
                return;
            }
            const SweepBuildCache::Components &comp = built.value();
            lp.exp = std::make_unique<MemoryExperiment>(
                *comp.code, point.config, comp.dem, comp.decoder,
                comp.program);
        } catch (const std::bad_alloc &) {
            fault(lp, resourceExhaustedError(
                          "allocation failed while building sweep "
                          "point " +
                          std::to_string(point.index)));
            return;
        }
        advanceSession(lp);
    };

    // Fill the window: expired retries first (their plan position
    // precedes anything new), then new points in plan order.
    // Checkpoint-finished points re-emit without taking a slot.
    // Returns false on the fatal doctored-checkpoint case.
    const auto admitPoints = [&]() -> bool {
        for (auto it = retry_wait.begin();
             it != retry_wait.end() && live.size() < max_live;) {
            if (Clock::now() >= it->second.nextAttempt) {
                // A point's index is its position in the plan.
                admitOne(points[it->first],
                         it->second.attempts, it->second.started);
                it = retry_wait.erase(it);
            } else {
                ++it;
            }
        }
        while (next_admit < points.size() &&
               live.size() < max_live) {
            const SweepPoint &point = points[next_admit];
            auto saved_it = ckpt.points.find(point.index);
            if (saved_it != ckpt.points.end()) {
                if (saved_it->second.seed != point.seed) {
                    // The plan fingerprint already covers every
                    // derived seed; a mismatch here means the file
                    // was doctored around the CRC. Refuse rather
                    // than resume garbage.
                    summary.status = dataLossError(
                        "checkpoint point " +
                        std::to_string(point.index) +
                        " carries a different derived seed than the "
                        "plan");
                    return false;
                }
                if (saved_it->second.finished) {
                    // Completed in a previous incarnation: re-emit
                    // the stored result so the sink artifact of the
                    // resumed run is complete.
                    completed[point.index] =
                        finishedResult(point, saved_it->second);
                    ++summary.pointsResumed;
                    ++next_admit;
                    continue;
                }
            }
            admitOne(point, 1, Clock::now());
            ++next_admit;
        }
        return true;
    };

    const auto faultPass = [&]() {
        to_erase.clear();
        for (auto &kv : live)
            if (kv.second.faulted.load())
                handleFault(kv.second);
        for (uint64_t idx : to_erase)
            live.erase(idx);
    };

    // Plan one more chunk for a point's session, exactly as its own
    // runChunk loop would size it (shrinking near a shot cap, capped
    // by the round's remaining budget). Returns false when the
    // session is fully planned or the budget is spoken for.
    const auto planOne = [&](LivePoint &lp, bool extra) -> bool {
        ExperimentSession &s = *lp.session;
        if (lp.simUnit >= s.totalUnits())
            return false;
        uint64_t want = s.defaultChunkShotsAt(lp.simShots);
        if (options.maxTotalShots) {
            const uint64_t left = budgetLeft();
            if (left <= planned_round_shots)
                return false;
            want = std::min(want, left - planned_round_shots);
        }
        RoundChunk rc;
        rc.plan = s.planChunkAt(lp.simUnit, want);
        if (rc.plan.empty())
            return false;
        lp.simUnit = rc.plan.endUnit;
        lp.simShots += rc.plan.shots;
        planned_round_shots += rc.plan.shots;
        if (extra)
            summary.shotsReallocated += rc.plan.shots;
        lp.chunks.push_back(std::move(rc));
        ++round_chunks;
        return true;
    };

    // Commit a point's executed chunks in order, then move on to its
    // next policy if the session finished.
    const auto commitPoint = [&](LivePoint &lp) {
        for (RoundChunk &rc : lp.chunks) {
            if (lp.session->done()) {
                summary.shotsDiscarded += rc.plan.shots;
                continue;
            }
            try {
                // The in-process SIGKILL stand-in: armed with
                // Kind::Crash this throws SimulatedCrash out of run()
                // (nothing below catches it), and the checkpoint
                // saved at the previous boundary is what a rerun
                // resumes from. Polled once per committed chunk, in
                // commit order.
                if (QEC_FAULT_POINT("sweep.chunk")) {
                    fault(lp, unavailableError(
                                  "injected fault: sweep.chunk"));
                    break;
                }
            } catch (const std::bad_alloc &) {
                fault(lp, resourceExhaustedError(
                              "allocation failed while committing "
                              "sweep point " +
                              std::to_string(lp.point.index)));
                break;
            }
            lp.session->commitChunk(rc.plan, rc.acc);
            committed_shots += rc.plan.shots;
            recordProgress(lp);
            ++chunks_since_save;
            if (options.checkpoint.enabled() &&
                (chunks_since_save >= options.checkpoint.everyChunks ||
                 (options.checkpoint.everySeconds > 0.0 &&
                  secondsSince(sweep_start) - last_save >=
                      options.checkpoint.everySeconds))) {
                writeLivePartials();
                saveCheckpoint();
            }
        }
        lp.chunks.clear();
        advanceSession(lp);
    };

    while (true) {
        finalizePass();
        if (live.empty() && retry_wait.empty() &&
            next_admit >= points.size())
            break;
        if ((deadlineExpired() || budgetLeft() == 0) &&
            workRemains()) {
            summary.truncated = true;
            if (budgetLeft() == 0)
                summary.budgetExhausted = true;
            for (auto &kv : live) {
                LivePoint &lp = kv.second;
                if (lp.session)
                    lp.working.policies[lp.policy].truncated = true;
            }
            writeLivePartials();
            saveCheckpoint();
            break;
        }
        if (!admitPoints()) {
            writeLivePartials();
            saveCheckpoint();
            break;
        }
        faultPass();
        finalizePass();
        if (live.empty()) {
            if (retry_wait.empty() && next_admit >= points.size())
                break;
            // Every live candidate is waiting out a retry backoff;
            // yield briefly instead of spinning on admission.
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            continue;
        }

        // ---------------------------------------------- allocation
        // Base pass: one chunk per live session, in fixed point order
        // — the fair baseline, never wasted work.
        tasks.clear();
        round_chunks = 0;
        planned_round_shots = 0;
        for (auto &kv : live) {
            LivePoint &lp = kv.second;
            lp.chunks.clear();
            lp.simUnit = lp.session->nextUnit();
            lp.simShots = lp.session->shotsRun();
            planOne(lp, false);
        }
        // Adaptive extras: as many additional chunks as the baseline
        // granted, handed to the sessions whose Wilson intervals are
        // widest relative to the precision target (committed counters
        // only — worker-count independent). Without a precision rule
        // the need is the remaining-shots gap; sessions whose base
        // chunk already covers the whole remainder take nothing. A
        // one-point window has one session, whose extras would only
        // run ahead of its early stop, so it plans none.
        uint64_t extras = max_live > 1 ? round_chunks : 0;
        struct Cand
        {
            LivePoint *lp;
            double need;
            int granted;
        };
        std::vector<Cand> cands;
        for (auto &kv : live) {
            const ExperimentSession &s = *kv.second.session;
            const ExperimentResult &r = s.result();
            double need;
            if (plan_.earlyStop.targetRelPrecision > 0.0)
                need = wilsonRelHalfWidth(r.logicalErrors, r.shots,
                                          plan_.earlyStop.z) /
                    plan_.earlyStop.targetRelPrecision;
            else
                need = (double)(s.shotsPlanned() - s.shotsRun());
            cands.push_back(Cand{&kv.second, need, 0});
        }
        std::stable_sort(cands.begin(), cands.end(),
                         [](const Cand &a, const Cand &b) {
                             return a.need > b.need;
                         });
        constexpr int kMaxExtraChunks = 3;
        bool granted_any = true;
        while (extras > 0 && granted_any) {
            granted_any = false;
            for (Cand &c : cands) {
                if (extras == 0)
                    break;
                if (c.granted >= kMaxExtraChunks)
                    continue;
                if (!planOne(*c.lp, true))
                    continue;
                ++c.granted;
                --extras;
                granted_any = true;
            }
        }

        // ------------------------------------------------ dispatch
        for (auto &kv : live)
            for (RoundChunk &rc : kv.second.chunks)
                for (uint64_t u = rc.plan.beginUnit;
                     u < rc.plan.endUnit; ++u)
                    tasks.push_back(UnitTask{&kv.second, &rc, u});
        if (tasks.empty())
            continue;
        ++summary.schedulerRounds;
        summary.chunksDispatched += round_chunks;

        // Runs inline at one worker: no pool threads exist then.
        parallelForWorkers(
            tasks.size(),
            [&](unsigned worker, uint64_t i) {
                UnitTask &t = tasks[i];
                if (t.lp->faulted.load(std::memory_order_relaxed))
                    return;
                try {
                    if (QEC_FAULT_POINT("sweep.unit")) {
                        std::lock_guard<std::mutex> lock(merge_mutex);
                        if (!t.lp->faulted.exchange(true))
                            t.lp->faultStatus = unavailableError(
                                "injected fault: sweep.unit");
                        return;
                    }
                    const auto unit_start = Clock::now();
                    ExperimentResult part =
                        t.lp->session->runPlannedUnit(t.unit, worker);
                    const double dt = secondsSince(unit_start);
                    std::lock_guard<std::mutex> lock(merge_mutex);
                    t.chunk->acc.merge(part);
                    t.lp->busySeconds += dt;
                    busy_seconds += dt;
                } catch (const std::bad_alloc &) {
                    std::lock_guard<std::mutex> lock(merge_mutex);
                    if (!t.lp->faulted.exchange(true))
                        t.lp->faultStatus = resourceExhaustedError(
                            "allocation failed while executing sweep "
                            "point " +
                            std::to_string(t.lp->point.index));
                }
            },
            workers);

        // -------------------------------------------------- commit
        // Single-threaded, fixed (point, chunk) order: the committed
        // boundary sequence — and with it every early-stop decision
        // and fault-site poll — is identical at any worker count.
        // Chunks planned past a boundary where the stop rule fired
        // were speculative; discard them uncommitted.
        to_erase.clear();
        for (auto &kv : live) {
            LivePoint &lp = kv.second;
            if (!lp.faulted.load())
                commitPoint(lp);
            if (lp.faulted.load())
                handleFault(lp);
            else if (pointComplete(lp))
                finalizePoint(lp);
        }
        for (uint64_t idx : to_erase)
            live.erase(idx);
        flushEmissions();
    }

    // Truncation (or a fatal checkpoint) can strand completed points
    // behind an unfinished gap in plan order; emit them anyway —
    // finished work is never hidden, and the gap is exactly the
    // not-yet-finished points the resumed run will fill in.
    flushEmissions();
    for (auto &kv : completed)
        for (SweepSink *sink : sinks_)
            sink->onPoint(kv.second);
    completed.clear();

    if (summary.status.isOk() && summary.pointsFailed > 0 &&
        summary.points == 0)
        summary.status = summary.errors.front().status;

    summary.seconds = secondsSince(sweep_start);
    if (summary.seconds > 0.0)
        summary.poolUtilization = std::min(
            1.0, busy_seconds / ((double)workers * summary.seconds));
    for (SweepSink *sink : sinks_)
        sink->endSweep(summary);
    return summary;
}

} // namespace qec
