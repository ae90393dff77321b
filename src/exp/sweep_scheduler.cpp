#include "exp/sweep_scheduler.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <set>
#include <thread>
#include <vector>

#include "base/fault_injection.h"
#include "base/parallel.h"
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

/** One planned chunk of a session's round: the unit range, and the
 *  merge of its executed unit partials (filled by the pool). */
struct RoundChunk
{
    SessionChunkPlan plan;
    ExperimentResult acc;
    /** Granted by the Wilson-need ranking beyond the baseline. */
    bool extra = false;
};

/** One live (point, policy) session. */
struct LiveSession
{
    size_t policyIndex = 0;
    /** Null when the policy was already finished in the checkpoint. */
    std::unique_ptr<ExperimentSession> session;
    /** Seconds inherited from the checkpoint partial. */
    double baseSeconds = 0.0;
    /** Unit-execution seconds spent this incarnation (the scheduler
     *  analog of the sequential runner's per-policy wall time). */
    double busySeconds = 0.0;
    /** This round's planned chunks, in commit order. */
    std::vector<RoundChunk> chunks;
    /** Planning cursors: simulate commits while planning ahead. */
    uint64_t simUnit = 0;
    uint64_t simShots = 0;
};

/** One live point: its experiment, sessions, and working record. */
struct LivePoint
{
    SweepPoint point;
    std::shared_ptr<const DetectorModel> dem;
    std::shared_ptr<const Decoder> decoder;
    std::unique_ptr<MemoryExperiment> exp;
    std::vector<LiveSession> sessions;
    PointCheckpoint working;
    /** Execution attempts so far (1 = first). */
    int attempts = 1;
    Clock::time_point started;
    /** Set by a pool task on failure; commit phase resolves it. */
    std::atomic<bool> faulted{false};
    /** Guarded by the merge mutex while workers run. */
    Status faultStatus;
};

/** A retryable-faulted point waiting out its backoff. Its partial
 *  lives in ckpt.points; re-admission rebuilds sessions from it. */
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
    LiveSession *ls = nullptr;
    RoundChunk *chunk = nullptr;
    uint64_t unit = 0;
};

} // namespace

SweepScheduler::SweepScheduler(const SweepPlan &plan,
                               std::vector<SweepSink *> sinks)
    : plan_(plan), sinks_(std::move(sinks))
{
}

SweepSummary
SweepScheduler::run(const SweepRunOptions &options)
{
    SweepSummary summary;
    summary.scheduled = true;
    summary.status = plan_.validate();
    if (!summary.status.isOk())
        return summary;

    const std::vector<SweepPoint> points = plan_.points();
    SweepCheckpoint ckpt;
    ckpt.planFingerprint =
        SweepCheckpoint::fingerprintPlan(plan_, points);
    if (!prepareSweepCheckpoint(options.checkpoint, ckpt, summary))
        return summary;

    const unsigned workers =
        options.workers ? options.workers : defaultThreadCount();
    summary.workersUsed = workers;
    // The admission window's floor keeps the window (and therefore
    // every allocation decision) identical across the worker counts
    // the determinism tests compare.
    const size_t max_live = options.maxLivePoints
        ? options.maxLivePoints
        : std::max<size_t>(8, workers);
    const int max_attempts = std::max(1, options.maxPointAttempts);

    WorkerPool &pool = sharedWorkerPool();
    pool.ensureWorkers(workers);
    const WorkerPool::Stats pool_before = pool.stats();

    for (SweepSink *sink : sinks_)
        sink->beginSweep(plan_, points);

    SweepBuildCache cache;
    const auto sweep_start = Clock::now();
    double last_save = 0.0;
    uint64_t chunks_since_save = 0;
    uint64_t committed_shots = 0;

    std::map<uint64_t, LivePoint> live;
    std::map<uint64_t, RetryGate> retry_wait;
    /** Finished out of order, awaiting their turn in plan order. */
    std::map<uint64_t, PointResult> completed;
    std::set<uint64_t> resolved_failed;
    std::map<uint64_t, size_t> pos_of;
    for (size_t i = 0; i < points.size(); ++i)
        pos_of[points[i].index] = i;
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

    // Resolve a faulted point after its round chunks are discarded:
    // retryable and attempts left -> wait out the backoff and rebuild
    // from the committed partial; otherwise quarantine. Committed
    // progress is kept either way.
    const auto handleFault = [&](LivePoint &lp) {
        for (LiveSession &ls : lp.sessions)
            ls.chunks.clear();
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

    const auto pointComplete = [&](const LivePoint &lp) {
        if (lp.faulted.load(std::memory_order_relaxed))
            return false;
        for (const LiveSession &ls : lp.sessions)
            if (ls.session && !ls.session->done())
                return false;
        return !lp.sessions.empty() ||
               plan_.policies.empty();
    };
    const auto finalizePoint = [&](LivePoint &lp) {
        PointResult pr;
        pr.point = lp.point;
        for (LiveSession &ls : lp.sessions) {
            PolicyCheckpoint &pc =
                lp.working.policies[ls.policyIndex];
            if (ls.session) {
                pc.progress = ls.session->progress();
                pc.seconds = ls.baseSeconds + ls.busySeconds;
                pc.finished = true;
                pc.stoppedEarly = ls.session->stoppedEarly();
                pc.truncated = false;
                pr.results.push_back(ls.session->result());
            } else {
                pr.results.push_back(pc.progress.total);
            }
            pr.seconds.push_back(pc.seconds);
            pr.stoppedEarly.push_back(pc.stoppedEarly);
            pr.truncated.push_back(false);
            summary.shotsRun += pr.results.back().shots;
        }
        pr.wallSeconds = secondsSince(lp.started);
        lp.working.finished = true;
        ckpt.points[lp.point.index] = lp.working;
        ++summary.points;
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

    // Admit one point: build its components and sessions, restoring
    // each policy's committed partial when the checkpoint has one.
    // Build failures mark the point faulted for the fault pass.
    const auto admitOne = [&](const SweepPoint &point, int attempts,
                              Clock::time_point started) {
        PointCheckpoint *saved = nullptr;
        auto saved_it = ckpt.points.find(point.index);
        if (saved_it != ckpt.points.end())
            saved = &saved_it->second;
        LivePoint &lp = live[point.index];
        lp.point = point;
        lp.attempts = attempts;
        lp.started = started;
        lp.working = saved ? *saved : PointCheckpoint();
        lp.working.pointIndex = point.index;
        lp.working.seed = point.seed;
        lp.working.policies.resize(plan_.policies.size());
        try {
            StatusOr<SweepBuildCache::Components> built =
                cache.build(point, plan_.base.decoderOptions,
                            summary);
            if (!built.ok()) {
                lp.faultStatus = built.status();
                lp.faulted.store(true);
                return;
            }
            SweepBuildCache::Components comp =
                std::move(built).value();
            lp.dem = comp.dem;
            lp.decoder = comp.decoder;
            lp.exp = std::make_unique<MemoryExperiment>(
                *comp.code, point.config, lp.dem, lp.decoder,
                comp.program);
            for (size_t pi = 0; pi < plan_.policies.size(); ++pi) {
                PolicyCheckpoint &pc = lp.working.policies[pi];
                LiveSession ls;
                ls.policyIndex = pi;
                ls.baseSeconds = pc.seconds;
                if (!pc.finished) {
                    const SweepPolicy &policy = plan_.policies[pi];
                    PolicyFactory factory = policy.custom
                        ? policy.custom(*comp.code, lp.exp->lookup())
                        : makePolicyFactory(
                              policy.kind, *comp.code,
                              lp.exp->lookup(),
                              point.protocol == RemovalProtocol::Dqlr);
                    SessionOptions session_options;
                    session_options.earlyStop = plan_.earlyStop;
                    ls.session = std::make_unique<ExperimentSession>(
                        *lp.exp, std::move(factory),
                        policy.displayName(point.protocol),
                        session_options);
                    const bool has_partial =
                        pc.progress.total.shots > 0 ||
                        pc.progress.nextSpan > 0 ||
                        pc.progress.stopped;
                    if (has_partial) {
                        Status st = ls.session->restore(pc.progress);
                        if (!st.isOk()) {
                            lp.faultStatus = st;
                            lp.faulted.store(true);
                            lp.sessions.push_back(std::move(ls));
                            return;
                        }
                    }
                    ls.session->ensureWorkerSlots(workers);
                }
                lp.sessions.push_back(std::move(ls));
            }
        } catch (const std::bad_alloc &) {
            lp.faultStatus = resourceExhaustedError(
                "allocation failed while building sweep point " +
                std::to_string(point.index));
            lp.faulted.store(true);
        }
    };

    // Fill the admission window: expired retries first (their plan
    // position precedes anything new), then new points in plan order.
    // Checkpoint-finished points re-emit without taking a slot.
    // Returns false on the fatal doctored-checkpoint case.
    const auto admitPoints = [&]() -> bool {
        for (auto it = retry_wait.begin();
             it != retry_wait.end() && live.size() < max_live;) {
            if (Clock::now() >= it->second.nextAttempt) {
                admitOne(points[pos_of[it->first]],
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
                    PointResult pr;
                    pr.point = point;
                    for (const PolicyCheckpoint &pc :
                         saved_it->second.policies) {
                        pr.results.push_back(pc.progress.total);
                        pr.seconds.push_back(pc.seconds);
                        pr.stoppedEarly.push_back(pc.stoppedEarly);
                        pr.truncated.push_back(false);
                        summary.shotsRun += pc.progress.total.shots;
                    }
                    ++summary.points;
                    ++summary.pointsResumed;
                    completed[point.index] = std::move(pr);
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

    // Plan one more chunk for a session, exactly as its own runChunk
    // loop would size it (shrinking near a shot cap, capped by the
    // round's remaining budget). Returns false when the session is
    // fully planned or the budget is spoken for.
    const auto planOne = [&](LiveSession &ls, bool extra) -> bool {
        ExperimentSession &s = *ls.session;
        if (ls.simUnit >= s.totalUnits())
            return false;
        uint64_t want = s.defaultChunkShotsAt(ls.simShots);
        if (options.maxTotalShots) {
            const uint64_t left = budgetLeft();
            if (left <= planned_round_shots)
                return false;
            want = std::min(want, left - planned_round_shots);
        }
        RoundChunk rc;
        rc.plan = s.planChunkAt(ls.simUnit, want);
        if (rc.plan.empty())
            return false;
        rc.extra = extra;
        ls.simUnit = rc.plan.endUnit;
        ls.simShots += rc.plan.shots;
        planned_round_shots += rc.plan.shots;
        if (extra)
            summary.shotsReallocated += rc.plan.shots;
        ls.chunks.push_back(std::move(rc));
        ++round_chunks;
        return true;
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
                for (LiveSession &ls : lp.sessions) {
                    if (!ls.session)
                        continue;
                    PolicyCheckpoint &pc =
                        lp.working.policies[ls.policyIndex];
                    pc.truncated = !pc.finished;
                }
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
        // Base pass: one chunk per live session, in fixed (point,
        // policy) order — the fair baseline, never wasted work.
        tasks.clear();
        round_chunks = 0;
        planned_round_shots = 0;
        for (auto &kv : live) {
            for (LiveSession &ls : kv.second.sessions) {
                if (!ls.session || ls.session->done())
                    continue;
                ls.chunks.clear();
                ls.simUnit = ls.session->nextUnit();
                ls.simShots = ls.session->shotsRun();
                planOne(ls, false);
            }
        }
        // Adaptive extras: as many additional chunks as the baseline
        // granted, handed to the sessions whose Wilson intervals are
        // widest relative to the precision target (committed counters
        // only — worker-count independent). Without a precision rule
        // the need is the remaining-shots gap; sessions whose base
        // chunk already covers the whole remainder take nothing.
        uint64_t extras = round_chunks;
        struct Cand
        {
            LiveSession *ls;
            double need;
            int granted;
        };
        std::vector<Cand> cands;
        for (auto &kv : live) {
            for (LiveSession &ls : kv.second.sessions) {
                if (!ls.session || ls.session->done())
                    continue;
                const ExperimentResult &r = ls.session->result();
                double need;
                if (plan_.earlyStop.targetRelPrecision > 0.0)
                    need = wilsonRelHalfWidth(r.logicalErrors,
                                              r.shots,
                                              plan_.earlyStop.z) /
                        plan_.earlyStop.targetRelPrecision;
                else
                    need = (double)(ls.session->shotsPlanned() -
                                    ls.session->shotsRun());
                cands.push_back(Cand{&ls, need, 0});
            }
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
                if (!planOne(*c.ls, true))
                    continue;
                ++c.granted;
                --extras;
                granted_any = true;
            }
        }

        // ------------------------------------------------ dispatch
        for (auto &kv : live) {
            LivePoint &lp = kv.second;
            for (LiveSession &ls : lp.sessions)
                for (RoundChunk &rc : ls.chunks)
                    for (uint64_t u = rc.plan.beginUnit;
                         u < rc.plan.endUnit; ++u)
                        tasks.push_back(UnitTask{&lp, &ls, &rc, u});
        }
        if (tasks.empty())
            continue;
        ++summary.schedulerRounds;
        summary.chunksDispatched += round_chunks;

        pool.run(
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
                        t.ls->session->runPlannedUnit(t.unit, worker);
                    const double dt = secondsSince(unit_start);
                    std::lock_guard<std::mutex> lock(merge_mutex);
                    t.chunk->acc.merge(part);
                    t.ls->busySeconds += dt;
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
        // Single-threaded, fixed (point, policy, chunk) order: the
        // committed boundary sequence — and with it every early-stop
        // decision and fault-site poll — is identical at any worker
        // count. Chunks planned past a boundary where the stop rule
        // fired were speculative; discard them uncommitted.
        to_erase.clear();
        for (auto &kv : live) {
            LivePoint &lp = kv.second;
            bool fault = lp.faulted.load();
            if (!fault) {
                for (LiveSession &ls : lp.sessions) {
                    if (!ls.session)
                        continue;
                    for (RoundChunk &rc : ls.chunks) {
                        if (ls.session->done()) {
                            summary.shotsDiscarded += rc.plan.shots;
                            continue;
                        }
                        try {
                            // The in-process SIGKILL stand-in: armed
                            // with Kind::Crash this throws
                            // SimulatedCrash out of run() (nothing
                            // below catches it), and the checkpoint
                            // saved at the previous boundary is what
                            // a rerun resumes from. Polled once per
                            // committed chunk, in commit order —
                            // parity with the sequential runner.
                            if (QEC_FAULT_POINT("sweep.chunk")) {
                                lp.faultStatus = unavailableError(
                                    "injected fault: sweep.chunk");
                                fault = true;
                            }
                        } catch (const std::bad_alloc &) {
                            lp.faultStatus = resourceExhaustedError(
                                "allocation failed while committing "
                                "sweep point " +
                                std::to_string(lp.point.index));
                            fault = true;
                        }
                        if (fault)
                            break;
                        ls.session->commitChunk(rc.plan, rc.acc);
                        committed_shots += rc.plan.shots;
                        PolicyCheckpoint &pc =
                            lp.working.policies[ls.policyIndex];
                        pc.progress = ls.session->progress();
                        pc.seconds = ls.baseSeconds + ls.busySeconds;
                        pc.finished = ls.session->done();
                        pc.stoppedEarly = ls.session->stoppedEarly();
                        ++chunks_since_save;
                        if (options.checkpoint.enabled() &&
                            (chunks_since_save >=
                                 options.checkpoint.everyChunks ||
                             (options.checkpoint.everySeconds > 0.0 &&
                              secondsSince(sweep_start) - last_save >=
                                  options.checkpoint.everySeconds))) {
                            writeLivePartials();
                            saveCheckpoint();
                        }
                    }
                    ls.chunks.clear();
                    if (fault)
                        break;
                }
            }
            if (fault || lp.faulted.load()) {
                lp.faulted.store(true);
                handleFault(lp);
                continue;
            }
            if (pointComplete(lp))
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
    const WorkerPool::Stats pool_after = pool.stats();
    const double busy =
        pool_after.busySeconds - pool_before.busySeconds;
    if (summary.seconds > 0.0 && workers > 0)
        summary.poolUtilization = std::min(
            1.0, busy / ((double)workers * summary.seconds));
    for (SweepSink *sink : sinks_)
        sink->endSweep(summary);
    return summary;
}

} // namespace qec
