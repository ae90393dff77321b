#include "exp/experiment_session.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <mutex>
#include <utility>
#include <vector>

#include "base/logging.h"
#include "base/parallel.h"
#include "exp/experiment_internal.h"
#include "sim/batch_frame_simulator.h"

namespace qec
{

double
wilsonRelHalfWidth(uint64_t k, uint64_t n, double z)
{
    if (n == 0 || k > n)
        return 1e301;
    const double nn = (double)n;
    const double p = (double)k / nn;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / nn;
    const double center = (p + z2 / (2.0 * nn)) / denom;
    const double half =
        z *
        std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn)) / denom;
    return center > 0.0 ? half / center : 1e301;
}

struct ExperimentSession::Impl
{
    const MemoryExperiment *exp = nullptr;
    PolicyFactory factory;
    std::string name;
    SessionOptions options;

    /** Word-group width, in [1, kMaxBatchLanes]. */
    unsigned width = 1;
    /** Global word-group decomposition of the full run; chunks only
     *  ever cut between spans, the bit-identity anchor. */
    std::vector<std::pair<uint64_t, int>> spans;
    size_t nextSpan = 0;

    /** Per-worker decode pipelines, persistent across chunks. */
    std::vector<ExperimentDecodeContext> contexts;

    ExperimentResult total;
    bool stopped = false;
    bool truncated = false;
};

namespace
{

/** The policy kind's factory, after its precondition: the family
 *  rule of validateExperimentConfig(config, kind). */
PolicyFactory
checkedPolicyFactory(const MemoryExperiment &exp, PolicyKind kind)
{
    const Status st = validateExperimentConfig(exp.config(), kind);
    panicIf(!st.isOk(),
            "policy cannot run on this experiment (validate with "
            "validateExperimentConfig(config, kind) to handle this "
            "recoverably): " + st.toString());
    return makePolicyFactory(kind, exp.code(), exp.lookup(),
                             exp.config().protocol ==
                                 RemovalProtocol::Dqlr);
}

} // namespace

ExperimentSession::ExperimentSession(const MemoryExperiment &exp,
                                     PolicyKind kind,
                                     SessionOptions options)
    : ExperimentSession(
          exp, checkedPolicyFactory(exp, kind),
          policyKindName(kind, exp.config().protocol ==
                                   RemovalProtocol::Dqlr),
          options)
{
}

ExperimentSession::ExperimentSession(const MemoryExperiment &exp,
                                     PolicyFactory factory,
                                     std::string name,
                                     SessionOptions options)
    : impl_(std::make_unique<Impl>())
{
    panicIf(!factory, "session needs a policy factory");
    Impl &im = *impl_;
    im.exp = &exp;
    im.factory = std::move(factory);
    im.name = std::move(name);
    im.options = options;

    const ExperimentConfig &cfg = exp.config();
    im.width = std::min<unsigned>(std::max<unsigned>(cfg.batchWidth, 1),
                                  (unsigned)kMaxBatchLanes);
    im.spans = batchGroupSpans(cfg.shots, im.width);
    ensureWorkerSlots(resolveThreadCount(
        std::max<uint64_t>(im.spans.size(), 1), cfg.threads));
    im.total = newPartial();
}

ExperimentSession::~ExperimentSession() = default;
ExperimentSession::ExperimentSession(ExperimentSession &&) noexcept =
    default;
ExperimentSession &
ExperimentSession::operator=(ExperimentSession &&) noexcept = default;

ExperimentResult
ExperimentSession::newPartial() const
{
    ExperimentResult partial =
        impl_->exp->resultHeader(impl_->name);
    partial.shots = 0;
    partial.roundsTotal = 0;
    return partial;
}

bool
ExperimentSession::done() const
{
    const Impl &im = *impl_;
    return im.stopped || im.nextSpan >= im.spans.size();
}

bool
ExperimentSession::stoppedEarly() const
{
    return impl_->stopped &&
           impl_->total.shots < impl_->exp->config().shots;
}

bool
ExperimentSession::truncated() const
{
    return impl_->truncated;
}

SessionProgress
ExperimentSession::progress() const
{
    const Impl &im = *impl_;
    SessionProgress progress;
    progress.total = im.total;
    progress.nextSpan = im.nextSpan;
    progress.stopped = im.stopped;
    return progress;
}

Status
ExperimentSession::restore(const SessionProgress &progress)
{
    Impl &im = *impl_;
    if (im.total.shots != 0 || im.nextSpan != 0)
        return failedPrecondition(
            "session restore requires a fresh session");
    if (progress.nextSpan > im.spans.size())
        return dataLossError(
            "restored span cursor " + std::to_string(progress.nextSpan) +
            " exceeds the plan's " + std::to_string(im.spans.size()) +
            " word-groups");
    // The shot total must be exactly the lanes of the consumed spans:
    // anything else means the snapshot was taken against a different
    // (shots, width) decomposition and resuming it would silently
    // rerun or skip shots.
    uint64_t expected = 0;
    for (uint64_t s = 0; s < progress.nextSpan; ++s)
        expected += (uint64_t)im.spans[s].second;
    if (progress.total.shots != expected)
        return dataLossError(
            "restored progress is inconsistent with this "
            "session's word-group decomposition");
    im.total = progress.total;
    if (im.total.policy.empty())
        im.total.policy = im.name;
    im.nextSpan = progress.nextSpan;
    im.stopped = progress.stopped;
    return okStatus();
}

uint64_t
ExperimentSession::totalUnits() const
{
    return impl_->spans.size();
}

uint64_t
ExperimentSession::nextUnit() const
{
    return impl_->nextSpan;
}

SessionChunkPlan
ExperimentSession::planChunkAt(uint64_t begin_unit,
                               uint64_t max_shots) const
{
    const Impl &im = *impl_;
    SessionChunkPlan plan;
    plan.beginUnit = plan.endUnit = begin_unit;
    const uint64_t want = std::max<uint64_t>(max_shots, 1);
    // Round the request up to word-group boundaries: groups are the
    // unit of execution (and of the bit-identity guarantee).
    while (plan.endUnit < im.spans.size() && plan.shots < want) {
        plan.shots += (uint64_t)im.spans[plan.endUnit].second;
        ++plan.endUnit;
    }
    return plan;
}

void
ExperimentSession::ensureWorkerSlots(unsigned n)
{
    Impl &im = *impl_;
    if (im.contexts.size() >= n)
        return;
    const MemoryExperiment &exp = *im.exp;
    if (exp.config().decode) {
        const BatchDecodeOptions batch_opts =
            exp.resolvedBatchOptions();
        while (im.contexts.size() < n) {
            im.contexts.emplace_back();
            im.contexts.back().pipeline =
                std::make_unique<BatchDecoder>(*exp.decoder(),
                                               batch_opts,
                                               exp.componentGraph());
        }
    } else {
        im.contexts.resize(n);
    }
}

ExperimentResult
ExperimentSession::runPlannedUnit(uint64_t unit, unsigned slot)
{
    Impl &im = *impl_;
    const MemoryExperiment &exp = *im.exp;
    const ExperimentConfig &cfg = exp.config();

    ExperimentResult partial = newPartial();
    ExperimentShotStats stats;
    if (cfg.trackLpr) {
        stats.lprData.assign(cfg.rounds, 0.0);
        stats.lprParity.assign(cfg.rounds, 0.0);
    }

    panicIf(unit >= im.spans.size(), "span unit out of range");
    panicIf(slot >= im.contexts.size(),
            "worker slot exceeds session contexts "
            "(ensureWorkerSlots)");
    const auto [first, lanes] = im.spans[unit];
    ExperimentDecodeContext *ctx = &im.contexts[slot];
    // Snapshot the slot's cumulative pipeline counters around the
    // group so this unit's exact share can be attributed to its
    // partial — a chunk's counters are then the sum of its units'
    // deltas, independent of slot assignment, and a unit discarded by
    // the scheduler never leaks counters into a committed result.
    BatchDecodeStats before;
    if (ctx->pipeline)
        before = ctx->pipeline->stats();
    // Plane depth (1/4/8 words) follows the group width.
    if (im.width <= 64)
        exp.runGroupT<1>(first, lanes, im.factory, stats, ctx);
    else if (im.width <= 256)
        exp.runGroupT<4>(first, lanes, im.factory, stats, ctx);
    else
        exp.runGroupT<8>(first, lanes, im.factory, stats, ctx);
    exp.mergeStats(partial, stats);
    partial.shots = (uint64_t)lanes;
    partial.roundsTotal = (uint64_t)lanes * (uint64_t)cfg.rounds;
    if (ctx->pipeline) {
        const BatchDecodeStats &now = ctx->pipeline->stats();
        partial.decodedShots = now.decoded - before.decoded;
        partial.zeroDefectShots = now.zeroDefect - before.zeroDefect;
        partial.syndromeCacheHits = now.cacheHits - before.cacheHits;
        partial.windowsDecoded = now.windows - before.windows;
    }
    return partial;
}

void
ExperimentSession::commitChunk(const SessionChunkPlan &plan,
                               const ExperimentResult &merged)
{
    Impl &im = *impl_;
    panicIf(plan.beginUnit != nextUnit(),
            "chunk committed out of order");
    panicIf(plan.endUnit > totalUnits(), "chunk exceeds the plan");
    panicIf(im.stopped,
            "chunk committed after the early stop (speculative "
            "chunks must be discarded)");
    im.nextSpan = plan.endUnit;
    im.total.merge(merged);
    evaluateStop();
}

uint64_t
ExperimentSession::shotsRun() const
{
    return impl_->total.shots;
}

uint64_t
ExperimentSession::shotsPlanned() const
{
    const uint64_t cap = impl_->options.earlyStop.maxShots;
    const uint64_t shots = impl_->exp->config().shots;
    return cap > 0 ? std::min(cap, shots) : shots;
}

const ExperimentResult &
ExperimentSession::result() const
{
    return impl_->total;
}

void
ExperimentSession::evaluateStop()
{
    Impl &im = *impl_;
    const EarlyStopRule &rule = im.options.earlyStop;
    if (!rule.enabled() || im.stopped)
        return;
    if (rule.maxShots > 0 && im.total.shots >= rule.maxShots) {
        im.stopped = true;
        return;
    }
    if (rule.targetRelPrecision > 0.0 &&
        im.total.logicalErrors >= rule.minErrors &&
        wilsonRelHalfWidth(im.total.logicalErrors, im.total.shots,
                           rule.z) <= rule.targetRelPrecision)
        im.stopped = true;
}

uint64_t
ExperimentSession::defaultChunkShotsAt(uint64_t shots_done) const
{
    const Impl &im = *impl_;
    if (!im.options.earlyStop.enabled())
        return ~uint64_t{0};
    uint64_t chunk;
    if (im.options.earlyStop.checkEvery > 0) {
        chunk = im.options.earlyStop.checkEvery;
    } else {
        chunk = std::max<uint64_t>(4 * (uint64_t)im.width,
                                   im.exp->config().shots / 64);
    }
    // A shot cap bounds the chunk too: overshoot past maxShots is at
    // most one word-group, not a whole evaluation interval.
    const uint64_t cap = im.options.earlyStop.maxShots;
    if (cap > 0 && shots_done < cap)
        chunk = std::min(chunk, cap - shots_done);
    return chunk;
}

uint64_t
ExperimentSession::defaultChunkShots() const
{
    return defaultChunkShotsAt(impl_->total.shots);
}

ExperimentResult
ExperimentSession::runChunk(uint64_t max_shots)
{
    if (done())
        return newPartial();
    Impl &im = *impl_;
    const SessionChunkPlan plan = planChunkAt(nextUnit(), max_shots);
    ExperimentResult acc = newPartial();
    if (plan.empty())
        return acc;
    std::mutex merge_mutex;
    parallelForWorkers(
        plan.units(),
        [&](unsigned worker, uint64_t i) {
            ExperimentResult part =
                runPlannedUnit(plan.beginUnit + i, worker);
            std::lock_guard<std::mutex> lock(merge_mutex);
            acc.merge(part);
        },
        im.exp->config().threads);
    commitChunk(plan, acc);
    return acc;
}

const ExperimentResult &
ExperimentSession::runToCompletion()
{
    const double deadline = impl_->options.deadlineSeconds;
    const auto start = std::chrono::steady_clock::now();
    while (!done()) {
        runChunk(defaultChunkShots());
        if (deadline > 0.0 && !done() &&
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                    .count() >= deadline) {
            impl_->truncated = true;
            break;
        }
    }
    return impl_->total;
}

} // namespace qec
