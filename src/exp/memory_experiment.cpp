#include "exp/memory_experiment.h"

#include <algorithm>

#include "base/logging.h"
#include "decoder/batch_decoder.h"
#include "decoder/sparse_syndrome.h"
#include "exp/experiment_internal.h"
#include "exp/experiment_session.h"
#include "sim/batch_frame_simulator.h"

namespace qec
{

double
ExperimentResult::ler() const
{
    return shots == 0 ? 0.0
                      : (double)logicalErrors / (double)shots;
}

std::string
ExperimentResult::lerString() const
{
    if (logicalErrors == 0)
        return "<" + std::to_string(1.0 / (double)shots);
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3e", ler());
    return buf;
}

double
ExperimentResult::speculationAccuracy() const
{
    const uint64_t total = tp + fp + tn + fn;
    return total == 0 ? 0.0 : (double)(tp + tn) / (double)total;
}

double
ExperimentResult::falsePositiveRate() const
{
    const uint64_t denom = fp + tn;
    return denom == 0 ? 0.0 : (double)fp / (double)denom;
}

double
ExperimentResult::falseNegativeRate() const
{
    const uint64_t denom = fn + tp;
    return denom == 0 ? 0.0 : (double)fn / (double)denom;
}

double
ExperimentResult::avgLrcsPerRound() const
{
    return roundsTotal == 0
        ? 0.0 : (double)lrcsScheduled / (double)roundsTotal;
}

double
ExperimentResult::syndromeCacheHitRate() const
{
    BatchDecodeStats stats;
    stats.cacheHits = syndromeCacheHits;
    stats.decoded = decodedShots;
    return stats.cacheHitRate();
}

double
ExperimentResult::lprData(int round) const
{
    if (shots == 0 || round >= (int)lprDataSum.size())
        return 0.0;
    return lprDataSum[round] / ((double)shots * numDataQubits);
}

double
ExperimentResult::lprParity(int round) const
{
    if (shots == 0 || round >= (int)lprParitySum.size())
        return 0.0;
    return lprParitySum[round] / ((double)shots * numParityQubits);
}

double
ExperimentResult::lprTotal(int round) const
{
    if (shots == 0 || round >= (int)lprDataSum.size())
        return 0.0;
    return (lprDataSum[round] + lprParitySum[round]) /
           ((double)shots * (numDataQubits + numParityQubits));
}

ExperimentResult &
ExperimentResult::merge(const ExperimentResult &other)
{
    if (policy.empty())
        policy = other.policy;
    shots += other.shots;
    logicalErrors += other.logicalErrors;
    verdictFingerprint ^= other.verdictFingerprint;
    tp += other.tp;
    fp += other.fp;
    tn += other.tn;
    fn += other.fn;
    lrcsScheduled += other.lrcsScheduled;
    roundsTotal += other.roundsTotal;
    decodedShots += other.decodedShots;
    zeroDefectShots += other.zeroDefectShots;
    syndromeCacheHits += other.syndromeCacheHits;
    windowsDecoded += other.windowsDecoded;
    if (lprDataSum.size() < other.lprDataSum.size())
        lprDataSum.resize(other.lprDataSum.size(), 0.0);
    for (size_t r = 0; r < other.lprDataSum.size(); ++r)
        lprDataSum[r] += other.lprDataSum[r];
    if (lprParitySum.size() < other.lprParitySum.size())
        lprParitySum.resize(other.lprParitySum.size(), 0.0);
    for (size_t r = 0; r < other.lprParitySum.size(); ++r)
        lprParitySum[r] += other.lprParitySum[r];
    if (numDataQubits == 0)
        numDataQubits = other.numDataQubits;
    if (numParityQubits == 0)
        numParityQubits = other.numParityQubits;
    return *this;
}

namespace
{

/** Per-shot contribution to ExperimentResult::verdictFingerprint:
 *  a splitmix64-style mix of (shot id, error bit), XOR-combined so
 *  the total is independent of shot and thread order. */
inline uint64_t
verdictMix(uint64_t shot, bool error)
{
    uint64_t x = shot * 2 + (error ? 1 : 0) + 0x9e3779b97f4a7c15ull;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

} // namespace

Status
validateExperimentConfig(const ExperimentConfig &config)
{
    if (config.rounds < 1)
        return invalidArgument(
            "experiment needs at least one round, got " +
            std::to_string(config.rounds));
    if (config.batchWidth > (unsigned)kMaxBatchLanes)
        return invalidArgument(
            "batchWidth " + std::to_string(config.batchWidth) +
            " exceeds the engine maximum of " +
            std::to_string(kMaxBatchLanes));
    if (!(config.em.p >= 0.0) || config.em.p > 1.0)
        return invalidArgument(
            "physical error rate must be in [0, 1]");
    if (config.windowLength < 0 || config.windowSlideLength < 0)
        return invalidArgument(
            "window lengths must be non-negative");
    if (config.family == CircuitFamily::RepetitionMemory &&
        config.basis != Basis::Z)
        return invalidArgument(
            "repetition-code memory protects the Z basis only");
    if (config.windowLength > 0) {
        // One detector row is the smallest decodable window slice;
        // a zero slide never advances and a slide past the window
        // length skips rows — both corrupt decodeWindowed's commit
        // reasoning, so they are rejected here, recoverably.
        if (config.windowSlideLength < 1)
            return invalidArgument(
                "windowed decode needs windowSlideLength >= 1 "
                "(rows per window advance)");
        if (config.windowSlideLength > config.windowLength)
            return invalidArgument(
                "windowSlideLength " +
                std::to_string(config.windowSlideLength) +
                " exceeds windowLength " +
                std::to_string(config.windowLength));
        if (config.windowLength < 1)
            return invalidArgument(
                "windowLength must cover at least one detector row");
    }
    return okStatus();
}

Status
validateExperimentConfig(const ExperimentConfig &config, PolicyKind kind)
{
    Status st = validateExperimentConfig(config);
    if (!st.isOk())
        return st;
    // The built-in LRC policies schedule surface-code (stab, data)
    // pairs; on another family only Never has a schedule to run.
    if (config.family != CircuitFamily::SurfaceMemory &&
        kind != PolicyKind::Never)
        return invalidArgument(
            "policy " + policyKindName(kind, config.protocol ==
                                                 RemovalProtocol::Dqlr) +
            " needs the surface_memory family; only Never runs on " +
            circuitFamilyName(config.family));
    return okStatus();
}

StatusOr<CircuitProgram>
compileExperimentProgram(const RotatedSurfaceCode &code,
                         CircuitFamily family, int rounds, Basis basis,
                         RemovalProtocol protocol)
{
    if (family == CircuitFamily::RepetitionMemory)
        return CircuitCompiler::repetitionMemoryChecked(code.distance(),
                                                        rounds);
    return CircuitCompiler::surfaceMemoryChecked(
        code, rounds, basis,
        protocol == RemovalProtocol::Dqlr ? IrTailKind::Dqlr
                                          : IrTailKind::SwapLrc);
}

std::unique_ptr<Decoder>
makeDecoder(DecoderKind kind, const DetectorModel &dem, double p,
            const DecoderOptions &options)
{
    if (kind == DecoderKind::Mwpm)
        return std::make_unique<MwpmDecoder>(dem, p, options);
    return std::make_unique<UnionFindDecoder>(dem, p);
}

namespace
{

/** Constructor-precondition form of validateExperimentConfig. */
void
panicOnInvalidConfig(const ExperimentConfig &config)
{
    const Status st = validateExperimentConfig(config);
    panicIf(!st.isOk(),
            "invalid ExperimentConfig (validate with "
            "validateExperimentConfig to handle this recoverably): " +
                st.toString());
}

/** Compile the config's circuit program (compileExperimentProgram).
 *  A rejected program here is a compiler bug — the config was already
 *  validated — so the constructor-precondition form panics with the
 *  diagnostics; recoverable callers (the sweep executor) get the
 *  Status instead. */
std::shared_ptr<const CircuitProgram>
compileFamilyProgram(const RotatedSurfaceCode &code,
                     const ExperimentConfig &config)
{
    StatusOr<CircuitProgram> prog = compileExperimentProgram(
        code, config.family, config.rounds, config.basis,
        config.protocol);
    panicIf(!prog.ok(),
            "compiled circuit program failed static analysis: " +
                prog.status().toString());
    return std::make_shared<const CircuitProgram>(
        std::move(prog).value());
}

/** Only the sliding-window decode stage reads the ComponentGraph;
 *  every other decoding experiment skips it. */
bool
needsComponentGraph(const ExperimentConfig &config)
{
    return config.decode && config.windowLength > 0;
}

} // namespace

MemoryExperiment::MemoryExperiment(const RotatedSurfaceCode &code,
                                   ExperimentConfig config)
    : MemoryExperiment(
          code, config,
          [&config](const DetectorModel &dem, double p) {
              return makeDecoder(config.decoderKind, dem, p,
                                 config.decoderOptions);
          })
{
}

MemoryExperiment::MemoryExperiment(const RotatedSurfaceCode &code,
                                   ExperimentConfig config,
                                   const DecoderFactory &decoder_factory)
    : code_(code), config_(config)
{
    panicOnInvalidConfig(config_);
    program_ = compileFamilyProgram(code_, config_);
    if (config_.decode) {
        dem_ = std::make_shared<DetectorModel>(
            buildDetectorModel(*program_));
        decoder_ = decoder_factory(*dem_, config_.em.p);
        panicIf(!decoder_, "decoder factory returned null");
    }
    if (needsComponentGraph(config_))
        componentGraph_ = std::make_shared<ComponentGraph>(
            *dem_, config_.em.p);
}

MemoryExperiment::MemoryExperiment(
    const RotatedSurfaceCode &code, ExperimentConfig config,
    std::shared_ptr<const DetectorModel> dem,
    std::shared_ptr<const Decoder> decoder,
    std::shared_ptr<const CircuitProgram> program,
    std::shared_ptr<const SwapLookupTable> lookup)
    : code_(code), config_(config), lookup_(std::move(lookup)),
      program_(std::move(program)), dem_(std::move(dem)),
      decoder_(std::move(decoder))
{
    panicOnInvalidConfig(config_);
    if (!program_)
        program_ = compileFamilyProgram(code_, config_);
    panicIf(config_.decode && (!dem_ || !decoder_),
            "decoding experiment needs a detector model and decoder");
    if (needsComponentGraph(config_))
        componentGraph_ = std::make_shared<ComponentGraph>(
            *dem_, config_.em.p);
}

MemoryExperiment::~MemoryExperiment() = default;

const SwapLookupTable &
MemoryExperiment::lookup() const
{
    std::call_once(lookupOnce_, [this] {
        if (!lookup_)
            lookup_ = std::make_shared<const SwapLookupTable>(code_);
    });
    return *lookup_;
}

ExperimentResult
MemoryExperiment::run(PolicyKind kind) const
{
    ExperimentSession session(*this, kind);
    return session.runToCompletion();
}

ExperimentResult
MemoryExperiment::resultHeader(const std::string &name) const
{
    ExperimentResult result;
    result.policy = name;
    result.shots = config_.shots;
    result.numDataQubits = program_->numData;
    result.numParityQubits = program_->numStabs;
    result.roundsTotal = config_.shots * (uint64_t)config_.rounds;
    if (config_.trackLpr) {
        result.lprDataSum.assign(config_.rounds, 0.0);
        result.lprParitySum.assign(config_.rounds, 0.0);
    }
    return result;
}

// The chunk partials ExperimentSession produces carry the same fields
// as per-group ShotStats, so stats merging is one merge() away: every
// counter path in the harness funnels through ExperimentResult::merge.
// Runs under the callers' merge mutex: the LPR vectors are moved, not
// copied, so the critical section stays allocation-free.
void
MemoryExperiment::mergeStats(ExperimentResult &result,
                             ExperimentShotStats &stats) const
{
    ExperimentResult partial;
    partial.logicalErrors = stats.logicalErrors;
    partial.verdictFingerprint = stats.verdictHash;
    partial.tp = stats.tp;
    partial.fp = stats.fp;
    partial.tn = stats.tn;
    partial.fn = stats.fn;
    partial.lrcsScheduled = stats.lrcsScheduled;
    partial.lprDataSum = std::move(stats.lprData);
    partial.lprParitySum = std::move(stats.lprParity);
    result.merge(partial);
}

ExperimentResult
MemoryExperiment::run(const PolicyFactory &factory,
                      const std::string &name) const
{
    ExperimentSession session(*this, factory, name);
    return session.runToCompletion();
}

BatchDecodeOptions
MemoryExperiment::resolvedBatchOptions() const
{
    BatchDecodeOptions options;
    options.cache = config_.syndromeCache;
    options.windowLength = config_.windowLength;
    options.windowSlideLength = config_.windowSlideLength;
    return options;
}

std::vector<std::pair<uint64_t, int>>
batchGroupSpans(uint64_t shots, uint64_t width)
{
    std::vector<std::pair<uint64_t, int>> spans;
    for (uint64_t first = 0; first < shots; first += width)
        spans.push_back(
            {first, (int)std::min<uint64_t>(width, shots - first)});
    return spans;
}

namespace
{

inline int
popcount64(uint64_t word)
{
    return __builtin_popcountll(word);
}

} // namespace

template <int NW>
void
MemoryExperiment::runGroupT(uint64_t first_shot, int lanes,
                            const PolicyFactory &factory,
                            ExperimentShotStats &stats,
                            ExperimentDecodeContext *ctx) const
{
    using Lane = LaneWord<NW>;
    const CircuitProgram &prog = *program_;
    const uint64_t first = first_shot;
    const int W = lanes;
    const int NB = (W + 63) / 64;
    const int n_stabs = prog.numStabs;
    const int n_data = prog.numData;

    BatchFrameSimulatorT<NW> sim(prog.numQubits, config_.em, W,
                                 config_.seed, first);
    const Lane live = sim.liveMask();
    // Each round emits one record per stabilizer plus, per 64-lane
    // block, one per distinct lane-divergent LRC tail (bounded by the
    // (stab, data) support-pair count, since lanes may pick different
    // data qubits for one stabilizer). Decoding reads the whole record;
    // without it only the current round is ever read, so one round is
    // kept.
    const size_t round_records =
        (size_t)n_stabs + (size_t)NB * prog.supportData.size();
    sim.reserveRecord(config_.decode
                          ? (size_t)config_.rounds * round_records + n_data
                          : round_records);
    // Size the noise hit tables up front so replay never allocates.
    sim.bindProgramStreams(prog);

    // Policy evaluation dispatch: a probe instance reports whether the
    // policy has a lane-parallel form. ERASER and the Optimal oracle
    // run the word-parallel controller (one LTT/PUTT bit-plane set for
    // the group), Uniform policies run one shared instance, and only
    // the remaining PerLane policies (custom ones) materialize
    // per-lane observations below.
    std::unique_ptr<LrcPolicy> shared = factory();
    const BatchPolicySpec spec = shared->batchSpec();
    const bool multi_level = shared->usesMultiLevelReadout();
    const bool use_controller =
        spec.oracle || spec.kind == BatchPolicyKind::Eraser;
    const bool per_lane =
        !use_controller && spec.kind == BatchPolicyKind::PerLane;

    panicIf(use_controller &&
                config_.family != CircuitFamily::SurfaceMemory,
            "the ERASER controller requires the surface-memory family");

    std::vector<std::unique_ptr<LrcPolicy>> policies;
    std::unique_ptr<BatchEraserController<Lane>> controller;
    // Per-lane schedules for PerLane policies; otherwise one
    // lane-uniform schedule in lrcs[0] (Uniform every round, the
    // controller policies in round 0 only — from then on the
    // controller writes `sched` itself).
    std::vector<std::vector<LrcPair>> lrcs(per_lane ? W : 1);
    if (per_lane) {
        policies.reserve(W);
        policies.push_back(std::move(shared));
        for (int l = 1; l < W; ++l)
            policies.push_back(factory());
        for (int l = 0; l < W; ++l)
            lrcs[l] = policies[l]->firstRound();
    } else {
        if (use_controller)
            controller = std::make_unique<BatchEraserController<Lane>>(
                code_, lookup(), spec);
        lrcs[0] = shared->firstRound();
    }

    // The observation arrays hold an all-zero invariant between lanes:
    // per lane only the fired entries are set, the policy consulted,
    // and the same entries cleared again — so the per-lane cost tracks
    // the (sparse, at low p) activity instead of the lattice volume.
    RoundObservation obs;
    obs.events.assign(n_stabs, 0);
    obs.leakedLabels.assign(n_stabs, 0);
    obs.hadLrc.assign(n_data, 0);
    obs.trueLeakedData.assign(n_data, 0);

    std::vector<Lane> flips(n_stabs, Lane{}), labels(n_stabs, Lane{});
    std::vector<Lane> prev_flips(n_stabs, Lane{});
    std::vector<Lane> events(n_stabs, Lane{});
    std::vector<Lane> leak_snapshot(n_data, Lane{});
    // Lane-major scatter arenas: which stabilizers fired / reported
    // |L>, and which data qubits are leaked, per lane (flat, reused).
    std::vector<uint32_t> ev_off((size_t)W + 1), lab_off((size_t)W + 1),
        leak_off((size_t)W + 1);
    std::vector<uint32_t> ev_cur(W), lab_cur(W), leak_cur(W);
    std::vector<int> ev_arena, lab_arena, leak_arena;
    // The round's schedule: planes plus per-64-lane-block divergent
    // tails, which the program's LRC-slot branch replays block by
    // block. Per-lane schedules are merged into it in first-insertion
    // order: tail_at[stab * n_data + data] is the pair's index in the
    // current block's list, -1 when absent (all -1 between blocks).
    BatchLrcSchedule<Lane> sched(n_data, n_stabs);
    std::vector<int> tail_at;
    std::vector<int> stab_epoch, data_epoch;
    if (per_lane) {
        tail_at.assign((size_t)n_stabs * n_data, -1);
        stab_epoch.assign(n_stabs, -1);
        data_epoch.assign(n_data, -1);
    }
    int epoch = 0;

    for (int r = 0; r < config_.rounds; ++r) {
        if (per_lane) {
            // Merge the lanes' schedules, validating every pair:
            // nextRound is arbitrary user code.
            sched.clear();
            for (int l = 0; l < W; ++l) {
                ++epoch;
                const int b = l >> 6;
                const uint64_t bit = uint64_t{1} << (l & 63);
                std::vector<IrLrcTail> &tails = sched.blockTails[b];
                for (const auto &pair : lrcs[l]) {
                    panicIf(pair.stab < 0 || pair.stab >= n_stabs,
                            "LRC references an invalid stabilizer");
                    panicIf(pair.data < 0 || pair.data >= n_data,
                            "LRC references an invalid data qubit");
                    panicIf(stab_epoch[pair.stab] == epoch,
                            "two LRCs share one parity qubit in "
                            "the same round");
                    panicIf(data_epoch[pair.data] == epoch,
                            "one data qubit has two LRCs in the "
                            "same round");
                    stab_epoch[pair.stab] = epoch;
                    data_epoch[pair.data] = epoch;
                    panicIf(!prog.supportContains(pair.stab, pair.data),
                            "LRC data qubit is not adjacent to "
                            "its parity qubit");
                    setLane(sched.schedMask[pair.data], l);
                    setLane(sched.lrcOnStab[pair.stab], l);
                    int &at = tail_at[(size_t)pair.stab * n_data +
                                      pair.data];
                    if (at < 0) {
                        at = (int)tails.size();
                        tails.push_back({pair.stab, pair.data, bit});
                    } else {
                        tails[at].mask |= bit;
                    }
                }
                sched.scheduled += lrcs[l].size();
                if ((l & 63) == 63 || l == W - 1) {
                    for (const auto &tail : tails)
                        tail_at[(size_t)tail.stab * n_data +
                                tail.data] = -1;
                }
            }
        } else if (!controller || r == 0) {
            // Lane-uniform schedule: every live lane executes lane 0's
            // pairs, so the masks and block tails are whole-word. The
            // Uniform capability is claimable by arbitrary policy
            // subclasses, so the pairs are still bounds-checked.
            sched.clear();
            for (const auto &pair : lrcs[0]) {
                panicIf(pair.stab < 0 || pair.stab >= n_stabs,
                        "LRC references an invalid stabilizer");
                panicIf(pair.data < 0 || pair.data >= n_data,
                        "LRC references an invalid data qubit");
                sched.schedMask[pair.data] = live;
                sched.lrcOnStab[pair.stab] = live;
                for (int b = 0; b < NB; ++b)
                    sched.blockTails[b].push_back(
                        {pair.stab, pair.data, laneWord(live, b)});
            }
            sched.scheduled = (uint64_t)lrcs[0].size() * (uint64_t)W;
        }
        // Otherwise the controller wrote `sched` last round; its
        // allocations are valid by construction (DLI allocates from
        // the adjacency lookup with a taken set).
        stats.lrcsScheduled += sched.scheduled;

        // Account the scheduling decisions against the ground truth at
        // decision time (end of the previous round), word-wise. Only
        // three totals are needed; the quadrant counts follow.
        uint64_t sched_total = 0, leaked_total = 0, tp_round = 0;
        for (int q = 0; q < n_data; ++q) {
            const Lane is_leaked = sim.leakedWord(q) & live;
            leaked_total += (uint64_t)popcountLanes(is_leaked);
            const Lane &lrc_lanes = sched.schedMask[q];
            if (anyLane(lrc_lanes)) {
                sched_total += (uint64_t)popcountLanes(lrc_lanes);
                tp_round +=
                    (uint64_t)popcountLanes(lrc_lanes & is_leaked);
            }
        }
        stats.tp += tp_round;
        stats.fp += sched_total - tp_round;
        stats.fn += leaked_total - tp_round;
        stats.tn += (uint64_t)W * (uint64_t)n_data - sched_total -
                    leaked_total + tp_round;

        const size_t record_mark = sim.record().size();

        // Replay this round of the compiled program: the static
        // segment, the plain readouts (masked off the lanes whose
        // policies LRC'd them under SwapLrc), and the LRC-slot branch
        // expanded to this round's per-block divergent tails. The
        // round body's noise is one hit-table advance of every block's
        // streams; each block's tails share one advance of its own.
        ProgramLrcFillT<NW> fill;
        fill.lrcOnStab = sched.lrcOnStab.data();
        fill.blockTails = sched.blockTails;
        fill.multiLevel = multi_level;
        sim.executeProgramRound(prog, r, live, &fill, 1);

        // Gather this round's syndrome words.
        std::fill(flips.begin(), flips.end(), Lane{});
        std::fill(labels.begin(), labels.end(), Lane{});
        for (size_t i = record_mark; i < sim.record().size(); ++i) {
            const auto &rec = sim.record()[i];
            if (rec.stab < 0)
                continue;
            flips[rec.stab] =
                andnot(flips[rec.stab], rec.mask) | rec.flips;
            if (!rec.lrcData)
                labels[rec.stab] =
                    andnot(labels[rec.stab], rec.mask) |
                    rec.leakedLabels;
        }
        if (!config_.decode)
            sim.clearRecord();

        if (config_.trackLpr) {
            stats.lprData[r] += (double)sim.countLeaked(0, n_data);
            stats.lprParity[r] +=
                (double)sim.countLeaked(n_data, prog.numQubits);
        }

        // Detection-event planes for the speculation logic. The
        // program records which detector columns are deterministic in
        // round 0 (only the protected-basis checks; the other basis
        // starts random).
        for (int s = 0; s < n_stabs; ++s) {
            if (r == 0) {
                events[s] = prog.detR0[s] ? flips[s] : Lane{};
            } else {
                events[s] = flips[s] ^ prev_flips[s];
            }
        }

        obs.round = r;
        if (controller && spec.oracle) {
            // Optimal: the controller marks the truly leaked lanes
            // straight from the engine's planes, matches per lane on
            // those lanes only and writes the next round's schedule.
            for (int q = 0; q < n_data; ++q)
                leak_snapshot[q] = sim.leakedWord(q);
            controller->oracleRound(leak_snapshot, live, sched);
        } else if (controller) {
            // Word-parallel adaptive step: the controller thresholds
            // the event planes and allocates for all lanes at once
            // (the schedule's own data plane is exactly this round's
            // had-LRC suppression plane) and writes the next round's
            // schedule in place. No per-lane observation is ever
            // materialized.
            controller->nextRound(events, labels, sched.schedMask, live,
                                  sched);
        } else if (spec.kind == BatchPolicyKind::Uniform) {
            // Round-indexed schedule: one shared instance decides for
            // every lane (stored in lrcs[0] only).
            lrcs[0] = shared->nextRound(obs);
        } else {
            // Per-lane fallback: materialize each lane's observation
            // and let its policy adapt the next round. Detection
            // events, |L> labels and true-leak bits are word-scanned
            // once into lane-major arenas; each lane then sets only
            // its fired entries, runs its policy, and clears them
            // again.
            //
            // This scatter is NOT subsumed by the circuit IR and must
            // stay: the IR's LRC-slot branch covers per-lane *circuit*
            // divergence (which ops run on which lanes), but PerLane
            // policies are arbitrary user code whose nextRound()
            // consumes a fully materialized scalar RoundObservation to
            // *decide* the next schedule. That decision step is policy
            // evaluation, not circuit replay — no instruction stream
            // can express it, so the engine keeps no equivalent and
            // the lane-major gather/scatter here remains the only
            // bridge from bit-planes to per-lane observations.
            for (int q = 0; q < n_data; ++q)
                leak_snapshot[q] = sim.leakedWord(q);

            std::fill(ev_cur.begin(), ev_cur.end(), 0);
            std::fill(lab_cur.begin(), lab_cur.end(), 0);
            std::fill(leak_cur.begin(), leak_cur.end(), 0);
            for (int s = 0; s < n_stabs; ++s) {
                forEachSetLane(events[s], [&](int l) { ++ev_cur[l]; });
                forEachSetLane(labels[s], [&](int l) { ++lab_cur[l]; });
            }
            for (int q = 0; q < n_data; ++q)
                forEachSetLane(leak_snapshot[q],
                               [&](int l) { ++leak_cur[l]; });
            uint32_t ev_total = 0, lab_total = 0, leak_total = 0;
            for (int l = 0; l < W; ++l) {
                ev_off[l] = ev_total;
                ev_total += ev_cur[l];
                ev_cur[l] = ev_off[l];
                lab_off[l] = lab_total;
                lab_total += lab_cur[l];
                lab_cur[l] = lab_off[l];
                leak_off[l] = leak_total;
                leak_total += leak_cur[l];
                leak_cur[l] = leak_off[l];
            }
            ev_off[W] = ev_total;
            lab_off[W] = lab_total;
            leak_off[W] = leak_total;
            ev_arena.resize(ev_total);
            lab_arena.resize(lab_total);
            leak_arena.resize(leak_total);
            for (int s = 0; s < n_stabs; ++s) {
                forEachSetLane(events[s], [&](int l) {
                    ev_arena[ev_cur[l]++] = s;
                });
                forEachSetLane(labels[s], [&](int l) {
                    lab_arena[lab_cur[l]++] = s;
                });
            }
            for (int q = 0; q < n_data; ++q) {
                forEachSetLane(leak_snapshot[q], [&](int l) {
                    leak_arena[leak_cur[l]++] = q;
                });
            }

            for (int l = 0; l < W; ++l) {
                for (uint32_t k = ev_off[l]; k < ev_off[l + 1]; ++k)
                    obs.events[ev_arena[k]] = 1;
                for (uint32_t k = lab_off[l]; k < lab_off[l + 1]; ++k)
                    obs.leakedLabels[lab_arena[k]] = 1;
                for (uint32_t k = leak_off[l]; k < leak_off[l + 1]; ++k)
                    obs.trueLeakedData[leak_arena[k]] = 1;
                for (const auto &pair : lrcs[l])
                    obs.hadLrc[pair.data] = 1;

                auto next = policies[l]->nextRound(obs);

                for (uint32_t k = ev_off[l]; k < ev_off[l + 1]; ++k)
                    obs.events[ev_arena[k]] = 0;
                for (uint32_t k = lab_off[l]; k < lab_off[l + 1]; ++k)
                    obs.leakedLabels[lab_arena[k]] = 0;
                for (uint32_t k = leak_off[l]; k < leak_off[l + 1];
                     ++k)
                    obs.trueLeakedData[leak_arena[k]] = 0;
                for (const auto &pair : lrcs[l])
                    obs.hadLrc[pair.data] = 0;
                lrcs[l] = std::move(next);
            }
        }
        std::copy(flips.begin(), flips.end(), prev_flips.begin());
    }

    if (!config_.decode)
        return;

    sim.executeProgramFinal(prog, live);

    // Detector extraction reads the program's measure -> detector map
    // (for surface programs it is bit-identical to the lattice walk).
    ctx->extractor.extract(prog.detectors, config_.rounds,
                           sim.record(), W, ctx->syndrome);
    const BatchSyndrome &syndrome = ctx->syndrome;
    if (config_.batchDecode) {
        uint64_t predictions[kMaxBatchWords];
        ctx->pipeline->decodeBatch(syndrome, predictions);
        for (int b = 0; b < NB; ++b) {
            const uint64_t errors =
                (predictions[b] ^ syndrome.observableWords[b]) &
                laneWord(live, b);
            stats.logicalErrors += popcount64(errors);
            // Live block masks are contiguous low bits, so popcount
            // is the block's live lane count.
            const int block_lanes = popcount64(laneWord(live, b));
            for (int i = 0; i < block_lanes; ++i)
                stats.verdictHash ^= verdictMix(
                    first + 64 * (uint64_t)b + i,
                    (errors >> i) & 1);
        }
    } else {
        // Decode-per-shot loop through decoder_: the path a custom
        // DecoderFactory's decoder drives, and the reference the
        // golden corpus holds the batched pipeline to.
        for (int l = 0; l < W; ++l) {
            const std::vector<int> defects(
                syndrome.laneBegin(l),
                syndrome.laneBegin(l) + syndrome.laneSize(l));
            const bool predicted = decoder_->decode(defects);
            const bool error =
                predicted != syndrome.laneObservable(l);
            stats.logicalErrors += error ? 1 : 0;
            stats.verdictHash ^= verdictMix(first + l, error);
        }
    }
}

template void MemoryExperiment::runGroupT<1>(
    uint64_t, int, const PolicyFactory &, ExperimentShotStats &,
    ExperimentDecodeContext *) const;
template void MemoryExperiment::runGroupT<4>(
    uint64_t, int, const PolicyFactory &, ExperimentShotStats &,
    ExperimentDecodeContext *) const;
template void MemoryExperiment::runGroupT<8>(
    uint64_t, int, const PolicyFactory &, ExperimentShotStats &,
    ExperimentDecodeContext *) const;

} // namespace qec
