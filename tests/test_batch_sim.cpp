/**
 * @file
 * Batch engine tests, in three tiers:
 *
 *  1. The Bernoulli primitives: both sampling strategies hit their
 *     target rates and respect lane bounds, and the rare walk is
 *     chunking-invariant.
 *  2. BatchFrameSimulator word semantics: masked propagation truth
 *     tables and per-lane leakage statistics at W=64.
 *  3. Differential: the engine replays the compiled surface-memory
 *     program exactly like the scalar FrameSimulator oracle, lane by
 *     lane, under per-lane injected faults at W = 1/17/64/257; the
 *     experiment agrees with the scalar reference loop
 *     (tests/scalar_reference.h) statistically on LER and LPR; and
 *     wide widths reproduce width 64 bit for bit.
 */

#include <gtest/gtest.h>

#include <cmath>

#include <limits>
#include <utility>
#include <vector>

#include "code/builder.h"
#include "code/circuit_ir.h"
#include "decoder/defects.h"
#include "exp/memory_experiment.h"
#include "scalar_reference.h"
#include "sim/batch_frame_simulator.h"
#include "sim/bit_mask_sampler.h"
#include "sim/frame_simulator.h"

namespace qec
{
namespace
{

Op
op(OpType type, int q0, int q1 = -1)
{
    Op o;
    o.type = type;
    o.q0 = q0;
    o.q1 = q1;
    return o;
}

int
pop(uint64_t w)
{
    return __builtin_popcountll(w);
}

// ------------------------------------------------------------- sampler

TEST(MaskSampler, RareRateMatches)
{
    Rng rng(7);
    const double p = 0.005;   // rare path (geometric skipping)
    ASSERT_LT(p, kRareThreshold);
    const double log1mp = std::log1p(-p);
    uint64_t skip = bernoulliGeometricGap(rng, log1mp);
    // Advances of uneven length: the walk carries its skip across them.
    int64_t hits = 0;
    uint64_t trials = 0;
    for (int i = 0; i < 20000; ++i) {
        const uint64_t n = 1 + (uint64_t)(i % 127);
        uint64_t last = 0;
        bool first = true;
        bernoulliRareHits(rng, log1mp, skip, n, [&](uint64_t at) {
            EXPECT_LT(at, n);
            EXPECT_TRUE(first || at > last);
            first = false;
            last = at;
            ++hits;
        });
        trials += n;
    }
    const double mean = (double)trials * p;
    EXPECT_NEAR((double)hits, mean, 5 * std::sqrt(mean));
}

TEST(MaskSampler, RareWalkIsChunkingInvariant)
{
    // One advance over n1 + n2 trials hits exactly where an advance
    // over n1 followed by one over n2 does: the property that lets the
    // engine fill a whole round's sites in one walk.
    const double p = 0.01;
    const double log1mp = std::log1p(-p);
    Rng whole_rng(11), split_rng(11);
    uint64_t whole_skip = bernoulliGeometricGap(whole_rng, log1mp);
    uint64_t split_skip = bernoulliGeometricGap(split_rng, log1mp);
    std::vector<uint64_t> whole, split;
    bernoulliRareHits(whole_rng, log1mp, whole_skip, 50000,
                      [&](uint64_t at) { whole.push_back(at); });
    uint64_t offset = 0;
    for (uint64_t n : {1u, 63u, 64u, 900u, 48972u}) {
        bernoulliRareHits(split_rng, log1mp, split_skip, n,
                          [&](uint64_t at) { split.push_back(offset + at); });
        offset += n;
    }
    ASSERT_EQ(offset, 50000u);
    EXPECT_EQ(whole, split);
    EXPECT_EQ(whole_skip, split_skip);
    EXPECT_FALSE(whole.empty());
}

TEST(MaskSampler, DenseRateMatches)
{
    Rng rng(8);
    const double p = 0.3;     // dense path (digit comparison)
    int64_t hits = 0;
    const int64_t draws = 4000;
    for (int64_t i = 0; i < draws; ++i)
        hits += pop(bernoulliDenseMask(rng, p, 64));
    const double mean = (double)draws * 64 * p;
    EXPECT_NEAR((double)hits, mean, 5 * std::sqrt(mean * (1 - p)));
}

TEST(MaskSampler, DenseRespectsLaneBounds)
{
    Rng rng(9);
    for (int i = 0; i < 2000; ++i)
        EXPECT_EQ(bernoulliDenseMask(rng, 0.6, 10) & ~laneMask64(10), 0u);
    EXPECT_EQ(bernoulliDenseMask(rng, 0.0, 64), 0u);
}

// ------------------------------------------------------- hit tables

/** A one-round program whose body is `body`, replayed verbatim. */
CircuitProgram
bodyProgram(const std::vector<Op> &body, int num_qubits)
{
    CircuitProgram prog;
    prog.numQubits = num_qubits;
    prog.rounds = 1;
    prog.instrs.push_back({IrOpcode::RoundBegin, 1, -1});
    prog.bodyBegin = prog.instrs.size();
    for (const Op &o : body) {
        prog.instrs.push_back({IrOpcode::Gate, (int32_t)prog.pool.size(),
                               -1});
        prog.pool.push_back(o);
    }
    prog.bodyEnd = prog.instrs.size();
    prog.instrs.push_back({IrOpcode::RoundEnd, -1, -1});
    return prog;
}

/**
 * Hits one channel's round tables deliver over `rounds` replays of a
 * body of `n` single-qubit sites, observed through the frames:
 *  - Pauli: Reset comes up in |1> exactly on the hit lanes;
 *  - LeakInjection: DataNoise leaks the hit lanes (no seepage);
 *  - Seepage: DataNoise on all-leaked qubits clears the hit lanes.
 */
template <int NW>
int64_t
channelHits(NoiseChannel channel, double prob, int lanes, int n,
            int rounds)
{
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = channel != NoiseChannel::Pauli;
    em.p = channel == NoiseChannel::Pauli ? prob : 1.0;
    em.leakFraction = channel == NoiseChannel::LeakInjection ? prob : 0.0;
    em.seepFraction = channel == NoiseChannel::Seepage ? prob : 0.0;
    std::vector<Op> body;
    for (int q = 0; q < n; ++q)
        body.push_back(channel == NoiseChannel::Pauli
                           ? op(OpType::Reset, q)
                           : op(OpType::DataNoise, q));
    const CircuitProgram prog = bodyProgram(body, n);
    BatchFrameSimulatorT<NW> sim(n, em, lanes, 91, 0);
    sim.bindProgramStreams(prog);
    EXPECT_EQ(sim.roundSites().of(channel), n);
    int64_t hits = 0;
    for (int r = 0; r < rounds; ++r) {
        for (int q = 0; q < n; ++q)
            sim.setLeaked(q, channel == NoiseChannel::Seepage,
                          sim.liveMask());
        sim.executeProgramRound(prog, r, sim.liveMask());
        for (int q = 0; q < n; ++q) {
            if (channel == NoiseChannel::Pauli)
                hits += popcountLanes(sim.xWord(q));
            else if (channel == NoiseChannel::LeakInjection)
                hits += popcountLanes(sim.leakedWord(q));
            else
                hits += lanes - popcountLanes(sim.leakedWord(q));
        }
    }
    return hits;
}

/** Every channel's hit count lands within 5 sigma of
 *  sites * lanes * p, on the rare (geometric walk) and dense
 *  (digit compare) paths, at W = 64 and on a ragged 257-lane group
 *  whose last block holds one lane. */
TEST(HitTables, PerChannelHitRatesMatchAtW64AndRaggedW257)
{
    const int n = 40, rounds = 60;
    for (int c = 0; c < kNoiseChannels; ++c) {
        const NoiseChannel channel = (NoiseChannel)c;
        for (double prob : {0.004, 0.05}) {
            SCOPED_TRACE("channel " + std::to_string(c) +
                         " p=" + std::to_string(prob));
            ASSERT_EQ(prob < kRareThreshold, prob == 0.004);
            for (int lanes : {64, 257}) {
                const int64_t hits =
                    lanes == 64
                        ? channelHits<1>(channel, prob, lanes, n, rounds)
                        : channelHits<8>(channel, prob, lanes, n, rounds);
                const double trials = (double)n * rounds * lanes;
                const double mean = trials * prob;
                EXPECT_NEAR((double)hits, mean,
                            5 * std::sqrt(mean * (1 - prob)))
                    << "lanes " << lanes;
            }
        }
    }
}

// ------------------------------------------------- word-level semantics

TEST(BatchSim, MaskedCnotPropagatesPerLane)
{
    BatchFrameSimulator sim(2, ErrorModel::noiseless(), 64, 1, 0);
    const uint64_t injected = 0x00000000FFFFFFFFull;
    const uint64_t gate = 0x0000FFFFFFFF0000ull;
    sim.injectPauli(0, Pauli::X, injected);
    sim.execute(op(OpType::Cnot, 0, 1), gate);
    EXPECT_EQ(sim.xWord(0), injected);
    EXPECT_EQ(sim.xWord(1), injected & gate);
}

TEST(BatchSim, MaskedCnotPropagatesZBackwardPerLane)
{
    BatchFrameSimulator sim(2, ErrorModel::noiseless(), 64, 1, 0);
    const uint64_t injected = 0xF0F0F0F0F0F0F0F0ull;
    const uint64_t gate = 0xFF00FF00FF00FF00ull;
    sim.injectPauli(1, Pauli::Z, injected);
    sim.execute(op(OpType::Cnot, 0, 1), gate);
    EXPECT_EQ(sim.zWord(1), injected);
    EXPECT_EQ(sim.zWord(0), injected & gate);
}

TEST(BatchSim, HadamardSwapsPlanesOnMaskedLanes)
{
    BatchFrameSimulator sim(1, ErrorModel::noiseless(), 64, 1, 0);
    const uint64_t injected = ~uint64_t{0};
    const uint64_t gate = 0x123456789ABCDEF0ull;
    sim.injectPauli(0, Pauli::X, injected);
    sim.execute(op(OpType::H, 0), gate);
    EXPECT_EQ(sim.xWord(0), ~gate);
    EXPECT_EQ(sim.zWord(0), gate);
}

TEST(BatchSim, MaskedResetClearsOnlyMaskedLanes)
{
    BatchFrameSimulator sim(1, ErrorModel::noiseless(), 64, 1, 0);
    sim.injectPauli(0, Pauli::Y, ~uint64_t{0});
    sim.setLeaked(0, true, ~uint64_t{0});
    const uint64_t gate = 0x00FF00FF00FF00FFull;
    sim.execute(op(OpType::Reset, 0), gate);
    EXPECT_EQ(sim.xWord(0), ~gate);
    EXPECT_EQ(sim.zWord(0), ~gate);
    EXPECT_EQ(sim.leakedWord(0), ~gate);
}

TEST(BatchSim, LeakedLanesBlockPropagation)
{
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    em.pTransport = 0.0;
    BatchFrameSimulator sim(2, em, 64, 1, 0);
    const uint64_t both_leaked = 0xFFFF000000000000ull;
    sim.setLeaked(0, true, both_leaked);
    sim.setLeaked(1, true, both_leaked);
    sim.injectPauli(0, Pauli::X, ~uint64_t{0});
    sim.execute(op(OpType::Cnot, 0, 1), ~uint64_t{0});
    // Lanes with both operands leaked see no frame action at all.
    EXPECT_EQ(sim.xWord(1) & both_leaked, 0u);
    EXPECT_EQ(sim.xWord(1) & ~both_leaked, ~both_leaked);
}

TEST(BatchSim, ConservativeTransportGrowsLeakageAcrossLanes)
{
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    em.pTransport = 0.1;
    int64_t transported = 0;
    const int iterations = 400;
    for (int i = 0; i < iterations; ++i) {
        BatchFrameSimulator sim(2, em, 64, 1000 + i, 0);
        sim.setLeaked(0, true, ~uint64_t{0});
        sim.execute(op(OpType::Cnot, 0, 1), ~uint64_t{0});
        EXPECT_EQ(sim.leakedWord(0), ~uint64_t{0});
        transported += pop(sim.leakedWord(1));
    }
    const double n = 64.0 * iterations;
    EXPECT_NEAR((double)transported, n * 0.1,
                5 * std::sqrt(n * 0.1 * 0.9));
}

TEST(BatchSim, ExchangeTransportPreservesLeakageCount)
{
    ErrorModel em = ErrorModel::noiseless();
    em.leakageEnabled = true;
    em.pTransport = 0.1;
    em.transport = TransportModel::Exchange;
    for (int i = 0; i < 200; ++i) {
        BatchFrameSimulator sim(2, em, 64, 2000 + i, 0);
        sim.setLeaked(0, true, ~uint64_t{0});
        sim.execute(op(OpType::Cnot, 0, 1), ~uint64_t{0});
        // Exchange never duplicates leakage: exactly one of the two
        // operands is leaked in every lane.
        EXPECT_EQ(sim.leakedWord(0) ^ sim.leakedWord(1), ~uint64_t{0});
    }
}

TEST(BatchSim, LeakedMeasurementIsRandomPerLane)
{
    BatchFrameSimulator sim(1, ErrorModel::noiseless(), 64, 5, 0);
    sim.setLeaked(0, true, ~uint64_t{0});
    int64_t flips = 0;
    const int iterations = 400;
    for (int i = 0; i < iterations; ++i) {
        sim.execute(op(OpType::Measure, 0), ~uint64_t{0});
        flips += pop(sim.record().back().flips);
    }
    const double n = 64.0 * iterations;
    EXPECT_NEAR((double)flips, n / 2, 5 * std::sqrt(n / 4));
}

TEST(BatchSim, MultiLevelLabelsFlagLeakedLanes)
{
    ErrorModel em = ErrorModel::standard(1e-3);
    BatchFrameSimulator sim(1, em, 64, 5, 0);
    const uint64_t leaked = 0xFFFFFFFF00000000ull;
    int64_t labels = 0, clean_labels = 0;
    const int iterations = 600;
    for (int i = 0; i < iterations; ++i) {
        sim.setLeaked(0, true, leaked);
        sim.setLeaked(0, false, ~leaked);
        sim.execute(op(OpType::Measure, 0), ~uint64_t{0});
        labels += pop(sim.record().back().leakedLabels & leaked);
        clean_labels += pop(sim.record().back().leakedLabels & ~leaked);
    }
    EXPECT_EQ(clean_labels, 0);
    const double n = 32.0 * iterations;
    const double miss = em.multiLevelMissProb();
    EXPECT_NEAR((double)labels, n * (1 - miss),
                5 * std::sqrt(n * miss * (1 - miss)) + 5);
}

TEST(BatchSim, NoiselessMemoryCircuitIsDeterministicAtW64)
{
    RotatedSurfaceCode code(3);
    Circuit circuit = buildMemoryCircuit(code, 4, Basis::Z);
    BatchFrameSimulator sim(code.numQubits(),
                            ErrorModel::noiseless(), 64, 99, 0);
    sim.executeRange(circuit.ops.data(),
                     circuit.ops.data() + circuit.ops.size());
    for (const auto &rec : sim.record())
        ASSERT_EQ(rec.flips, 0u);
    auto outcomes =
        extractDefectsBatched(code, Basis::Z, 4, sim.record(), 64);
    ASSERT_EQ(outcomes.size(), 64u);
    for (const auto &outcome : outcomes) {
        EXPECT_TRUE(outcome.defects.empty());
        EXPECT_FALSE(outcome.observableFlip);
    }
}

// ------------------------------------- exact engine vs scalar oracle

/** One op of a compiled program flattened for op-granular replay;
 *  `tail` ops run on the engine's block-local LRC-tail path. */
struct ProgramStep
{
    Op op;
    bool tail = false;
};

/** (stabilizer, data qubit) LRC pairs scheduled in one round. */
using RoundPairs = std::vector<std::pair<int, int>>;

/** A fixed LRC schedule: every other stabilizer (alternating by round)
 *  through the first support qubit no other pair of the round uses. */
std::vector<RoundPairs>
fixedLrcPairs(const CircuitProgram &prog)
{
    std::vector<RoundPairs> pairs(prog.rounds);
    for (int r = 0; r < prog.rounds; ++r) {
        std::vector<uint8_t> taken(prog.numData, 0);
        for (int s = (r & 1); s < prog.numStabs; s += 2) {
            for (int k = prog.supportOffset[s];
                 k < prog.supportOffset[s + 1]; ++k) {
                const int d = prog.supportData[k];
                if (!taken[d]) {
                    taken[d] = 1;
                    pairs[r].push_back({s, d});
                    break;
                }
            }
        }
    }
    return pairs;
}

/**
 * The op sequence executeProgramRound/executeProgramFinal replay when
 * every lane carries the fill `pairs` (no multi-level squash), with
 * the step index at which each round, and finally the transversal
 * readout, begins.
 */
std::vector<ProgramStep>
flattenProgram(const CircuitProgram &prog,
               const std::vector<RoundPairs> &pairs,
               std::vector<size_t> &round_starts)
{
    std::vector<ProgramStep> steps;
    round_starts.clear();
    for (int r = 0; r < prog.rounds; ++r) {
        round_starts.push_back(steps.size());
        for (size_t i = prog.bodyBegin; i < prog.bodyEnd; ++i) {
            const IrInst &inst = prog.instrs[i];
            if (inst.op == IrOpcode::Gate) {
                steps.push_back({prog.pool[inst.a], false});
            } else if (inst.op == IrOpcode::Readout) {
                bool lrcd = false;
                for (const auto &pair : pairs[r])
                    lrcd |= pair.first == inst.a;
                if (prog.maskReadoutOnLrc && lrcd)
                    continue;
                Op meas = prog.pool[inst.b];
                meas.round = r;
                steps.push_back({meas, false});
                steps.push_back({prog.pool[(size_t)inst.b + 1], false});
            } else if (inst.op == IrOpcode::LrcSlot && inst.a == 0) {
                for (const auto &[stab, data] : pairs[r]) {
                    const int parity = prog.stabAncilla[stab];
                    if (prog.tail == IrTailKind::Dqlr) {
                        steps.push_back(
                            {makeOp(OpType::LeakageIswap, data, parity),
                             true});
                        steps.push_back(
                            {makeOp(OpType::Reset, parity), true});
                        continue;
                    }
                    Op meas = makeOp(OpType::Measure, data);
                    meas.stab = stab;
                    meas.round = r;
                    meas.lrcData = true;
                    for (const Op &o :
                         {makeOp(OpType::Cnot, data, parity),
                          makeOp(OpType::Cnot, parity, data),
                          makeOp(OpType::Cnot, data, parity), meas,
                          makeOp(OpType::Reset, data),
                          makeOp(OpType::Cnot, parity, data),
                          makeOp(OpType::Cnot, data, parity)})
                        steps.push_back({o, true});
                }
            }
        }
    }
    round_starts.push_back(steps.size());
    for (size_t i = prog.bodyEnd + 1; i < prog.instrs.size(); ++i)
        steps.push_back({prog.pool[prog.instrs[i].a], false});
    return steps;
}

/** A lane's single fault: X/Y/Z (kind 0..2) or leakage (kind 3) on
 *  `qubit`, applied just before step `at`. */
struct LaneFault
{
    size_t at = std::numeric_limits<size_t>::max();
    int qubit = 0;
    int kind = 0;
};

const Pauli kFaultPaulis[3] = {Pauli::X, Pauli::Y, Pauli::Z};

/** The scalar oracle: one FrameSimulator per lane, seeded as the
 *  engine seeds that lane's per-lane stream. */
std::vector<FrameSimulator>
oracleSims(const CircuitProgram &prog, int lanes, uint64_t seed,
           const ErrorModel &em)
{
    std::vector<FrameSimulator> sims;
    sims.reserve(lanes);
    for (int l = 0; l < lanes; ++l)
        sims.emplace_back(prog.numQubits, em,
                          Rng::forShot(seed, (uint64_t)l));
    return sims;
}

template <int NW>
void
injectAt(size_t step, const std::vector<LaneFault> &faults,
         BatchFrameSimulatorT<NW> &sim, std::vector<FrameSimulator> &oracle)
{
    for (size_t l = 0; l < faults.size(); ++l) {
        const LaneFault &f = faults[l];
        if (f.at != step)
            continue;
        LaneWord<NW> lane{};
        setLane(lane, (int)l);
        if (f.kind == 3) {
            sim.setLeaked(f.qubit, true, lane);
            oracle[l].setLeaked(f.qubit, true);
        } else {
            sim.injectPauli(f.qubit, kFaultPaulis[f.kind], lane);
            oracle[l].injectPauli(f.qubit, kFaultPaulis[f.kind]);
        }
    }
}

/** X/Z/leak planes of every lane equal their oracle's frames. */
template <int NW>
void
expectPlanesMatch(const BatchFrameSimulatorT<NW> &sim,
                  const std::vector<FrameSimulator> &oracle,
                  const char *where, size_t step)
{
    for (int q = 0; q < sim.numQubits(); ++q) {
        const LaneWord<NW> x = sim.xWord(q), z = sim.zWord(q),
                           lk = sim.leakedWord(q);
        for (int l = 0; l < sim.numLanes(); ++l) {
            ASSERT_EQ(testLane(x, l), oracle[l].xFrame(q))
                << where << " step " << step << " lane " << l << " q" << q;
            ASSERT_EQ(testLane(z, l), oracle[l].zFrame(q))
                << where << " step " << step << " lane " << l << " q" << q;
            ASSERT_EQ(testLane(lk, l), oracle[l].leaked(q))
                << where << " step " << step << " lane " << l << " q" << q;
        }
    }
}

/** Each lane's slice of the engine record equals its oracle's record,
 *  entry for entry (metadata, flip and |L> label). */
template <int NW>
void
expectRecordsMatch(const BatchFrameSimulatorT<NW> &sim,
                   const std::vector<FrameSimulator> &oracle,
                   const char *where)
{
    for (int l = 0; l < sim.numLanes(); ++l) {
        const std::vector<MeasureRecord> &want = oracle[l].record();
        size_t k = 0;
        for (const auto &rec : sim.record()) {
            if (!testLane(rec.mask, l))
                continue;
            ASSERT_LT(k, want.size()) << where << " lane " << l;
            const MeasureRecord &w = want[k++];
            ASSERT_EQ(rec.qubit, w.qubit) << where << " lane " << l;
            ASSERT_EQ(rec.stab, w.stab) << where << " lane " << l;
            ASSERT_EQ(rec.round, w.round) << where << " lane " << l;
            ASSERT_EQ(rec.finalData, w.finalData) << where << " lane " << l;
            ASSERT_EQ(rec.lrcData, w.lrcData) << where << " lane " << l;
            ASSERT_EQ(testLane(rec.flips, l), w.flip)
                << where << " lane " << l << " record " << k - 1;
            ASSERT_EQ(testLane(rec.leakedLabels, l), w.leakedLabel)
                << where << " lane " << l << " record " << k - 1;
        }
        ASSERT_EQ(k, want.size()) << where << " lane " << l;
    }
}

/**
 * Engine vs oracle on one compiled program at `lanes` lanes, under a
 * model whose unconditional channels are silent (p = 0), so every draw
 * left is a state-conditional per-lane draw — random Paulis and
 * readouts on leaked lanes, transport, DQLR excitation — which the
 * engine takes from each lane's own stream in the scalar order. Two
 * ways:
 *
 *  - op by op: every lane gets its own Pauli or leakage fault at its
 *    own step; body ops run through execute(), tail ops through the
 *    block-local executeBlock() path; planes are compared after every
 *    step;
 *  - through the real replay (executeProgramRound with the same fill,
 *    then executeProgramFinal), with per-lane faults at round
 *    boundaries.
 */
template <int NW>
void
expectEngineMatchesOracle(const CircuitProgram &prog, int lanes,
                          const ErrorModel &em)
{
    const uint64_t seed = 4242;
    const std::vector<RoundPairs> pairs = fixedLrcPairs(prog);
    std::vector<size_t> round_starts;
    const std::vector<ProgramStep> steps =
        flattenProgram(prog, pairs, round_starts);

    // Op by op, a distinct fault per lane.
    std::vector<LaneFault> faults(lanes);
    for (int l = 0; l < lanes; ++l) {
        LaneFault &f = faults[l];
        f.kind = l % 4;
        f.at = ((size_t)l * 37 + 11) % steps.size();
        f.qubit = (l * 13 + 5) % prog.numQubits;
    }
    {
        BatchFrameSimulatorT<NW> sim(prog.numQubits, em, lanes, seed,
                                     0);
        std::vector<FrameSimulator> oracle =
            oracleSims(prog, lanes, seed, em);
        const LaneWord<NW> live = sim.liveMask();
        for (size_t i = 0; i < steps.size(); ++i) {
            injectAt(i, faults, sim, oracle);
            if (steps[i].tail) {
                for (int b = 0; b < sim.numBlocks(); ++b)
                    sim.executeBlock(steps[i].op, b, laneWord(live, b));
            } else {
                sim.execute(steps[i].op, live);
            }
            for (FrameSimulator &o : oracle)
                o.execute(steps[i].op);
            expectPlanesMatch(sim, oracle, "op-by-op", i);
            if (::testing::Test::HasFatalFailure())
                return;
        }
        expectRecordsMatch(sim, oracle, "op-by-op");
    }

    // Program replay, faults at round boundaries.
    for (int l = 0; l < lanes; ++l) {
        LaneFault &f = faults[l];
        f.kind = l % 4;
        f.at = round_starts[(size_t)(l / 4) % round_starts.size()];
        f.qubit = (l * 13 + 5) % prog.numQubits;
    }
    BatchFrameSimulatorT<NW> sim(prog.numQubits, em, lanes, seed, 0);
    sim.bindProgramStreams(prog);
    const LaneWord<NW> live = sim.liveMask();
    std::vector<FrameSimulator> oracle =
        oracleSims(prog, lanes, seed, em);
    for (int r = 0; r <= prog.rounds; ++r) {
        const size_t begin = round_starts[r];
        const size_t end =
            r < prog.rounds ? round_starts[r + 1] : steps.size();
        injectAt(begin, faults, sim, oracle);
        if (r < prog.rounds) {
            std::vector<LaneWord<NW>> lrc_on_stab(prog.numStabs,
                                                  LaneWord<NW>{});
            std::vector<IrLrcTail> tails[NW];
            for (const auto &[stab, data] : pairs[r]) {
                lrc_on_stab[stab] = live;
                for (int b = 0; b < sim.numBlocks(); ++b)
                    tails[b].push_back({stab, data, laneWord(live, b)});
            }
            ProgramLrcFillT<NW> fill;
            fill.lrcOnStab = lrc_on_stab.data();
            fill.blockTails = tails;
            sim.executeProgramRound(prog, r, live, &fill, 1);
        } else {
            sim.executeProgramFinal(prog, live);
        }
        for (FrameSimulator &o : oracle)
            for (size_t i = begin; i < end; ++i)
                o.execute(steps[i].op);
        expectPlanesMatch(sim, oracle, "replay", end);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    expectRecordsMatch(sim, oracle, "replay");
}

void
expectEngineMatchesOracleAtWidths(IrTailKind tail, Basis basis)
{
    RotatedSurfaceCode code(3);
    const CircuitProgram prog =
        CircuitCompiler::surfaceMemory(code, 3, basis, tail);
    // Noiseless, and leakage on with p = 0: transport (0.1) and DQLR
    // excitation (0.5) still fire, from the per-lane streams alone.
    ErrorModel leaky = ErrorModel::standard(0.0);
    for (const ErrorModel &em : {ErrorModel::noiseless(), leaky}) {
        SCOPED_TRACE(em.leakageEnabled ? "leakage on" : "noiseless");
        for (int lanes : {1, 17, 64}) {
            SCOPED_TRACE("lanes " + std::to_string(lanes));
            expectEngineMatchesOracle<1>(prog, lanes, em);
        }
        SCOPED_TRACE("lanes 257");
        expectEngineMatchesOracle<8>(prog, 257, em);
    }
}

TEST(EngineOracle, SwapLrcProgramMatchesScalarLaneByLane)
{
    expectEngineMatchesOracleAtWidths(IrTailKind::SwapLrc, Basis::Z);
    expectEngineMatchesOracleAtWidths(IrTailKind::SwapLrc, Basis::X);
}

TEST(EngineOracle, DqlrProgramMatchesScalarLaneByLane)
{
    expectEngineMatchesOracleAtWidths(IrTailKind::Dqlr, Basis::Z);
    expectEngineMatchesOracleAtWidths(IrTailKind::Dqlr, Basis::X);
}

// --------------------------------------------- statistical W=64 checks

TEST(BatchDifferential, W64LerAgreesWithScalar)
{
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 5;
    cfg.shots = 4000;
    cfg.seed = 777;
    cfg.em = ErrorModel::standard(5e-3);
    MemoryExperiment exp(code, cfg);

    auto scalar = scalar_reference::run(exp, PolicyKind::Eraser);

    cfg.batchWidth = 64;
    MemoryExperiment batched_exp(code, cfg);
    auto batched = batched_exp.run(PolicyKind::Eraser);

    ASSERT_GT(scalar.logicalErrors, 0u);
    ASSERT_GT(batched.logicalErrors, 0u);
    const double p_pool =
        (scalar.ler() + batched.ler()) / 2.0;
    const double sigma = std::sqrt(2.0 * p_pool * (1 - p_pool) /
                                   (double)cfg.shots);
    EXPECT_NEAR(scalar.ler(), batched.ler(), 5 * sigma);
}

TEST(BatchDifferential, W64LprAgreesWithScalar)
{
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 8;
    cfg.shots = 10000;
    cfg.seed = 778;
    cfg.em = ErrorModel::standard(1e-2);
    cfg.decode = false;
    cfg.trackLpr = true;
    MemoryExperiment exp(code, cfg);

    auto scalar = scalar_reference::run(exp, PolicyKind::Never);

    cfg.batchWidth = 64;
    MemoryExperiment batched_exp(code, cfg);
    auto batched = batched_exp.run(PolicyKind::Never);

    // Leakage accumulates without LRCs; the two engines must agree on
    // the whole population trace within sampling error.
    for (int r = 1; r < cfg.rounds; ++r) {
        const double a = scalar.lprData(r);
        const double b = batched.lprData(r);
        ASSERT_GT(a, 0.0);
        ASSERT_GT(b, 0.0);
        const double trials =
            (double)cfg.shots * code.numData();
        const double p_pool = (a + b) / 2.0;
        const double sigma =
            std::sqrt(2.0 * p_pool * (1 - p_pool) / trials);
        EXPECT_NEAR(a, b, 6 * sigma + 1e-9)
            << "round " << r;
    }
}

TEST(BatchDifferential, PartialWordGroupsCoverAllShots)
{
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 4;
    cfg.shots = 53;   // 17-lane groups: 17 + 17 + 17 + 2
    cfg.seed = 31;
    cfg.em = ErrorModel::standard(2e-3);
    cfg.batchWidth = 17;
    MemoryExperiment exp(code, cfg);
    auto result = exp.run(PolicyKind::Eraser);
    EXPECT_EQ(result.shots, cfg.shots);
    EXPECT_EQ(result.tp + result.fp + result.tn + result.fn,
              cfg.shots * (uint64_t)cfg.rounds *
                  (uint64_t)code.numData());
    EXPECT_EQ(result.tp + result.fp, result.lrcsScheduled);
}

// ------------------------------------ SIMD width matrix (W = 256/512)

/** Exact-equality check of two runs' full counter set. */
void
expectResultsIdentical(const ExperimentResult &a,
                       const ExperimentResult &b, const char *what)
{
    EXPECT_EQ(a.logicalErrors, b.logicalErrors) << what;
    EXPECT_EQ(a.verdictFingerprint, b.verdictFingerprint) << what;
    EXPECT_EQ(a.tp, b.tp) << what;
    EXPECT_EQ(a.fp, b.fp) << what;
    EXPECT_EQ(a.tn, b.tn) << what;
    EXPECT_EQ(a.fn, b.fn) << what;
    EXPECT_EQ(a.lrcsScheduled, b.lrcsScheduled) << what;
    ASSERT_EQ(a.lprDataSum.size(), b.lprDataSum.size()) << what;
    for (size_t r = 0; r < a.lprDataSum.size(); ++r) {
        EXPECT_DOUBLE_EQ(a.lprDataSum[r], b.lprDataSum[r]) << what;
        EXPECT_DOUBLE_EQ(a.lprParitySum[r], b.lprParitySum[r]) << what;
    }
}

/**
 * W = 256 and W = 512 must reproduce the W = 64 run bit for bit:
 * every 64-lane block of a wide word-group carries the exact noise
 * streams of the standalone 64-lane group at the same first shot.
 * shots = 391 exercises ragged tail groups at every width.
 */
TEST(BatchDifferential, WideWidthsMatchWidth64Exactly)
{
    RotatedSurfaceCode code(3);
    for (RemovalProtocol protocol :
         {RemovalProtocol::SwapLrc, RemovalProtocol::Dqlr}) {
        for (PolicyKind kind :
             {PolicyKind::Always, PolicyKind::Eraser,
              PolicyKind::EraserM, PolicyKind::Optimal}) {
            ExperimentConfig cfg;
            cfg.rounds = 5;
            cfg.shots = 391;
            cfg.seed = 20260726;
            cfg.em = ErrorModel::standard(3e-3);
            cfg.protocol = protocol;
            cfg.trackLpr = true;

            cfg.batchWidth = 64;
            auto w64 = MemoryExperiment(code, cfg).run(kind);
            cfg.batchWidth = 256;
            auto w256 = MemoryExperiment(code, cfg).run(kind);
            cfg.batchWidth = 512;
            auto w512 = MemoryExperiment(code, cfg).run(kind);

            expectResultsIdentical(w64, w256, "W=256 vs W=64");
            expectResultsIdentical(w64, w512, "W=512 vs W=64");
        }
    }
}

TEST(BatchDifferential, OneLaneTailGroupsMatchAcrossWidths)
{
    // shots = 257: every width ends with a 1-lane block at shot 256
    // (its own group at widths 64/256, the ragged fifth block of the
    // single group at 512). Per-64-lane-block streams make all three
    // draw it identically, with no special case for 1-lane groups.
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 5;
    cfg.shots = 257;
    cfg.seed = 99;
    cfg.em = ErrorModel::standard(5e-3);
    cfg.trackLpr = true;

    cfg.batchWidth = 64;
    auto w64 = MemoryExperiment(code, cfg).run(PolicyKind::Eraser);
    cfg.batchWidth = 256;
    auto w256 = MemoryExperiment(code, cfg).run(PolicyKind::Eraser);
    cfg.batchWidth = 512;
    auto w512 = MemoryExperiment(code, cfg).run(PolicyKind::Eraser);
    expectResultsIdentical(w64, w256, "1-lane tail W=256 vs W=64");
    expectResultsIdentical(w64, w512, "1-lane tail W=512 vs W=64");
}

TEST(BatchDifferential, WideWidthsMatchWidth64OnMemoryX)
{
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 5;
    cfg.shots = 300;
    cfg.seed = 8;
    cfg.em = ErrorModel::standard(2e-3);
    cfg.basis = Basis::X;
    cfg.decoderKind = DecoderKind::UnionFind;
    cfg.trackLpr = true;

    cfg.batchWidth = 64;
    auto w64 = MemoryExperiment(code, cfg).run(PolicyKind::Eraser);
    cfg.batchWidth = 512;
    auto w512 = MemoryExperiment(code, cfg).run(PolicyKind::Eraser);
    expectResultsIdentical(w64, w512, "basis X W=512 vs W=64");
}

/**
 * Engine-level pin of the same property: a 256-lane simulator running
 * a memory circuit produces, block by block, the records of the four
 * 64-lane simulators at first shots 0/64/128/192.
 */
TEST(BatchSim, WideEngineMatchesBlockwise64LaneEngines)
{
    RotatedSurfaceCode code(3);
    Circuit circuit = buildMemoryCircuit(code, 5, Basis::Z);
    ErrorModel em = ErrorModel::standard(4e-3);

    BatchFrameSimulatorT<4> wide(code.numQubits(), em, 256, 321, 0);
    wide.executeRange(circuit.ops.data(),
                      circuit.ops.data() + circuit.ops.size());

    for (int b = 0; b < 4; ++b) {
        BatchFrameSimulator narrow(code.numQubits(), em, 64, 321,
                                   64 * (uint64_t)b);
        narrow.executeRange(circuit.ops.data(),
                            circuit.ops.data() + circuit.ops.size());
        ASSERT_EQ(wide.record().size(), narrow.record().size());
        for (size_t i = 0; i < narrow.record().size(); ++i) {
            const auto &w = wide.record()[i];
            const auto &n = narrow.record()[i];
            ASSERT_EQ(laneWord(w.mask, b), n.mask) << b << " " << i;
            ASSERT_EQ(laneWord(w.flips, b), n.flips) << b << " " << i;
            ASSERT_EQ(laneWord(w.leakedLabels, b), n.leakedLabels)
                << b << " " << i;
        }
        for (int q = 0; q < code.numQubits(); ++q) {
            ASSERT_EQ(laneWord(wide.xWord(q), b), narrow.xWord(q));
            ASSERT_EQ(laneWord(wide.zWord(q), b), narrow.zWord(q));
            ASSERT_EQ(laneWord(wide.leakedWord(q), b),
                      narrow.leakedWord(q));
        }
    }
}

/**
 * Dead-lane audit pin: a ragged word-group (100 live lanes in a
 * 256-lane-capable engine, second block only 36 lanes deep) must keep
 * every record word and every internal plane silent above the live
 * mask after a full noisy adaptive-shaped circuit — a stray dead-lane
 * bit here would leak phantom events, observations or LRCs into the
 * experiment layer's scatter loops.
 */
TEST(BatchSim, RaggedGroupKeepsDeadLanesSilent)
{
    RotatedSurfaceCode code(3);
    Circuit circuit = buildMemoryCircuit(code, 6, Basis::Z);
    ErrorModel em = ErrorModel::standard(8e-3);
    BatchFrameSimulatorT<4> sim(code.numQubits(), em, 100, 13, 0);
    const WordVec<4> live = sim.liveMask();
    ASSERT_EQ(laneWord(live, 0), ~uint64_t{0});
    ASSERT_EQ(laneWord(live, 1), laneMask64(36));
    ASSERT_EQ(laneWord(live, 2), 0u);

    sim.executeRange(circuit.ops.data(),
                     circuit.ops.data() + circuit.ops.size());
    // Force the leakage-divergent op paths on a masked lane subset
    // too (the experiment layer's divergent-LRC-tail shape).
    WordVec<4> half{};
    laneWordRef(half, 0) = 0xFFFF0000FFFF0000ull;
    laneWordRef(half, 1) = laneMask64(36) & 0x55555555ull;
    for (const auto &stab : code.stabilizers()) {
        sim.execute(op(OpType::Cnot, stab.support[0], stab.ancilla),
                    half);
        sim.execute(op(OpType::Measure, stab.support[0]), half);
        sim.execute(op(OpType::Reset, stab.ancilla), half);
    }

    for (const auto &rec : sim.record()) {
        for (int b = 0; b < 4; ++b) {
            ASSERT_EQ(laneWord(rec.mask, b) & ~laneWord(live, b), 0u);
            ASSERT_EQ(laneWord(rec.flips, b) & ~laneWord(live, b), 0u);
            ASSERT_EQ(
                laneWord(rec.leakedLabels, b) & ~laneWord(live, b),
                0u);
        }
    }
    for (int q = 0; q < code.numQubits(); ++q) {
        for (int b = 0; b < 4; ++b) {
            ASSERT_EQ(laneWord(sim.xWord(q), b) & ~laneWord(live, b),
                      0u)
                << "qubit " << q;
            ASSERT_EQ(laneWord(sim.zWord(q), b) & ~laneWord(live, b),
                      0u)
                << "qubit " << q;
            ASSERT_EQ(
                laneWord(sim.leakedWord(q), b) & ~laneWord(live, b),
                0u)
                << "qubit " << q;
        }
    }
}

/** Statistical LER/LPR agreement of the widest engine against the
 *  scalar reference at the paper's headline distance. */
TEST(BatchDifferential, W512AgreesWithScalarStatisticallyAtD11)
{
    RotatedSurfaceCode code(11);
    ExperimentConfig cfg;
    cfg.rounds = 4;
    cfg.shots = 320;
    cfg.seed = 555;
    cfg.em = ErrorModel::standard(8e-3);
    cfg.decoderKind = DecoderKind::UnionFind;
    cfg.trackLpr = true;
    MemoryExperiment scalar_exp(code, cfg);
    auto scalar = scalar_reference::run(scalar_exp, PolicyKind::Eraser);

    cfg.batchWidth = 512;
    MemoryExperiment wide_exp(code, cfg);
    auto wide = wide_exp.run(PolicyKind::Eraser);

    ASSERT_GT(scalar.logicalErrors, 0u);
    ASSERT_GT(wide.logicalErrors, 0u);
    const double p_pool = (scalar.ler() + wide.ler()) / 2.0;
    const double sigma =
        std::sqrt(2.0 * p_pool * (1 - p_pool) / (double)cfg.shots);
    EXPECT_NEAR(scalar.ler(), wide.ler(), 5 * sigma);

    for (int r = 1; r < cfg.rounds; ++r) {
        const double a = scalar.lprData(r);
        const double b = wide.lprData(r);
        ASSERT_GT(a, 0.0);
        ASSERT_GT(b, 0.0);
        const double trials = (double)cfg.shots * code.numData();
        const double pool = (a + b) / 2.0;
        const double s =
            std::sqrt(2.0 * pool * (1 - pool) / trials);
        EXPECT_NEAR(a, b, 6 * s + 1e-9) << "round " << r;
    }
}

TEST(BatchDifferential, BatchedRunIsDeterministic)
{
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 4;
    cfg.shots = 200;
    cfg.seed = 99;
    cfg.em = ErrorModel::standard(3e-3);
    cfg.batchWidth = 64;
    MemoryExperiment exp(code, cfg);
    auto a = exp.run(PolicyKind::EraserM);
    auto b = exp.run(PolicyKind::EraserM);
    EXPECT_EQ(a.logicalErrors, b.logicalErrors);
    EXPECT_EQ(a.lrcsScheduled, b.lrcsScheduled);
    EXPECT_EQ(a.tp, b.tp);
    EXPECT_EQ(a.fn, b.fn);
}

} // namespace
} // namespace qec
