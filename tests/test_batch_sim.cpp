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
 *  4. The fused LRC-tail kernel: per-lane sparse fills and the ERASER+M
 *     squash against the scalar oracle, every Pauli frame through a
 *     bare LRC slot, noisy replay digests pinned to the op-by-op tail,
 *     and allocation-free replay of a dense divergent fill.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <new>
#include <utility>
#include <vector>

#include "code/builder.h"
#include "code/circuit_ir.h"
#include "decoder/sparse_syndrome.h"
#include "exp/memory_experiment.h"
#include "frame_simulator.h"
#include "memory_circuit.h"
#include "scalar_reference.h"
#include "sim/batch_frame_simulator.h"
#include "sim/bit_mask_sampler.h"

// ---------------------------------------------------------------------
// Global allocation counter: every operator new in this binary bumps
// it, so tests can assert a code region allocates nothing. The
// over-aligned forms are replaced too, since the plane-word vectors at
// W >= 256 allocate through them. The replacement operators pair
// malloc with free, which GCC's new/delete-mismatch heuristic cannot
// see through.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
static std::atomic<uint64_t> g_allocations{0};

void *
operator new(std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    ++g_allocations;
    const std::size_t a = (std::size_t)align;
    const std::size_t bytes = (std::max<std::size_t>(size, 1) + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, bytes))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return operator new(size, align);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

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
    const CircuitProgram prog = CircuitCompiler::surfaceMemory(
        code, 4, Basis::Z, IrTailKind::SwapLrc);
    BatchFrameSimulator sim(code.numQubits(),
                            ErrorModel::noiseless(), 64, 99, 0);
    sim.executeProgram(prog);
    for (const auto &rec : sim.record())
        ASSERT_EQ(rec.flips, 0u);
    SparseSyndromeExtractor extractor;
    BatchSyndrome syndrome;
    extractor.extract(prog.detectors, 4, sim.record(), 64, syndrome);
    EXPECT_TRUE(syndrome.defects.empty());
    EXPECT_EQ(syndrome.nonzeroWords[0], 0u);
    EXPECT_EQ(syndrome.observableWords[0], 0u);
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

// ------------------------------------------ per-lane divergent fills

/** splitmix64's finalizer: the deterministic hash behind the per-lane
 *  fills and the replay digests below. */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

uint64_t
mix64(uint64_t a, uint64_t b, uint64_t c)
{
    return mix64(mix64(mix64(a) ^ b) ^ c);
}

/** An ERASER-shaped schedule for one lane and round: each stabilizer
 *  is LRC'd with probability 1/`one_in`, through a hash-chosen support
 *  qubit no earlier pair of the lane uses. */
RoundPairs
sparseLanePairs(const CircuitProgram &prog, int round, int lane,
                int one_in)
{
    RoundPairs pairs;
    std::vector<uint8_t> taken(prog.numData, 0);
    for (int s = 0; s < prog.numStabs; ++s) {
        const uint64_t h = mix64((uint64_t)round, (uint64_t)lane,
                                 (uint64_t)s);
        if (h % (uint64_t)one_in != 0)
            continue;
        const int first = prog.supportOffset[s];
        const int weight = prog.supportOffset[s + 1] - first;
        const int d = prog.supportData[first + (int)((h >> 32) % weight)];
        if (!taken[d]) {
            taken[d] = 1;
            pairs.push_back({s, d});
        }
    }
    return pairs;
}

/**
 * One round's fill built from per-lane schedules the way the
 * experiment layer merges them: per 64-lane block, the distinct
 * (stab, data) tails in first-insertion (lane) order with their lane
 * masks; per stabilizer, the lanes whose plain readout a tail
 * replaces.
 */
template <int NW>
struct LaneFill
{
    std::vector<LaneWord<NW>> lrcOnStab;
    std::vector<IrLrcTail> blockTails[NW];

    void
    build(const CircuitProgram &prog,
          const std::vector<RoundPairs> &lane_pairs)
    {
        lrcOnStab.assign(prog.numStabs, LaneWord<NW>{});
        for (auto &tails : blockTails)
            tails.clear();
        for (size_t l = 0; l < lane_pairs.size(); ++l) {
            std::vector<IrLrcTail> &tails = blockTails[l / 64];
            const uint64_t bit = uint64_t{1} << (l % 64);
            for (const auto &[stab, data] : lane_pairs[l]) {
                setLane(lrcOnStab[stab], (int)l);
                auto it = std::find_if(
                    tails.begin(), tails.end(), [&](const IrLrcTail &t) {
                        return t.stab == stab && t.data == data;
                    });
                if (it == tails.end())
                    tails.push_back({stab, data, bit});
                else
                    it->mask |= bit;
            }
        }
    }

    ProgramLrcFillT<NW>
    view(bool multi_level) const
    {
        ProgramLrcFillT<NW> fill;
        fill.lrcOnStab = lrcOnStab.data();
        fill.blockTails = blockTails;
        fill.multiLevel = multi_level;
        return fill;
    }

    /** The pairs lane `l` runs, in the order its block replays them. */
    RoundPairs
    laneOrder(int l) const
    {
        RoundPairs pairs;
        for (const IrLrcTail &t : blockTails[l / 64])
            if (t.mask >> (l % 64) & 1)
                pairs.push_back({t.stab, t.data});
        return pairs;
    }
};

/**
 * The scalar oracle's image of one replayed round for one lane that
 * runs `pairs` (in replay order): readouts its tails replace are
 * skipped under SwapLrc, and with `multi_level` a tail whose data
 * readout is labelled |L> squashes its MOV-back and resets the parity
 * qubit instead, decided by this lane's own label.
 */
void
oracleRound(FrameSimulator &o, const CircuitProgram &prog, int round,
            const RoundPairs &pairs, bool multi_level)
{
    for (size_t i = prog.bodyBegin; i < prog.bodyEnd; ++i) {
        const IrInst &inst = prog.instrs[i];
        if (inst.op == IrOpcode::Gate) {
            o.execute(prog.pool[inst.a]);
        } else if (inst.op == IrOpcode::Readout) {
            bool lrcd = false;
            for (const auto &pair : pairs)
                lrcd |= pair.first == inst.a;
            if (prog.maskReadoutOnLrc && lrcd)
                continue;
            Op meas = prog.pool[inst.b];
            meas.round = round;
            o.execute(meas);
            o.execute(prog.pool[(size_t)inst.b + 1]);
        } else if (inst.op == IrOpcode::LrcSlot && inst.a == 0) {
            for (const auto &[stab, data] : pairs) {
                const int parity = prog.stabAncilla[stab];
                if (prog.tail == IrTailKind::Dqlr) {
                    o.execute(makeOp(OpType::LeakageIswap, data, parity));
                    o.execute(makeOp(OpType::Reset, parity));
                    continue;
                }
                o.execute(makeOp(OpType::Cnot, data, parity));
                o.execute(makeOp(OpType::Cnot, parity, data));
                o.execute(makeOp(OpType::Cnot, data, parity));
                Op meas = makeOp(OpType::Measure, data);
                meas.stab = stab;
                meas.round = round;
                meas.lrcData = true;
                o.execute(meas);
                const bool squash =
                    multi_level && o.record().back().leakedLabel;
                o.execute(makeOp(OpType::Reset, data));
                if (squash) {
                    o.execute(makeOp(OpType::Reset, parity));
                } else {
                    o.execute(makeOp(OpType::Cnot, parity, data));
                    o.execute(makeOp(OpType::Cnot, data, parity));
                }
            }
        }
    }
}

/**
 * Engine vs oracle through the real replay with per-lane sparse fills
 * (so one block-tail mixes clean lanes with faulted ones) at p = 0.
 * Before each round a third of the lanes take a fault aimed at one of
 * their own tails: leakage or a Pauli on its data or parity qubit.
 */
template <int NW>
void
expectSparseReplayMatchesOracle(const CircuitProgram &prog, int lanes,
                                const ErrorModel &em, bool multi_level)
{
    const uint64_t seed = 777;
    BatchFrameSimulatorT<NW> sim(prog.numQubits, em, lanes, seed, 0);
    sim.bindProgramStreams(prog);
    const LaneWord<NW> live = sim.liveMask();
    std::vector<FrameSimulator> oracle = oracleSims(prog, lanes, seed, em);
    std::vector<RoundPairs> lane_pairs(lanes);
    LaneFill<NW> fill;
    for (int r = 0; r < prog.rounds; ++r) {
        for (int l = 0; l < lanes; ++l)
            lane_pairs[l] = sparseLanePairs(prog, r, l, 4);
        fill.build(prog, lane_pairs);
        for (int l = 0; l < lanes; ++l) {
            const uint64_t h = mix64((uint64_t)r, (uint64_t)l, 99);
            if (h % 3 != 0 || lane_pairs[l].empty())
                continue;
            const auto &[stab, data] =
                lane_pairs[l][(h >> 8) % lane_pairs[l].size()];
            const int q = (h >> 16) & 1 ? data : prog.stabAncilla[stab];
            const int kind = (int)((h >> 24) % 4);
            LaneWord<NW> lane{};
            setLane(lane, l);
            if (kind == 3) {
                sim.setLeaked(q, true, lane);
                oracle[l].setLeaked(q, true);
            } else {
                sim.injectPauli(q, kFaultPaulis[kind], lane);
                oracle[l].injectPauli(q, kFaultPaulis[kind]);
            }
        }
        const ProgramLrcFillT<NW> view = fill.view(multi_level);
        sim.executeProgramRound(prog, r, live, &view, 1);
        for (int l = 0; l < lanes; ++l)
            oracleRound(oracle[l], prog, r, fill.laneOrder(l),
                        multi_level);
        expectPlanesMatch(sim, oracle, "sparse replay", (size_t)r);
        if (::testing::Test::HasFatalFailure())
            return;
    }
    sim.executeProgramFinal(prog, live);
    std::vector<size_t> final_start;
    const std::vector<ProgramStep> final_steps =
        flattenProgram(prog, std::vector<RoundPairs>(prog.rounds),
                       final_start);
    for (FrameSimulator &o : oracle)
        for (size_t i = final_start.back(); i < final_steps.size(); ++i)
            o.execute(final_steps[i].op);
    expectPlanesMatch(sim, oracle, "sparse replay final", 0);
    expectRecordsMatch(sim, oracle, "sparse replay");
}

void
expectSparseReplayMatchesOracleAtWidths(IrTailKind tail,
                                        bool multi_level)
{
    RotatedSurfaceCode code(3);
    const CircuitProgram prog =
        CircuitCompiler::surfaceMemory(code, 6, Basis::Z, tail);
    for (const ErrorModel &em :
         {ErrorModel::noiseless(), ErrorModel::standard(0.0)}) {
        SCOPED_TRACE(em.leakageEnabled ? "leakage on" : "noiseless");
        for (int lanes : {17, 64}) {
            SCOPED_TRACE("lanes " + std::to_string(lanes));
            expectSparseReplayMatchesOracle<1>(prog, lanes, em,
                                               multi_level);
        }
        SCOPED_TRACE("lanes 257");
        expectSparseReplayMatchesOracle<8>(prog, 257, em, multi_level);
    }
}

TEST(EngineOracle, SparseFillsMatchScalarLaneByLane)
{
    for (IrTailKind tail : {IrTailKind::SwapLrc, IrTailKind::Dqlr}) {
        SCOPED_TRACE(tail == IrTailKind::Dqlr ? "DQLR" : "swap-LRC");
        expectSparseReplayMatchesOracleAtWidths(tail, false);
    }
}

TEST(EngineOracle, MultiLevelSquashFollowsEachLanesLabel)
{
    // ERASER+M: each lane's oracle squashes the MOV-back on its own
    // |L> label, which the leaked-data faults above produce.
    expectSparseReplayMatchesOracleAtWidths(IrTailKind::SwapLrc, true);
}

// ------------------------------------------------- tail kernel pins

/**
 * Replay with a dense divergent fill — lane l pairs every stabilizer
 * with support qubit l mod its weight, so every support pair is a
 * tail of every block — allocates nothing once the program is bound
 * and the record holds one round's bound: a plain readout per
 * stabilizer plus, per block, one entry per support pair.
 */
template <int NW>
void
expectTailReplayAllocatesNothing(const CircuitProgram &prog, int lanes)
{
    std::vector<RoundPairs> lane_pairs(lanes);
    for (int l = 0; l < lanes; ++l)
        for (int s = 0; s < prog.numStabs; ++s) {
            const int first = prog.supportOffset[s];
            const int weight = prog.supportOffset[s + 1] - first;
            lane_pairs[l].push_back(
                {s, prog.supportData[first + l % weight]});
        }
    LaneFill<NW> fill;
    fill.build(prog, lane_pairs);
    const int pairs = prog.supportOffset[prog.numStabs];
    BatchFrameSimulatorT<NW> sim(prog.numQubits,
                                 ErrorModel::standard(1e-2), lanes, 5, 0);
    for (int b = 0; b < sim.numBlocks(); ++b)
        ASSERT_EQ((int)fill.blockTails[b].size(), pairs);
    ASSERT_GT(pairs, prog.numStabs);

    for (bool multi_level : {false, true}) {
        SCOPED_TRACE(multi_level ? "multi-level" : "two-level");
        const ProgramLrcFillT<NW> view = fill.view(multi_level);
        sim.reset();
        sim.bindProgramStreams(prog);
        sim.reserveRecord((size_t)prog.numStabs +
                          (size_t)sim.numBlocks() * pairs);
        const uint64_t before = g_allocations.load();
        for (int r = 0; r < prog.rounds; ++r) {
            sim.executeProgramRound(prog, r, sim.liveMask(), &view, 1);
            sim.clearRecord();
        }
        EXPECT_EQ(g_allocations.load(), before);
    }
}

/**
 * The clean-lane closed form against the scalar op sequence for every
 * Pauli frame on the pair: a program whose round body is only the LRC
 * slot (data qubit 0, parity qubit 1), so no readout resets the
 * parity qubit first. Lane l carries frame bits (xD, zD, xP, zP) = the
 * low four bits of l; lanes 16-31 also leak D, lanes 32-47 leak P, and
 * lanes 48-63 are outside the tail's mask.
 */
TEST(TailKernel, BareSlotMatchesScalarForEveryFrame)
{
    RotatedSurfaceCode code(3);
    for (IrTailKind tail : {IrTailKind::SwapLrc, IrTailKind::Dqlr})
        for (bool multi_level : {false, true}) {
            SCOPED_TRACE(tail == IrTailKind::Dqlr ? "DQLR" : "swap-LRC");
            SCOPED_TRACE(multi_level ? "multi-level" : "two-level");
            CircuitProgram prog;
            prog.tail = tail;
            prog.rounds = 1;
            prog.numQubits = 2;
            prog.numData = 1;
            prog.numStabs = 1;
            prog.stabAncilla = {1};
            prog.supportOffset = {0, 1};
            prog.supportData = {0};
            prog.tailTemplates =
                CircuitCompiler::surfaceMemory(code, 1, Basis::Z, tail)
                    .tailTemplates;
            prog.instrs.push_back({IrOpcode::RoundBegin, 1, -1});
            prog.bodyBegin = prog.instrs.size();
            prog.instrs.push_back({IrOpcode::LrcSlot, 0, -1});
            prog.bodyEnd = prog.instrs.size();
            prog.instrs.push_back({IrOpcode::RoundEnd, -1, -1});

            for (const ErrorModel &em :
                 {ErrorModel::noiseless(), ErrorModel::standard(0.0)}) {
                BatchFrameSimulator sim(2, em, 64, 31, 0);
                std::vector<FrameSimulator> oracle =
                    oracleSims(prog, 64, 31, em);
                for (int l = 0; l < 64; ++l) {
                    const uint64_t lane = uint64_t{1} << l;
                    for (int k = 0; k < 4; ++k) {
                        if (!(l >> k & 1))
                            continue;
                        const int q = k / 2;
                        const Pauli p = k % 2 ? Pauli::Z : Pauli::X;
                        sim.injectPauli(q, p, lane);
                        oracle[l].injectPauli(q, p);
                    }
                    const int leak = l < 16 || l >= 48 ? -1 : l < 32 ? 0 : 1;
                    if (leak >= 0) {
                        sim.setLeaked(leak, true, lane);
                        oracle[l].setLeaked(leak, true);
                    }
                }
                LaneFill<1> fill;
                std::vector<RoundPairs> lane_pairs(64);
                for (int l = 0; l < 48; ++l)
                    lane_pairs[l] = {{0, 0}};
                fill.build(prog, lane_pairs);
                const ProgramLrcFillT<1> view = fill.view(multi_level);
                sim.executeProgramRound(prog, 0, sim.liveMask(), &view, 1);
                for (int l = 0; l < 64; ++l)
                    oracleRound(oracle[l], prog, 0, lane_pairs[l],
                                multi_level);
                expectPlanesMatch(sim, oracle, "bare slot", 0);
                expectRecordsMatch(sim, oracle, "bare slot");
            }
        }
}

TEST(TailKernel, DenseDivergentReplayAllocatesNothing)
{
    RotatedSurfaceCode code(5);
    for (IrTailKind tail : {IrTailKind::SwapLrc, IrTailKind::Dqlr}) {
        SCOPED_TRACE(tail == IrTailKind::Dqlr ? "DQLR" : "swap-LRC");
        const CircuitProgram prog =
            CircuitCompiler::surfaceMemory(code, 5, Basis::Z, tail);
        expectTailReplayAllocatesNothing<1>(prog, 64);
        expectTailReplayAllocatesNothing<4>(prog, 256);
    }
}

/** Folds one lane set into a digest, block word by block word. */
template <int NW>
uint64_t
digestLanes(uint64_t h, const LaneWord<NW> &w, int blocks)
{
    for (int b = 0; b < blocks; ++b)
        h = mix64(h ^ laneWord(w, b));
    return h;
}

/** Folds the X, Z and leak planes and the record entries since `from`
 *  into a digest. */
template <int NW>
uint64_t
digestState(uint64_t h, const BatchFrameSimulatorT<NW> &sim, size_t from)
{
    const int blocks = sim.numBlocks();
    for (int q = 0; q < sim.numQubits(); ++q) {
        h = digestLanes<NW>(h, sim.xWord(q), blocks);
        h = digestLanes<NW>(h, sim.zWord(q), blocks);
        h = digestLanes<NW>(h, sim.leakedWord(q), blocks);
    }
    for (size_t i = from; i < sim.record().size(); ++i) {
        const auto &rec = sim.record()[i];
        h = mix64(h, (uint64_t)rec.qubit << 32 | (uint32_t)rec.stab,
                  (uint64_t)rec.round << 2 | (uint64_t)rec.finalData << 1 |
                      (uint64_t)rec.lrcData);
        h = digestLanes<NW>(h, rec.mask, blocks);
        h = digestLanes<NW>(h, rec.flips, blocks);
        h = digestLanes<NW>(h, rec.leakedLabels, blocks);
    }
    return h;
}

/**
 * Digest of a noisy replay with per-lane fills: `sparse` gives each
 * lane its own ERASER-shaped schedule, otherwise every lane runs the
 * same Always-shaped one. Before each round, one lane in eight leaks
 * the data qubit of its first tail, so leaked operands, labelled
 * readouts and (with `multi_level`) squashes meet the tail hits.
 */
template <int NW>
uint64_t
tailReplayDigest(const CircuitProgram &prog, const ErrorModel &em,
                 int lanes, bool sparse, bool multi_level)
{
    BatchFrameSimulatorT<NW> sim(prog.numQubits, em, lanes, 20261017, 0);
    const LaneWord<NW> live = sim.liveMask();
    const std::vector<RoundPairs> full = fixedLrcPairs(prog);
    std::vector<RoundPairs> lane_pairs(lanes);
    LaneFill<NW> fill;
    uint64_t h = 0;
    for (int r = 0; r < prog.rounds; ++r) {
        for (int l = 0; l < lanes; ++l)
            lane_pairs[l] =
                sparse ? sparseLanePairs(prog, r, l, 8) : full[r];
        fill.build(prog, lane_pairs);
        for (int l = 0; l < lanes; ++l) {
            if (mix64((uint64_t)r, (uint64_t)l, 7) % 8 != 0 ||
                lane_pairs[l].empty())
                continue;
            LaneWord<NW> lane{};
            setLane(lane, l);
            sim.setLeaked(lane_pairs[l][0].second, true, lane);
        }
        const ProgramLrcFillT<NW> view = fill.view(multi_level);
        sim.executeProgramRound(prog, r, live, &view, 1);
        h = digestState(h, sim, 0);
        sim.clearRecord();
    }
    sim.executeProgramFinal(prog, live);
    return digestState(h, sim, 0);
}

/**
 * Bit-identity pin of the divergent tails with noise on: the replay
 * digests (planes and record entries, round by round) recorded with
 * the op-by-op tail interpreter. EngineOracle runs at p = 0, so this
 * is what pins tail lanes that take hit-table hits.
 */
TEST(TailKernel, ReplayDigestsMatchParent)
{
    struct Pin
    {
        IrTailKind tail;
        bool multiLevel;
        int lanes;
        double p;
        uint64_t sparse;
        uint64_t full;
    };
    constexpr IrTailKind kSwap = IrTailKind::SwapLrc;
    constexpr IrTailKind kDqlr = IrTailKind::Dqlr;
    const Pin pins[] = {
        {kSwap, false, 64, 1e-3, 0x91b4357ac506bedcULL,
         0xdcd6204e5c2f7b1cULL},
        {kSwap, false, 64, 2e-2, 0xd61d75f9f32b9c92ULL,
         0x1fa4de7bdb4e28b9ULL},
        {kSwap, false, 256, 1e-3, 0x21c23ee86b48cbaeULL,
         0x5038740449ed5c1eULL},
        {kSwap, false, 256, 2e-2, 0xb622443789a1f4c1ULL,
         0xf909a0fb525fb162ULL},
        {kSwap, false, 512, 1e-3, 0x8d9aa30629483395ULL,
         0xccef0dcba4c3cd8bULL},
        {kSwap, false, 512, 2e-2, 0x4cbe59a5d345a945ULL,
         0xa847711336c30cd1ULL},
        {kSwap, false, 257, 1e-3, 0x791965fa42e15fa9ULL,
         0x272a733cf0929124ULL},
        {kSwap, false, 257, 2e-2, 0x2e9a95ac4c068f8bULL,
         0x65c38946311fcefeULL},
        {kSwap, true, 64, 1e-3, 0x7d9ecc3c2954f5aeULL,
         0x57aff72b650419dcULL},
        {kSwap, true, 64, 2e-2, 0x550f737628bdf330ULL,
         0xfb3693889bdf935eULL},
        {kSwap, true, 256, 1e-3, 0xa9981ef9cd0cbc07ULL,
         0x462ad4630ab6944dULL},
        {kSwap, true, 256, 2e-2, 0xcc5c2db198005e3eULL,
         0x5a249e4f52b3c004ULL},
        {kSwap, true, 512, 1e-3, 0x95abe4f852f7af5fULL,
         0x13c19f16213f571bULL},
        {kSwap, true, 512, 2e-2, 0x80e295a7c738c023ULL,
         0x8252af965c463999ULL},
        {kSwap, true, 257, 1e-3, 0x933fd10c3d83735aULL,
         0x60b8b2c017f9b52cULL},
        {kSwap, true, 257, 2e-2, 0x6dfe98a04b26d1edULL,
         0x6effd9b29c345bcbULL},
        {kDqlr, false, 64, 1e-3, 0x0ff4c3a59bbc6a04ULL,
         0x2a902d30de79e7e0ULL},
        {kDqlr, false, 64, 2e-2, 0xf4720a66b6c17f05ULL,
         0xab7df3be297856f7ULL},
        {kDqlr, false, 256, 1e-3, 0x8c901783556a1de1ULL,
         0x2a8d7f61c93f54e4ULL},
        {kDqlr, false, 256, 2e-2, 0x7c8fe907c3d986a0ULL,
         0x72df506e219123b5ULL},
        {kDqlr, false, 512, 1e-3, 0x8c7150c73cadcd61ULL,
         0x986edc9c2251b7aaULL},
        {kDqlr, false, 512, 2e-2, 0x39fc96aa3a473545ULL,
         0x3631d07f407060a2ULL},
        {kDqlr, false, 257, 1e-3, 0xf1a9b411e1a2905fULL,
         0x9063bb19fa6a4aa5ULL},
        {kDqlr, false, 257, 2e-2, 0xe74b2d2a506baaffULL,
         0xeedf3fa9a39f8467ULL},
        {kDqlr, true, 64, 1e-3, 0x0ff4c3a59bbc6a04ULL,
         0x2a902d30de79e7e0ULL},
        {kDqlr, true, 64, 2e-2, 0xf4720a66b6c17f05ULL,
         0xab7df3be297856f7ULL},
        {kDqlr, true, 256, 1e-3, 0x8c901783556a1de1ULL,
         0x2a8d7f61c93f54e4ULL},
        {kDqlr, true, 256, 2e-2, 0x7c8fe907c3d986a0ULL,
         0x72df506e219123b5ULL},
        {kDqlr, true, 512, 1e-3, 0x8c7150c73cadcd61ULL,
         0x986edc9c2251b7aaULL},
        {kDqlr, true, 512, 2e-2, 0x39fc96aa3a473545ULL,
         0x3631d07f407060a2ULL},
        {kDqlr, true, 257, 1e-3, 0xf1a9b411e1a2905fULL,
         0x9063bb19fa6a4aa5ULL},
        {kDqlr, true, 257, 2e-2, 0xe74b2d2a506baaffULL,
         0xeedf3fa9a39f8467ULL},
    };
    RotatedSurfaceCode code(5);
    for (IrTailKind tail : {kSwap, kDqlr})
        for (bool multi_level : {false, true})
            for (int lanes : {64, 256, 512, 257})
                for (double p : {1e-3, 2e-2}) {
                    const CircuitProgram prog =
                        CircuitCompiler::surfaceMemory(code, 6, Basis::Z,
                                                       tail);
                    const ErrorModel em = ErrorModel::standard(p);
                    uint64_t got[2];
                    for (bool sparse : {true, false}) {
                        uint64_t &g = got[sparse ? 0 : 1];
                        if (lanes == 64)
                            g = tailReplayDigest<1>(prog, em, lanes,
                                                    sparse, multi_level);
                        else if (lanes == 256)
                            g = tailReplayDigest<4>(prog, em, lanes,
                                                    sparse, multi_level);
                        else
                            g = tailReplayDigest<8>(prog, em, lanes,
                                                    sparse, multi_level);
                    }
                    const Pin *pin = nullptr;
                    for (const Pin &c : pins)
                        if (c.tail == tail && c.multiLevel == multi_level &&
                            c.lanes == lanes && c.p == p)
                            pin = &c;
                    char line[160];
                    std::snprintf(line, sizeof line,
                                  "{%s, %s, %d, %g, 0x%016llxULL, "
                                  "0x%016llxULL},",
                                  tail == kSwap ? "kSwap" : "kDqlr",
                                  multi_level ? "true" : "false", lanes, p,
                                  (unsigned long long)got[0],
                                  (unsigned long long)got[1]);
                    if (!pin) {
                        ADD_FAILURE() << "unpinned " << line;
                        continue;
                    }
                    EXPECT_EQ(pin->sparse, got[0]) << line;
                    EXPECT_EQ(pin->full, got[1]) << line;
                }
}

// ---------------------------------------------- compiled round replay

/**
 * Rounds replayed through the compiled run kernels against the same
 * body ops issued one at a time through execute(), compared by the
 * digest of their planes and record entries. The hit-table walk is
 * chunking-invariant, so both see the same hits. One (qubit, lane)
 * pair in sixteen starts leaked, so every CNOT layer has lanes with a
 * leaked operand.
 */
template <int NW>
void
expectCompiledRoundsMatchOpByOp(const CircuitProgram &prog,
                                const ErrorModel &em, int lanes)
{
    BatchFrameSimulatorT<NW> compiled(prog.numQubits, em, lanes, 4242, 0);
    BatchFrameSimulatorT<NW> op_by_op(prog.numQubits, em, lanes, 4242, 0);
    for (int q = 0; q < prog.numQubits; ++q) {
        LaneWord<NW> leak{};
        for (int l = 0; l < lanes; ++l)
            if (mix64((uint64_t)q, (uint64_t)l, 5) % 16 == 0)
                setLane(leak, l);
        compiled.setLeaked(q, true, leak);
        op_by_op.setLeaked(q, true, leak);
    }
    for (int r = 0; r < prog.rounds; ++r) {
        compiled.executeProgramRound(prog, r, compiled.liveMask());
        for (size_t i = prog.bodyBegin; i < prog.bodyEnd; ++i) {
            const IrInst &inst = prog.instrs[i];
            if (inst.op == IrOpcode::Gate) {
                op_by_op.execute(prog.pool[inst.a]);
            } else if (inst.op == IrOpcode::Readout) {
                Op meas = prog.pool[inst.b];
                meas.round = r;
                op_by_op.execute(meas);
                op_by_op.execute(prog.pool[(size_t)inst.b + 1]);
            }
        }
        EXPECT_EQ(digestState<NW>(0, compiled, 0),
                  digestState<NW>(0, op_by_op, 0))
            << "round " << r;
        compiled.clearRecord();
        op_by_op.clearRecord();
    }
}

/** At d=11 (CNOT layers of ~110 ops), on full, wide and ragged groups,
 *  with rare and dense walks and both transport models. */
TEST(CompiledRound, ReplayMatchesOpByOpExecution)
{
    RotatedSurfaceCode code(11);
    const CircuitProgram prog = CircuitCompiler::surfaceMemory(
        code, 3, Basis::Z, IrTailKind::SwapLrc);
    for (TransportModel transport :
         {TransportModel::Conservative, TransportModel::Exchange})
        for (double p : {1e-3, 2e-2}) {
            ErrorModel em = ErrorModel::standard(p);
            em.transport = transport;
            SCOPED_TRACE("p=" + std::to_string(p) +
                         (transport == TransportModel::Exchange
                              ? " exchange"
                              : " conservative"));
            expectCompiledRoundsMatchOpByOp<1>(prog, em, 64);
            expectCompiledRoundsMatchOpByOp<4>(prog, em, 256);
            expectCompiledRoundsMatchOpByOp<8>(prog, em, 257);
        }
}

/** Whole-program replay (executeProgram: every LRC slot empty) against
 *  the lattice-walked memory circuit run op by op through
 *  executeRange: the same record entries in the same order, and the
 *  same final planes. Post-selection replays the program, so this is
 *  what keeps its results those of the op-level circuit. */
template <int NW>
void
expectProgramMatchesOpLevelCircuit(const RotatedSurfaceCode &code,
                                   int rounds, Basis basis,
                                   const ErrorModel &em, int lanes)
{
    const CircuitProgram prog = CircuitCompiler::surfaceMemory(
        code, rounds, basis, IrTailKind::SwapLrc);
    const Circuit circuit = buildMemoryCircuit(code, rounds, basis);
    BatchFrameSimulatorT<NW> replayed(prog.numQubits, em, lanes, 913, 64);
    BatchFrameSimulatorT<NW> op_level(prog.numQubits, em, lanes, 913, 64);
    replayed.executeProgram(prog);
    op_level.executeRange(circuit.ops.data(),
                          circuit.ops.data() + circuit.ops.size());

    const auto &got = replayed.record();
    const auto &want = op_level.record();
    ASSERT_EQ(got.size(), want.size());
    const int blocks = replayed.numBlocks();
    for (size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE("record " + std::to_string(i));
        ASSERT_EQ(got[i].qubit, want[i].qubit);
        ASSERT_EQ(got[i].stab, want[i].stab);
        ASSERT_EQ(got[i].round, want[i].round);
        ASSERT_EQ(got[i].finalData, want[i].finalData);
        ASSERT_EQ(got[i].lrcData, want[i].lrcData);
        for (int b = 0; b < blocks; ++b) {
            ASSERT_EQ(laneWord(got[i].mask, b), laneWord(want[i].mask, b));
            ASSERT_EQ(laneWord(got[i].flips, b),
                      laneWord(want[i].flips, b));
            ASSERT_EQ(laneWord(got[i].leakedLabels, b),
                      laneWord(want[i].leakedLabels, b));
        }
    }
    EXPECT_EQ(digestState<NW>(0, replayed, got.size()),
              digestState<NW>(0, op_level, want.size()));
}

/** W = 64/256/300 (300: ragged multi-word), p = 1e-3/2e-2, both
 *  transport models and both bases. */
TEST(CompiledRound, ExecuteProgramMatchesOpLevelCircuit)
{
    const RotatedSurfaceCode code(5);
    for (TransportModel transport :
         {TransportModel::Conservative, TransportModel::Exchange})
        for (double p : {1e-3, 2e-2})
            for (Basis basis : {Basis::Z, Basis::X}) {
                ErrorModel em = ErrorModel::standard(p);
                em.transport = transport;
                SCOPED_TRACE("p=" + std::to_string(p) +
                             (transport == TransportModel::Exchange
                                  ? " exchange"
                                  : " conservative") +
                             (basis == Basis::Z ? " Z" : " X"));
                expectProgramMatchesOpLevelCircuit<1>(code, 7, basis, em,
                                                      64);
                expectProgramMatchesOpLevelCircuit<4>(code, 7, basis, em,
                                                      256);
                expectProgramMatchesOpLevelCircuit<8>(code, 7, basis, em,
                                                      300);
            }
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
