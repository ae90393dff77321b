/**
 * @file
 * Bit-packed batched Pauli-frame simulator: W shots per plane word.
 *
 * Where FrameSimulator stores one byte per qubit per flag and runs one
 * shot at a time, this engine packs up to W = NW*64 shots ("lanes")
 * into one NW-word plane per qubit per bit-plane (X frame, Z frame,
 * leaked) — the bulk Pauli-frame layout popularized by Stim, extended
 * here to width-generic SIMD words (see base/simd_word.h). Static
 * circuit structure — CNOT frame propagation, Hadamard plane swaps,
 * resets — executes as a handful of vector word ops for all lanes at
 * once; noise is sampled as Bernoulli *masks* via BernoulliMaskSampler,
 * so at p = 1e-3 the cost of a noisy location is amortized across the
 * whole word-group.
 *
 * Randomness is streamed per 64-lane *block*: block b of a word-group
 * starting at shot S owns the mask-sampler/raw-bit streams a 64-lane
 * group starting at shot S + 64*b would own, and every draw is gated
 * on the block exactly as the 64-lane engine gates it on its whole
 * word. A W = 256/512 run is therefore bit-for-bit the concatenation
 * of its W = 64 sub-runs — the cross-width differential anchor the
 * tests pin — and NW = 1 instantiates with plain uint64_t lane sets,
 * reproducing the pre-SIMD engine exactly.
 *
 * Leakage breaks pure lockstep: ERASER adapts each shot's LRC schedule
 * from that shot's own syndrome, and leaked qubits respond to gates
 * differently per lane. Divergence is handled two ways:
 *
 *  - Within an op, leakage-dependent behaviour becomes masked word
 *    arithmetic (e.g. a CNOT propagates frames on the both-clean lane
 *    set and randomizes the clean operand on the exactly-one-leaked
 *    set). Rare per-lane events (depolarizing hits, seepage returns)
 *    fall back to per-lane draws from lane-split RNG streams.
 *  - Across ops, every execute() takes a lane-activation mask, so the
 *    experiment layer can run policy-divergent LRC/DQLR insertions
 *    only on the lanes whose policies scheduled them.
 *
 * A group of any lane count, down to one, is an ordinary sequence of
 * 64-lane blocks whose last block may be ragged; a 1-lane group is
 * simply a 1-lane block with its own block and lane streams. The
 * scalar FrameSimulator is not involved: it stays a test oracle for
 * the op semantics (tests/test_batch_sim.cpp compares the two lane by
 * lane).
 */

#ifndef QEC_SIM_BATCH_FRAME_SIMULATOR_H
#define QEC_SIM_BATCH_FRAME_SIMULATOR_H

#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "base/simd_word.h"
#include "code/circuit.h"
#include "code/circuit_ir.h"
#include "code/types.h"
#include "sim/bit_mask_sampler.h"
#include "sim/error_model.h"

namespace qec
{

/** One measurement across all lanes: per-lane outcome bits packed into
 *  plane words, plus the lane set for which the measurement happened. */
template <int NW>
struct BatchMeasureRecordT
{
    using Lane = LaneWord<NW>;

    int qubit = -1;
    int stab = -1;            ///< Stabilizer reported (-1 for finals).
    int round = -1;
    bool finalData = false;
    bool lrcData = false;     ///< Data qubit measured for an LRC.
    Lane mask{};              ///< Lanes that executed this measurement.
    Lane flips{};             ///< Flip bits; zero outside `mask`.
    Lane leakedLabels{};      ///< |L> labels; zero outside `mask`.
};

/** The pre-SIMD 64-lane record layout (uint64_t lane sets). */
using BatchMeasureRecord = BatchMeasureRecordT<1>;

/**
 * What the controller supplies for one LRC-slot id when a program
 * round is replayed: the per-stabilizer plane of lanes whose plain
 * readout the slot replaces, and the divergent tails per 64-lane
 * block (first-insertion order — the cross-width bit-identity
 * anchor). An empty fill (both pointers null) leaves the branch
 * untaken, which is also what a slot id without a fill gets.
 */
template <int NW>
struct ProgramLrcFillT
{
    using Lane = LaneWord<NW>;

    /** [numStabs] planes, or null when nothing was scheduled. */
    const Lane *lrcOnStab = nullptr;
    /** [numBlocks()] tail lists, or null. */
    const std::vector<IrLrcTail> *blockTails = nullptr;
    /** Multi-level readout: squash the MOV-back on |L> labels. */
    bool multiLevel = false;
};

/**
 * Executes circuits over W parallel shots packed NW words deep. Lane l
 * simulates global shot `first_shot + l` of the experiment identified
 * by `seed`. One instance per word-group; not thread-safe across
 * word-groups.
 */
template <int NW>
class BatchFrameSimulatorT
{
  public:
    using Lane = LaneWord<NW>;
    using Record = BatchMeasureRecordT<NW>;

    /** Plane words per lane set. */
    static constexpr int kWords = NW;
    /** Maximum lanes per word-group at this width. */
    static constexpr int kMaxLanes = NW * 64;

    BatchFrameSimulatorT(int num_qubits, const ErrorModel &em,
                         int num_lanes, uint64_t seed,
                         uint64_t first_shot);

    // The samplers hold pointers into this object's per-block RNGs;
    // copies would keep drawing from (and later dangle on) the
    // source's streams.
    BatchFrameSimulatorT(const BatchFrameSimulatorT &) = delete;
    BatchFrameSimulatorT & operator=(const BatchFrameSimulatorT &)
        = delete;

    /** Clear frames, leakage and the measurement record. */
    void reset();

    /** Execute one operation on a subset of lanes. */
    void execute(const Op &op, const Lane &mask);
    /** Execute one operation on all live lanes. */
    void execute(const Op &op) { execute(op, live_); }

    /**
     * Execute one operation on lanes of a single 64-lane block — the
     * fast path for policy-divergent LRC/DQLR tails, whose masks
     * never span blocks. Operates on plane word `block` only (word
     * arithmetic at any NW) while consuming exactly the draws the
     * full-width execute would consume for a mask confined to that
     * block, so results are bit-identical; record entries still carry
     * full-width lane sets. Ops outside the tail repertoire fall back
     * to the full-width path.
     */
    void executeBlock(const Op &op, int block, uint64_t mask);

    /** Execute a span of operations on a subset of lanes. */
    void executeRange(const Op *begin, const Op *end, const Lane &mask);
    void
    executeRange(const Op *begin, const Op *end)
    {
        executeRange(begin, end, live_);
    }

    /**
     * Replay one round of a compiled program on the masked lanes:
     * Gate instructions run verbatim through execute(), Readout
     * instructions stamp their pool Measure with `round` (masking off
     * LRC'd lanes when the program replaces plain readouts), and each
     * LrcSlot branch expands the fill registered under its slot id
     * (`fills[id]`, ids >= num_fills stay empty). Draw-for-draw
     * identical to the hand-wired round drivers this replaces.
     */
    void executeProgramRound(const CircuitProgram &prog, int round,
                             const Lane &mask,
                             const ProgramLrcFillT<NW> *fills = nullptr,
                             int num_fills = 0);

    /** Replay the program's final transversal measurement. */
    void executeProgramFinal(const CircuitProgram &prog,
                             const Lane &mask);

    /**
     * Replay a whole program on all live lanes with every LRC-slot
     * branch left empty: all rounds, then the final measurement.
     * Protocols without adaptive control (repetition memory, plain
     * surface memory) run entirely through this loop.
     */
    void executeProgram(const CircuitProgram &prog);

    /**
     * RareStream id for probability p, creating the stream if absent
     * (-1 when p is outside the rare-sampled range). Streams are
     * keyed by probability only and initialized lazily per 64-lane
     * block, so registration order cannot change draw content — ids
     * exist so program replay can pin every noise channel's stream up
     * front instead of growing the stream list mid-round.
     */
    int noiseStreamId(double p);

    /** Pre-register RareStream ids for every noise channel the
     *  program's ops can draw under this simulator's error model. */
    void bindProgramStreams(const CircuitProgram &prog);

    const std::vector<Record> &
    record() const
    {
        return record_;
    }

    /** Pre-size the record so the round loop never reallocates it. */
    void
    reserveRecord(size_t measurements)
    {
        record_.reserve(record_.size() + measurements);
    }

    int numQubits() const { return numQubits_; }
    int numLanes() const { return numLanes_; }
    /** 64-lane blocks in this group (ceil(numLanes / 64)). */
    int numBlocks() const { return numBlocks_; }
    /** Lane set with one bit per live lane. */
    const Lane & liveMask() const { return live_; }

    /** Per-qubit plane words (bits above numLanes() are zero). */
    Lane xWord(int q) const;
    Lane zWord(int q) const;
    Lane leakedWord(int q) const;
    bool leaked(int q, int lane) const;

    /** Total leaked (qubit, lane) pairs in a qubit range. */
    uint64_t countLeaked(int first, int last) const;

    /** Test/DEM hook: XOR a Pauli into the frame on masked lanes. */
    void injectPauli(int q, Pauli p, const Lane &mask);
    /** Test hook: force leakage state on masked lanes. */
    void setLeaked(int q, bool leaked, const Lane &mask);

    const ErrorModel & errorModel() const { return em_; }

  private:
    void opDataNoise(int q, const Lane &mask);
    void opReset(int q, const Lane &mask);
    void opH(int q, const Lane &mask);
    void opCnot(int c, int t, const Lane &mask);
    void opLeakageIswap(int d, int p, const Lane &mask);
    void opMeasure(const Op &op, bool x_basis, const Lane &mask);

    void twoQubitNoise(int a, int b, const Lane &mask);
    void maybeLeak(int q, const Lane &mask);
    void maybeSeep(int q, const Lane &mask);
    /** Per-lane uniform {I,X,Y,Z} depolarizing on masked lanes. */
    void depolarizePerLane(int q, const Lane &mask);
    /** Random computational state relative to the reference. */
    void randomComputational(int q, const Lane &mask);

    // Single-block (word-level) op bodies: the divergent-tail images
    // of the Lane-wide ops above, draw-for-draw identical to running
    // the Lane op with a mask confined to block `b`.
    /** One divergent LRC-slot tail on one 64-lane block. */
    void executeLrcTail(const CircuitProgram &prog, const IrLrcTail &t,
                        int b, int round, bool multi_level);

    void opResetB(int q, int b, uint64_t mask);
    void opCnotB(int c, int t, int b, uint64_t mask);
    void opLeakageIswapB(int d, int p, int b, uint64_t mask);
    void opMeasureB(const Op &op, bool x_basis, int b, uint64_t mask);
    void twoQubitNoiseB(int qa, int qb, int b, uint64_t mask);
    void maybeLeakB(int q, int b, uint64_t mask);
    void maybeSeepB(int q, int b, uint64_t mask);
    void depolarizePerLaneB(int q, int b, uint64_t mask);
    void randomComputationalB(int q, int b, uint64_t mask);
    /** Bernoulli(p) mask for block b, drawn iff `gate` is nonzero —
     *  the single-block image of drawWhere. */
    uint64_t drawBlockWhere(double p, int b, uint64_t gate);

    /**
     * Per-probability rare-event streams shared across the group's
     * blocks: one probability lookup per draw call, with each block's
     * geometric skip counter stored contiguously. Block b's counter
     * trajectory (and its Rng consumption) is exactly what a
     * standalone per-block BernoulliMaskSampler would produce — the
     * layout only removes the per-block stream-list scan from the hot
     * path, which is what made wide word-groups pay the sampler cost
     * once per block instead of once per draw.
     */
    struct RareStream
    {
        double p = 0.0;
        double log1mp = 0.0;
        uint64_t skip[NW];
        uint8_t inited[NW];
    };

    /**
     * Bernoulli(p) lane mask, drawn per 64-lane block and only on
     * blocks where `gate` has a set bit — the width-generic image of
     * the 64-lane engine's "draw iff this op ran / this condition
     * held for the word" structure. Blocks outside `gate` consume
     * nothing from their streams.
     */
    Lane drawWhere(double p, const Lane &gate);
    /** Raw uniform bits per block, gated like drawWhere. */
    Lane randBitsWhere(const Lane &gate);

    RareStream & rareStreamFor(double p);
    /** Rare-path mask for block b (cold path: a hit lands in-word). */
    uint64_t drawRareBlock(RareStream &stream, int b);
    /** Dense-path mask for block b (digit comparison on its Rng). */
    uint64_t drawDenseBlock(double p, int b);

    int numQubits_;
    int numLanes_;
    int numBlocks_;
    int blockLanes_[NW];      ///< Live lanes per 64-lane block.
    Lane live_;
    ErrorModel em_;
    /** Per-block group streams; block b draws what a 64-lane group at
     *  first_shot + 64*b would draw. */
    std::vector<Rng> blockRng_;
    std::vector<RareStream> rareStreams_;
    std::vector<Rng> laneRng_;
    std::vector<Lane> x_;
    std::vector<Lane> z_;
    std::vector<Lane> leaked_;
    std::vector<Record> record_;
};

/** The 64-lane engine (uint64_t lane sets, pre-SIMD layout). */
using BatchFrameSimulator = BatchFrameSimulatorT<1>;

extern template class BatchFrameSimulatorT<1>;
extern template class BatchFrameSimulatorT<4>;
extern template class BatchFrameSimulatorT<8>;

} // namespace qec

#endif // QEC_SIM_BATCH_FRAME_SIMULATOR_H
