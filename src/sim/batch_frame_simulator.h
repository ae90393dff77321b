/**
 * @file
 * Bit-packed batched Pauli-frame simulator: W shots per plane word.
 *
 * The library's one simulator. It packs up to W = NW*64 shots ("lanes")
 * into one NW-word plane per qubit per bit-plane (X frame, Z frame,
 * leaked) — the bulk Pauli-frame layout popularized by Stim, extended
 * here to width-generic SIMD words (see base/simd_word.h). Static
 * circuit structure — CNOT frame propagation, Hadamard plane swaps,
 * resets — executes as a handful of vector word ops for all lanes at
 * once.
 *
 * Randomness comes from two kinds of stream, and no draw depends on
 * which other lanes or blocks an op runs on:
 *
 *  - Fixed-probability noise (the depolarizing/flip channel at p, leak
 *    injection at leakFraction*p and seepage at seepFraction*p; see
 *    NoiseChannel) is read from per-block *hit tables*. Seepage acts
 *    only where its lane is leaked, so its trial is drawn on every lane
 *    and masked. Every 64-lane block owns one stream per channel; a
 *    stream is a fixed sequence of "sites" (one trial per lane each),
 *    and every noisy op consumes its sites in program order whether or
 *    not its mask covers the lane. A stream advances N sites at a time
 *    with one geometric walk over N x lanes trials (a dense per-site
 *    fill when p >= kRareThreshold): once per replayed round for the
 *    body, once per LRC slot on each block for that block's divergent
 *    tails, once for the final layer, and by one op's sites for
 *    op-level execute(). The walk is chunking-invariant, so the hits
 *    depend only on each block's site order — the Stim bulk-sampler
 *    idea with a per-round hit table in place of its rng_buffer.
 *  - State-conditional events (transport, the random Pauli a leaked
 *    CNOT partner receives, random readouts and multi-level label
 *    misses on leaked lanes, DQLR excitation, the random state a
 *    seeped qubit returns in, and the Pauli a depolarizing hit picks)
 *    are drawn per lane from that lane's own `Rng::forShot(seed, shot)`
 *    stream, in the order the scalar reference simulator of the tests
 *    (tests/frame_simulator.h) draws them (which matches it draw for
 *    draw when p = 0, since the reference also takes the
 *    fixed-probability trials from that stream).
 *
 * Block b of a word-group starting at shot S owns the channel streams a
 * 64-lane group starting at shot S + 64*b would own, so a W = 256/512
 * run is bit-for-bit the concatenation of its W = 64 sub-runs — the
 * cross-width differential anchor the tests pin — and a 1-lane group
 * is simply a 1-lane block.
 *
 * Leakage breaks pure lockstep: ERASER adapts each shot's LRC schedule
 * from that shot's own syndrome, and leaked qubits respond to gates
 * differently per lane. Divergence is handled two ways:
 *
 *  - Within an op, leakage-dependent behaviour becomes masked word
 *    arithmetic plus per-lane draws on the (rare) leaked lanes.
 *  - Across ops, every execute() takes a lane-activation mask, so the
 *    experiment layer can run policy-divergent LRC/DQLR insertions
 *    only on the lanes whose policies scheduled them. Each op body is
 *    written once against a word "view" and instantiated for the full
 *    group and for a single 64-lane block, so both apply the same
 *    per-lane rule.
 *  - A replayed LRC tail is one fused kernel per 64-lane block: lanes
 *    with no leaked operand and no Pauli or leak-injection hit among
 *    the tail's sites take a closed-form update (no draws), and only
 *    the remaining lanes run the tail's op bodies on the block view.
 *    Both consume the same sites, so the split is invisible in the
 *    streams.
 *
 * The round body is compiled, not interpreted: executeProgramRound
 * runs one kernel per run of the program's IrRunTable (ops of one
 * kind on pairwise-disjoint qubits, see code/circuit_ir.h). After the
 * round's advance, each channel's touched slots flag the ops that own
 * them; an op without a hit loads no hit slot. A CNOT run takes two
 * passes:
 *
 *  - Pass 1 updates the frames of every op on the lanes with no leaked
 *    operand, branch-free, and notes which ops have a leaked-operand
 *    lane. It draws nothing.
 *  - Pass 2 visits, in op order, the ops with a leaked-operand lane or
 *    a hit site, and runs their per-lane events as the op body orders
 *    them: leaked-operand draws, the Pauli choice, leak injection,
 *    then seepage on each operand.
 *
 * This is draw-for-draw the op-by-op order. Each op's pass 2 reads
 * only its own qubits, which no other op of the run touches, so the
 * other ops' frame updates moving ahead of it change nothing it sees;
 * and each lane's draws come from its own stream in op order, because
 * pass 1 draws nothing and pass 2 keeps op order. The same argument
 * covers H runs (a plane swap of every op, then depolarization of the
 * hit ops) and DataNoise runs (an op without a hit is a no-op, so only
 * hit ops run). Readout pairs run as one straight-line measure+reset
 * step each. tests/test_batch_sim.cpp (CompiledRound.*) holds the
 * kernels to the same ops issued one at a time through execute().
 *
 * A scalar one-shot-at-a-time simulator survives only as a test oracle
 * for the op semantics (tests/frame_simulator.h; tests/test_batch_sim.cpp
 * compares the two lane by lane).
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
 * Version of the engine's noise-sampling contract: which stream every
 * draw comes from and in what order. Checkpoint plan fingerprints fold
 * it in, so a sweep checkpoint written under an earlier contract is
 * refused instead of resumed with different streams. Bump it with any
 * change to the draw contract (and regenerate the golden corpus).
 */
constexpr uint64_t kNoiseContract = 2;

/** Hit-table sites one op, tail or layer consumes, per channel. */
struct NoiseSites
{
    int count[kNoiseChannels] = {};

    int of(NoiseChannel channel) const { return count[(int)channel]; }
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

    /** Clear frames, leakage and the measurement record. */
    void reset();

    /** Execute one operation on a subset of lanes, advancing every
     *  block's streams by the op's noise sites (consumed even when no
     *  lane is masked in). */
    void execute(const Op &op, const Lane &mask);
    /** Execute one operation on all live lanes. */
    void execute(const Op &op) { execute(op, live_); }

    /**
     * Execute one operation on lanes of a single 64-lane block, the
     * op-level image of an LRC-tail op: word arithmetic on plane word
     * `block` only (at any NW), advancing only that block's streams by
     * the op's sites. Record entries still carry full-width lane sets.
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
     * Replay one round of a compiled program on the masked lanes, run
     * by run of its IrRunTable: Gate runs execute their ops, Readout
     * runs stamp their records with `round` (masking off LRC'd lanes
     * when the program replaces plain readouts), and each LrcSlot
     * branch expands the fill registered under its slot id
     * (`fills[id]`, ids >= num_fills stay empty). The round body's
     * noise sites come from one advance of every block's streams, and
     * each slot's tails from one advance of their block's streams.
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
     * Bind the program's run table (the program's own, or a private
     * one compiled here when the program has none that matches), count
     * its unconditional noise sites per round body, per LRC tail and
     * for the final layer, and size the hit tables for them, so replay
     * never allocates. Program replay binds on first use; calling this
     * up front only moves the allocation.
     */
    void bindProgramStreams(const CircuitProgram &prog);

    /** Sites of the bound program (zero before any binding). */
    const NoiseSites & roundSites() const { return roundSites_; }
    const NoiseSites & tailSites() const { return tailSites_; }
    const NoiseSites & finalSites() const { return finalSites_; }

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

    /** Drop the measurement record, keeping its capacity. */
    void clearRecord() { record_.clear(); }

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
    /**
     * Hit lanes of consecutive sites of one advance. A slot holds one
     * site's hit lanes; an advance clears the slots the previous one
     * wrote, then walks the streams, so consuming a site is a plain
     * load.
     */
    template <class W>
    struct HitTable
    {
        std::vector<W> slots;
        /** Slots the last advance wrote (each at most once). */
        std::vector<int> touched;
        int filled = 0;
        int next = 0;

        W take() { return slots[next++]; }
        /** Grow to hold advances of up to n sites. */
        void reserve(int n);
        /** Clear the last advance and start one of n sites. */
        void start(int n);
        /** OR block word `word` of site s's hit lanes, in place. */
        void
        write(int s, int word, uint64_t bits)
        {
            if (!anyLane(slots[s]))
                touched.push_back(s);
            laneWordRef(slots[s], word) |= bits;
        }
    };

    /** One hit-table channel: a stream per 64-lane block and the
     *  tables its advances fill. */
    struct Channel
    {
        double p = 0.0;
        double log1mp = 0.0;
        Rng rng[NW];
        uint64_t skip[NW] = {}; ///< Rare path: misses before next hit.
        /** All blocks: a round body, the final layer or one op. */
        HitTable<Lane> group;
        /** One block: the LRC tails of one slot, or one block op. */
        HitTable<uint64_t> block;
    };

    /** Word view over all lanes (Word = Lane, group hit table). */
    struct GroupView;
    /** Word view over one 64-lane block (Word = uint64_t, block hit
     *  table). */
    struct BlockView;

    /** Run op on the masked lanes of a view, or only consume its sites
     *  when no lane is masked in. The tables must already hold them. */
    template <class V>
    void apply(V &v, const Op &op, const typename V::Word &mask);
    template <class V>
    void dispatch(V &v, const Op &op, const typename V::Word &mask);
    template <class V> void skipSites(V &v, OpType type);
    /** The op bodies: the op on the masked lanes of a view, taking its
     *  sites from the view's hit tables in order. */
    template <class V>
    void opDataNoise(V &v, int q, const typename V::Word &mask);
    template <class V>
    void opReset(V &v, int q, const typename V::Word &mask);
    template <class V>
    void opH(V &v, int q, const typename V::Word &mask);
    template <class V>
    void opCnot(V &v, int c, int t, const typename V::Word &mask);
    template <class V>
    void opLeakageIswap(V &v, int d, int p,
                        const typename V::Word &mask);
    /** Appends the record entry (qubit and lane sets); the caller
     *  stamps its stabilizer, round and flags. Needs a non-empty
     *  mask. */
    template <class V>
    Record &opMeasure(V &v, int q, bool x_basis,
                      const typename V::Word &mask);
    /** A two-qubit gate's noise: the Pauli site, then (with leakage)
     *  the two leak-injection and two seepage sites. */
    template <class V>
    void twoQubitNoise(V &v, int a, int b,
                       const typename V::Word &mask);
    template <class V>
    void twoQubitPauli(V &v, int a, int b,
                       const typename V::Word &mask);
    template <class V>
    void twoQubitLeak(V &v, int a, int b,
                      const typename V::Word &mask);
    /** A CNOT's events on the lanes `one` with exactly one leaked
     *  operand: the random Pauli on the other, then transport. */
    template <class V>
    void cnotLeakedOperand(V &v, int c, int t,
                           const typename V::Word &one);
    template <class V>
    void seep(V &v, int q, const typename V::Word &mask);
    /** Per-lane uniform {X,Y,Z} on the depolarized lanes d of q. */
    template <class V>
    void depolarize(V &v, int q, const typename V::Word &d);
    /** One Rng::bernoulli(p) per set lane of block b's word m. */
    uint64_t laneBernoulli(int b, uint64_t m, double p);
    /** Per set lane of a leaked readout: the random outcome, then the
     *  |L> label (set unless the multi-level discriminator errs). */
    void leakedReadoutBlock(int b, uint64_t m, uint64_t &flips,
                            uint64_t &labels);
    /** Per set lane of a CNOT with one leaked operand: the random
     *  Pauli on the clean operand, then the transport trial. */
    void leakedCnotBlock(int b, uint64_t m, uint64_t &xbits,
                         uint64_t &zbits, uint64_t &transport);
    /** Lanes m of block b return from |L> in a random computational
     *  state. */
    void randomComputationalBlock(int q, int b, uint64_t m);

    /** Hit-table sites `type` consumes under this model. */
    NoiseSites opSites(OpType type) const;
    void addOpSites(NoiseSites &sites, const Op &op) const;
    Channel & channel(NoiseChannel c) { return channels_[(int)c]; }

    /** Walk block b's stream over n sites, emitting (site, hit bits). */
    template <class Emit>
    void walkSites(Channel &ch, int b, int n, Emit &&emit);
    /** Size the tables for advances of up to `group` / `block` sites. */
    void reserveTables(const NoiseSites &group, const NoiseSites &block);
    /** Advance every channel over `sites`: every block's streams into
     *  the group tables, or only block b's into the block tables when
     *  b >= 0. */
    void advance(const NoiseSites &sites, int b);
    /** Library-bug guard: a replay consumed exactly what it filled. */
    void checkConsumed(const NoiseSites &sites, bool block,
                       const char *what) const;

    /** tailHits_[i] = lanes that a Pauli or leak-injection site of
     *  tail i of the block advance just made hits. */
    void collectTailHits(int num_tails);
    /** One divergent LRC-slot tail on one 64-lane block, consuming
     *  tailSites_ from the block tables; `hits` are the lanes its
     *  Pauli or leak-injection sites hit. */
    void executeLrcTail(const CircuitProgram &prog, const IrLrcTail &t,
                        int b, int round, bool multi_level,
                        uint64_t hits);
    /** Expand the fill of LRC slot `slot`: every block's tails. */
    void executeLrcSlot(const CircuitProgram &prog, int slot, int round,
                        const ProgramLrcFillT<NW> *fills, int num_fills);

    /** Per-op flag planes of the round body (bit i of a plane is body
     *  op i): a Pauli site hit; a leak-injection or seepage site hit;
     *  a CNOT with a leaked-operand lane (set by its run's pass 1). */
    enum FlagPlane
    {
        kPauliHit,
        kLeakHit,
        kLeakyOperand,
        kFlagPlanes
    };
    uint64_t *flagPlane(FlagPlane p) { return &opFlags_[p * flagWords_]; }
    /** After the round's advance: flag the ops owning a hit site. */
    void flagHitOps();
    /** Point the group cursors at op i of a body run. */
    void seekRunOp(const IrRun &run, int i);
    /** f(op, flags) for a run's flagged ops, in op order. */
    template <class F> void forEachFlaggedOp(const IrRun &run, F &&f);
    /** The run kernels of the round body. */
    void runGates(const CircuitProgram &prog, const IrRun &run,
                  const Lane &mask);
    void runCnots(const IrRun &run, const Lane &mask);
    void runHadamards(const IrRun &run, const Lane &mask);
    void runReadouts(const CircuitProgram &prog, const IrRun &run,
                     int round, const Lane &live,
                     const ProgramLrcFillT<NW> *fills, int num_fills);

    int numQubits_;
    int numLanes_;
    int numBlocks_;
    int blockLanes_[NW];      ///< Live lanes per 64-lane block.
    Lane live_;
    ErrorModel em_;
    Channel channels_[kNoiseChannels];
    std::vector<Rng> laneRng_;
    std::vector<Lane> x_;
    std::vector<Lane> z_;
    std::vector<Lane> leaked_;
    std::vector<Record> record_;
    /** Program whose site counts the tables are sized for. */
    const CircuitProgram *bound_ = nullptr;
    /** Its run table: the program's own, or ownRuns_ for a program
     *  without a current one. */
    const IrRunTable *runs_ = nullptr;
    IrRunTable ownRuns_;
    /** kFlagPlanes planes of flagWords_ words (see FlagPlane). */
    std::vector<uint64_t> opFlags_;
    size_t flagWords_ = 0;
    NoiseSites roundSites_;
    NoiseSites tailSites_;
    NoiseSites finalSites_;
    /** Per tail of the current block advance (see collectTailHits). */
    std::vector<uint64_t> tailHits_;
};

/** The 64-lane engine (uint64_t lane sets, pre-SIMD layout). */
using BatchFrameSimulator = BatchFrameSimulatorT<1>;

extern template class BatchFrameSimulatorT<1>;
extern template class BatchFrameSimulatorT<4>;
extern template class BatchFrameSimulatorT<8>;

} // namespace qec

#endif // QEC_SIM_BATCH_FRAME_SIMULATOR_H
