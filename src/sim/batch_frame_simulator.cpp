#include "sim/batch_frame_simulator.h"

#include <algorithm>
#include <cmath>

#include "base/logging.h"
#include "code/builder.h"

namespace qec
{

namespace
{

/** Salts separating the per-block channel streams from each other and
 *  from the per-lane streams, indexed by NoiseChannel. */
constexpr uint64_t kChannelSalt[kNoiseChannels] = {
    0x9ec0ffeeb47c5a11ULL, 0x4c45414b2d696e6aULL, 0x5345455061676521ULL};

constexpr NoiseChannel kPauli = NoiseChannel::Pauli;
constexpr NoiseChannel kLeak = NoiseChannel::LeakInjection;
constexpr NoiseChannel kSeep = NoiseChannel::Seepage;

} // namespace

// ------------------------------------------------------------ views

// The op bodies are written once against a word view: GroupView runs
// them over every lane (Word = Lane) on the group hit tables, BlockView
// over one 64-lane block (Word = uint64_t) on the block hit tables.
// Per-lane events address lanes by their group index in both, so the
// two instantiations apply the same per-lane rule by construction.

template <int NW>
struct BatchFrameSimulatorT<NW>::GroupView
{
    using Word = Lane;
    BatchFrameSimulatorT &s;

    Word & x(int q) { return s.x_[q]; }
    Word & z(int q) { return s.z_[q]; }
    Word & leaked(int q) { return s.leaked_[q]; }
    Word hits(NoiseChannel c) { return s.channel(c).group.take(); }

    template <class F>
    void
    forEachLane(const Word &m, F &&f) const
    {
        forEachSetLane(m, f);
    }

    /** f(block, bits) for every block with a set lane in m. */
    template <class F>
    void
    forEachBlock(const Word &m, F &&f) const
    {
        for (int b = 0; b < s.numBlocks_; ++b)
            if (const uint64_t w = laneWord(m, b))
                f(b, w);
    }

    static uint64_t & word(Word &w, int b) { return laneWordRef(w, b); }
    void put(Lane &dst, const Word &w) const { dst = w; }
};

template <int NW>
struct BatchFrameSimulatorT<NW>::BlockView
{
    using Word = uint64_t;
    BatchFrameSimulatorT &s;
    int b;

    Word & x(int q) { return laneWordRef(s.x_[q], b); }
    Word & z(int q) { return laneWordRef(s.z_[q], b); }
    Word & leaked(int q) { return laneWordRef(s.leaked_[q], b); }
    Word hits(NoiseChannel c) { return s.channel(c).block.take(); }

    template <class F>
    void
    forEachLane(Word m, F &&f) const
    {
        const int base = 64 * b;
        while (m) {
            f(base + __builtin_ctzll(m));
            m &= m - 1;
        }
    }

    template <class F>
    void
    forEachBlock(Word m, F &&f) const
    {
        if (m)
            f(b, m);
    }

    static uint64_t & word(Word &w, int) { return w; }
    void put(Lane &dst, Word w) const { laneWordRef(dst, b) = w; }
};

// ------------------------------------------------------- lifecycle

template <int NW>
BatchFrameSimulatorT<NW>::BatchFrameSimulatorT(int num_qubits,
                                               const ErrorModel &em,
                                               int num_lanes,
                                               uint64_t seed,
                                               uint64_t first_shot)
    : numQubits_(num_qubits), numLanes_(num_lanes),
      numBlocks_((num_lanes + 63) / 64),
      live_(laneMaskOf<Lane>(num_lanes)), em_(em)
{
    panicIf(num_lanes < 1 || num_lanes > kMaxLanes,
            "batch simulator lane count out of range for this width");
    // Block b owns the channel streams of the 64-lane group that would
    // start at shot first_shot + 64*b: W-wide runs replay the 64-wide
    // runs bit for bit.
    for (int b = 0; b < numBlocks_; ++b)
        blockLanes_[b] =
            numLanes_ - 64 * b >= 64 ? 64 : numLanes_ - 64 * b;
    for (int c = 0; c < kNoiseChannels; ++c) {
        Channel &ch = channels_[c];
        ch.p = em_.channelProb((NoiseChannel)c);
        ch.log1mp = ch.p > 0.0 && ch.p < 1.0 ? std::log1p(-ch.p) : 0.0;
        const bool rare = ch.p > 0.0 && ch.p < kRareThreshold;
        for (int b = 0; b < numBlocks_; ++b) {
            ch.rng[b] = Rng::forStream(
                seed, first_shot + 64 * (uint64_t)b, kChannelSalt[c]);
            if (rare)
                ch.skip[b] = bernoulliGeometricGap(ch.rng[b], ch.log1mp);
        }
    }
    laneRng_.reserve(numLanes_);
    for (int l = 0; l < numLanes_; ++l)
        laneRng_.push_back(Rng::forShot(seed, first_shot + l));
    x_.assign(num_qubits, Lane{});
    z_.assign(num_qubits, Lane{});
    leaked_.assign(num_qubits, Lane{});
}

template <int NW>
void
BatchFrameSimulatorT<NW>::reset()
{
    record_.clear();
    std::fill(x_.begin(), x_.end(), Lane{});
    std::fill(z_.begin(), z_.end(), Lane{});
    std::fill(leaked_.begin(), leaked_.end(), Lane{});
}

template <int NW>
typename BatchFrameSimulatorT<NW>::Lane
BatchFrameSimulatorT<NW>::xWord(int q) const
{
    return x_[q];
}

template <int NW>
typename BatchFrameSimulatorT<NW>::Lane
BatchFrameSimulatorT<NW>::zWord(int q) const
{
    return z_[q];
}

template <int NW>
typename BatchFrameSimulatorT<NW>::Lane
BatchFrameSimulatorT<NW>::leakedWord(int q) const
{
    return leaked_[q];
}

template <int NW>
bool
BatchFrameSimulatorT<NW>::leaked(int q, int lane) const
{
    return testLane(leakedWord(q), lane);
}

template <int NW>
uint64_t
BatchFrameSimulatorT<NW>::countLeaked(int first, int last) const
{
    uint64_t n = 0;
    for (int q = first; q < last; ++q)
        n += (uint64_t)popcountLanes(leaked_[q]);
    return n;
}

template <int NW>
void
BatchFrameSimulatorT<NW>::injectPauli(int q, Pauli p, const Lane &mask)
{
    if (p == Pauli::X || p == Pauli::Y)
        x_[q] ^= mask & live_;
    if (p == Pauli::Z || p == Pauli::Y)
        z_[q] ^= mask & live_;
}

template <int NW>
void
BatchFrameSimulatorT<NW>::setLeaked(int q, bool leaked,
                                    const Lane &mask)
{
    if (leaked)
        leaked_[q] |= mask & live_;
    else
        leaked_[q] = andnot(leaked_[q], mask);
}

// ------------------------------------------------------ hit tables

template <int NW>
template <class Emit>
void
BatchFrameSimulatorT<NW>::walkSites(Channel &ch, int b, int n,
                                    Emit &&emit)
{
    const int lanes = blockLanes_[b];
    if (ch.p <= 0.0 || n <= 0)
        return;
    if (ch.p >= 1.0) {
        for (int s = 0; s < n; ++s)
            emit(s, laneMask64(lanes));
        return;
    }
    if (ch.p >= kRareThreshold) {
        for (int s = 0; s < n; ++s)
            if (const uint64_t bits =
                    bernoulliDenseMask(ch.rng[b], ch.p, lanes))
                emit(s, bits);
        return;
    }
    // Trial i of this advance is lane i % lanes of site i / lanes.
    bernoulliRareHits(ch.rng[b], ch.log1mp, ch.skip[b],
                      (uint64_t)n * (uint64_t)lanes, [&](uint64_t i) {
                          const uint64_t s = i / (uint64_t)lanes;
                          emit((int)s, uint64_t{1}
                                           << (i - s * (uint64_t)lanes));
                      });
}

template <int NW>
template <class W>
void
BatchFrameSimulatorT<NW>::HitTable<W>::reserve(int n)
{
    if ((size_t)n > slots.size()) {
        slots.resize(n, W{});
        touched.reserve(n);
    }
}

template <int NW>
template <class W>
void
BatchFrameSimulatorT<NW>::HitTable<W>::start(int n)
{
    for (int s : touched)
        slots[s] = W{};
    touched.clear();
    reserve(n);
    filled = n;
    next = 0;
}

template <int NW>
void
BatchFrameSimulatorT<NW>::reserveTables(const NoiseSites &group,
                                        const NoiseSites &block)
{
    for (int c = 0; c < kNoiseChannels; ++c) {
        channels_[c].group.reserve(group.count[c]);
        channels_[c].block.reserve(block.count[c]);
    }
}

template <int NW>
void
BatchFrameSimulatorT<NW>::advance(const NoiseSites &sites, int b)
{
    for (int c = 0; c < kNoiseChannels; ++c) {
        Channel &ch = channels_[c];
        const int n = sites.count[c];
        if (b >= 0) {
            ch.block.start(n);
            walkSites(ch, b, n, [&](int s, uint64_t bits) {
                ch.block.write(s, bits);
            });
            continue;
        }
        ch.group.start(n);
        for (int blk = 0; blk < numBlocks_; ++blk)
            walkSites(ch, blk, n, [&](int s, uint64_t bits) {
                Lane word{};
                laneWordRef(word, blk) = bits;
                ch.group.write(s, word);
            });
    }
}

template <int NW>
void
BatchFrameSimulatorT<NW>::checkConsumed(const NoiseSites &sites,
                                        bool block,
                                        const char *what) const
{
    for (int c = 0; c < kNoiseChannels; ++c) {
        const Channel &ch = channels_[c];
        const int n = sites.count[c];
        const bool ok = block ? ch.block.filled == n && ch.block.next == n
                              : ch.group.filled == n && ch.group.next == n;
        panicIf(!ok, what);
    }
}

template <int NW>
NoiseSites
BatchFrameSimulatorT<NW>::opSites(OpType type) const
{
    NoiseSites sites;
    int leak_sites = 0;
    switch (type) {
      case OpType::RoundStart:
        return sites;
      case OpType::DataNoise:
        leak_sites = 1;
        break;
      case OpType::Cnot:
      case OpType::LeakageIswap:
        leak_sites = 2; // One per operand.
        break;
      case OpType::Reset:
      case OpType::H:
      case OpType::Measure:
      case OpType::MeasureX:
        break;
    }
    sites.count[(int)kPauli] = 1;
    if (em_.leakageEnabled) {
        sites.count[(int)kLeak] = leak_sites;
        sites.count[(int)kSeep] = leak_sites;
    }
    return sites;
}

template <int NW>
void
BatchFrameSimulatorT<NW>::addOpSites(NoiseSites &sites,
                                     const Op &op) const
{
    const NoiseSites s = opSites(op.type);
    for (int c = 0; c < kNoiseChannels; ++c)
        sites.count[c] += s.count[c];
}

template <int NW>
template <class V>
void
BatchFrameSimulatorT<NW>::skipSites(V &v, OpType type)
{
    const NoiseSites s = opSites(type);
    for (int c = 0; c < kNoiseChannels; ++c)
        for (int i = 0; i < s.count[c]; ++i)
            v.hits((NoiseChannel)c);
}

// ---------------------------------------------------- per-lane draws

template <int NW>
void
BatchFrameSimulatorT<NW>::depolarizeLane(int q, int l)
{
    // Uniform over {X, Y, Z}, matching the scalar draw order.
    switch (laneRng_[l].randint(3)) {
      case 0: flipLane(x_[q], l); break;
      case 1: flipLane(x_[q], l); flipLane(z_[q], l); break;
      default: flipLane(z_[q], l); break;
    }
}

// The block kernels below gather the draws of every set lane of a block
// word into bit words, each lane drawing from its own stream in the
// order FrameSimulator does.

template <int NW>
uint64_t
BatchFrameSimulatorT<NW>::laneBernoulli(int b, uint64_t m, double p)
{
    uint64_t hits = 0;
    for (uint64_t w = m; w; w &= w - 1) {
        const int i = __builtin_ctzll(w);
        hits |= (uint64_t)laneRng_[64 * b + i].bernoulli(p) << i;
    }
    return hits;
}

template <int NW>
void
BatchFrameSimulatorT<NW>::leakedCnotBlock(int b, uint64_t m,
                                          uint64_t &xbits,
                                          uint64_t &zbits,
                                          uint64_t &transport)
{
    // Per lane: a uniform {I,X,Y,Z} from the two low bits of one draw,
    // then the transport trial.
    xbits = zbits = transport = 0;
    for (uint64_t w = m; w; w &= w - 1) {
        const int i = __builtin_ctzll(w);
        Rng &rng = laneRng_[64 * b + i];
        const uint64_t r = rng.next();
        xbits |= (r & 1) << i;
        zbits |= ((r >> 1) & 1) << i;
        transport |= (uint64_t)rng.bernoulli(em_.pTransport) << i;
    }
}

template <int NW>
void
BatchFrameSimulatorT<NW>::leakedReadoutBlock(int b, uint64_t m,
                                             uint64_t &flips,
                                             uint64_t &labels)
{
    // Per lane: a random two-level outcome, then the multi-level
    // discriminator's miss trial.
    const double miss = em_.multiLevelMissProb();
    flips = labels = 0;
    for (uint64_t w = m; w; w &= w - 1) {
        const int i = __builtin_ctzll(w);
        Rng &rng = laneRng_[64 * b + i];
        flips |= (uint64_t)rng.bit() << i;
        labels |= (uint64_t)!rng.bernoulli(miss) << i;
    }
}

template <int NW>
void
BatchFrameSimulatorT<NW>::randomComputationalBlock(int q, int b,
                                                   uint64_t m)
{
    uint64_t xbits = 0, zbits = 0;
    for (uint64_t w = m; w; w &= w - 1) {
        const int i = __builtin_ctzll(w);
        Rng &rng = laneRng_[64 * b + i];
        xbits |= (uint64_t)rng.bit() << i;
        zbits |= (uint64_t)rng.bit() << i;
    }
    laneWordRef(leaked_[q], b) &= ~m;
    uint64_t &x = laneWordRef(x_[q], b);
    uint64_t &z = laneWordRef(z_[q], b);
    x = (x & ~m) | xbits;
    z = (z & ~m) | zbits;
}

// -------------------------------------------------------- op bodies

template <int NW>
template <class V>
void
BatchFrameSimulatorT<NW>::seep(V &v, int q, const typename V::Word &mask)
{
    // Seeped lanes return in a random computational state.
    v.forEachBlock(v.hits(kSeep) & v.leaked(q) & mask,
                   [&](int b, uint64_t m) {
                       randomComputationalBlock(q, b, m);
                   });
}

template <int NW>
template <class V>
void
BatchFrameSimulatorT<NW>::opDataNoise(V &v, int q,
                                      const typename V::Word &mask)
{
    const typename V::Word d = v.hits(kPauli) & andnot(mask, v.leaked(q));
    if (anyLane(d))
        v.forEachLane(d, [&](int l) { depolarizeLane(q, l); });
    if (em_.leakageEnabled) {
        v.leaked(q) |= v.hits(kLeak) & mask;
        seep(v, q, mask);
    }
}

template <int NW>
template <class V>
void
BatchFrameSimulatorT<NW>::opReset(V &v, int q,
                                  const typename V::Word &mask)
{
    v.x(q) = andnot(v.x(q), mask);
    v.z(q) = andnot(v.z(q), mask);
    v.leaked(q) = andnot(v.leaked(q), mask);
    // Initialization error: the qubit comes up in |1> with prob p.
    v.x(q) |= v.hits(kPauli) & mask;
}

template <int NW>
template <class V>
void
BatchFrameSimulatorT<NW>::opH(V &v, int q, const typename V::Word &mask)
{
    using Word = typename V::Word;
    const Word act = andnot(mask, v.leaked(q));
    const Word xw = v.x(q);
    const Word zw = v.z(q);
    v.x(q) = andnot(xw, act) | (zw & act);
    v.z(q) = andnot(zw, act) | (xw & act);
    const Word d = v.hits(kPauli) & act;
    if (anyLane(d))
        v.forEachLane(d, [&](int l) { depolarizeLane(q, l); });
}

template <int NW>
template <class V>
void
BatchFrameSimulatorT<NW>::twoQubitNoise(V &v, int a, int b,
                                        const typename V::Word &mask)
{
    const typename V::Word m = v.hits(kPauli) & mask;
    if (anyLane(m)) {
        v.forEachLane(m, [&](int l) {
            // One of the 15 non-identity two-qubit Paulis, uniformly.
            const uint32_t pp = 1 + laneRng_[l].randint(15);
            const uint32_t pa = pp & 3;
            const uint32_t pb = (pp >> 2) & 3;
            if (!testLane(leaked_[a], l)) {
                if (pa == 1 || pa == 2)
                    flipLane(x_[a], l);
                if (pa == 2 || pa == 3)
                    flipLane(z_[a], l);
            }
            if (!testLane(leaked_[b], l)) {
                if (pb == 1 || pb == 2)
                    flipLane(x_[b], l);
                if (pb == 2 || pb == 3)
                    flipLane(z_[b], l);
            }
        });
    }
    if (em_.leakageEnabled) {
        v.leaked(a) |= v.hits(kLeak) & mask;
        v.leaked(b) |= v.hits(kLeak) & mask;
        seep(v, a, mask);
        seep(v, b, mask);
    }
}

template <int NW>
template <class V>
void
BatchFrameSimulatorT<NW>::opCnot(V &v, int c, int t,
                                 const typename V::Word &mask)
{
    using Word = typename V::Word;
    const Word lc = v.leaked(c);
    const Word lt = v.leaked(t);
    if (!anyLane((lc | lt) & mask)) {
        // No leaked operand lane: pure frame propagation (the dominant
        // case while the controller keeps the leakage population
        // suppressed).
        v.x(t) ^= v.x(c) & mask;
        v.z(c) ^= v.z(t) & mask;
        twoQubitNoise(v, c, t, mask);
        return;
    }
    const Word both_clean = andnot(andnot(mask, lc), lt);
    v.x(t) ^= v.x(c) & both_clean;
    v.z(c) ^= v.z(t) & both_clean;

    // Exactly one operand leaked: the gate is uncalibrated for |L>, so
    // the unleaked operand receives a uniformly random Pauli, and
    // leakage may transport. Lanes with both operands leaked see no
    // frame action at all.
    v.forEachBlock((lc ^ lt) & mask, [&](int b, uint64_t m) {
        const uint64_t c_only = m & laneWord(leaked_[c], b);
        const uint64_t t_only = m & ~c_only;
        uint64_t xr, zr, tr;
        leakedCnotBlock(b, m, xr, zr, tr);
        laneWordRef(x_[t], b) ^= xr & c_only;
        laneWordRef(z_[t], b) ^= zr & c_only;
        laneWordRef(x_[c], b) ^= xr & t_only;
        laneWordRef(z_[c], b) ^= zr & t_only;
        laneWordRef(leaked_[t], b) |= tr & c_only;
        laneWordRef(leaked_[c], b) |= tr & t_only;
        if (em_.transport == TransportModel::Exchange) {
            randomComputationalBlock(c, b, tr & c_only);
            randomComputationalBlock(t, b, tr & t_only);
        }
    });
    twoQubitNoise(v, c, t, mask);
}

template <int NW>
template <class V>
void
BatchFrameSimulatorT<NW>::opLeakageIswap(V &v, int d, int p,
                                         const typename V::Word &mask)
{
    using Word = typename V::Word;
    const Word ld = v.leaked(d);
    const Word lp = v.leaked(p);

    // DQLR moves the data qubit's leakage onto the (just reset) parity
    // qubit; the data qubit returns to a random computational state.
    v.forEachBlock(andnot(mask & ld, lp), [&](int b, uint64_t m) {
        laneWordRef(leaked_[p], b) |= m;
        randomComputationalBlock(d, b, m);
    });

    // Reset failure left the parity qubit in |1>: the iSWAP acts in the
    // |11>/|20> subspace and can excite the data qubit to |L>.
    if (em_.leakageEnabled) {
        const Word excitable = andnot(andnot(mask, ld), lp) & v.x(p);
        v.forEachBlock(excitable, [&](int b, uint64_t m) {
            laneWordRef(leaked_[d], b) |=
                laneBernoulli(b, m, em_.dqlrExciteProb);
        });
    }
    // The op has CNOT-class fidelity (Section A.2.2).
    twoQubitNoise(v, d, p, mask);
}

template <int NW>
template <class V>
void
BatchFrameSimulatorT<NW>::opMeasure(V &v, const Op &op, bool x_basis,
                                    const typename V::Word &mask)
{
    using Word = typename V::Word;
    const int q = op.q0;
    const Word lw = v.leaked(q);

    // Unleaked lanes report the frame; a two-level discriminator
    // classifies |L> randomly, and the multi-level discriminator flags
    // |L> unless it errs.
    Word flips = andnot(x_basis ? v.z(q) : v.x(q), lw) & mask;
    Word labels{};
    v.forEachBlock(lw & mask, [&](int b, uint64_t m) {
        uint64_t random, flagged;
        leakedReadoutBlock(b, m, random, flagged);
        V::word(flips, b) |= random;
        V::word(labels, b) = flagged;
    });
    flips ^= v.hits(kPauli) & mask;

    Record rec;
    rec.qubit = q;
    rec.stab = op.stab;
    rec.round = op.round;
    rec.finalData = op.finalData;
    rec.lrcData = op.lrcData;
    v.put(rec.mask, mask);
    v.put(rec.flips, flips);
    v.put(rec.leakedLabels, labels);
    record_.push_back(rec);
}

template <int NW>
template <class V>
void
BatchFrameSimulatorT<NW>::dispatch(V &v, const Op &op,
                                   const typename V::Word &mask)
{
    switch (op.type) {
      case OpType::RoundStart:
        break;
      case OpType::DataNoise:
        opDataNoise(v, op.q0, mask);
        break;
      case OpType::Reset:
        opReset(v, op.q0, mask);
        break;
      case OpType::H:
        opH(v, op.q0, mask);
        break;
      case OpType::Cnot:
        opCnot(v, op.q0, op.q1, mask);
        break;
      case OpType::LeakageIswap:
        opLeakageIswap(v, op.q0, op.q1, mask);
        break;
      case OpType::Measure:
        opMeasure(v, op, false, mask);
        break;
      case OpType::MeasureX:
        opMeasure(v, op, true, mask);
        break;
    }
}

template <int NW>
template <class V>
void
BatchFrameSimulatorT<NW>::apply(V &v, const Op &op,
                                const typename V::Word &mask)
{
    if (anyLane(mask))
        dispatch(v, op, mask);
    else
        skipSites(v, op.type);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::execute(const Op &op, const Lane &mask)
{
    // Outside program replay each op advances the streams by its own
    // sites.
    GroupView v{*this};
    advance(opSites(op.type), -1);
    apply(v, op, mask & live_);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::executeBlock(const Op &op, int block,
                                       uint64_t mask)
{
    BlockView v{*this, block};
    advance(opSites(op.type), block);
    apply(v, op, mask & laneWord(live_, block));
}

template <int NW>
void
BatchFrameSimulatorT<NW>::executeRange(const Op *begin, const Op *end,
                                       const Lane &mask)
{
    for (const Op *op = begin; op != end; ++op)
        execute(*op, mask);
}

// -------------------------------------------------- program replay

template <int NW>
void
BatchFrameSimulatorT<NW>::collectTailHits(int num_tails)
{
    // Tail i owns sites [i*n, (i+1)*n) of a channel's block advance,
    // and the touched list names every slot that holds a hit.
    tailHits_.assign(num_tails, 0);
    for (NoiseChannel c : {kPauli, kLeak}) {
        const HitTable<uint64_t> &table = channel(c).block;
        const int n = tailSites_.of(c);
        for (int s : table.touched)
            tailHits_[s / n] |= table.slots[s];
    }
}

template <int NW>
void
BatchFrameSimulatorT<NW>::executeLrcTail(const CircuitProgram &prog,
                                         const IrLrcTail &t, int b,
                                         int round, bool multi_level,
                                         uint64_t hits)
{
    // The tail's ops (the tail template's, in order) consume exactly
    // tailSites_, including the conditional suffix ops, which run with
    // an empty mask on lanes that skip them.
    //
    // Most tails act on clean lanes: neither operand is leaked and no
    // Pauli or leak-injection site the tail consumes hits the lane (a
    // seepage hit acts only on a leaked qubit, and nothing leaks one
    // on such a lane). With no hit and no leaked operand, the ops below
    // reduce to frame propagation, so a clean lane takes a closed form:
    //
    //  - SwapLrc: the three CNOTs swap D = (xD, zD) and P = (xP, zP);
    //    the readout reports xP with no |L> label (so no squash); the
    //    reset leaves D = (0, 0); the MOV back (CNOT P->D, CNOT D->P)
    //    gives D = (xD, zD), P = (0, zD). D is unchanged, P <- (0, zD),
    //    and the record flip is the old xP.
    //  - DQLR: with both operands unleaked and xP = 0 (xP = 1 takes the
    //    excitation draw) the iSWAP has no effect, and the reset gives
    //    P = (0, 0). D is unchanged and P <- (0, 0).
    //
    // The other (irregular) lanes run the op sequence, masked to them:
    // each op still consumes all its sites and every draw is per lane,
    // so they see exactly what a full-mask run gives them. The tail's
    // one record entry covers the whole mask.
    const uint64_t mask = t.mask & laneWord(live_, b);
    const int data = t.data;
    const int parity = prog.stabAncilla[t.stab];
    const bool swap = prog.tail == IrTailKind::SwapLrc;
    uint64_t irregular =
        hits | laneWord(leaked_[data], b) | laneWord(leaked_[parity], b);
    if (!swap)
        irregular |= laneWord(x_[parity], b);
    irregular &= mask;
    const uint64_t clean = mask & ~irregular;

    uint64_t &xp = laneWordRef(x_[parity], b);
    uint64_t &zp = laneWordRef(z_[parity], b);
    const uint64_t clean_flips = xp & clean;
    if (swap) {
        xp &= ~clean;
        zp = (zp & ~clean) | (laneWord(z_[data], b) & clean);
    } else {
        zp &= ~clean; // xp is already 0 on clean lanes
    }

    if (!irregular) {
        // Fully clean: no op runs, the tail's sites are skipped.
        for (int c = 0; c < kNoiseChannels; ++c)
            channels_[c].block.next += tailSites_.count[c];
        if (swap && mask) {
            Record &rec = record_.emplace_back();
            rec.qubit = data;
            rec.stab = t.stab;
            rec.round = round;
            rec.lrcData = true;
            laneWordRef(rec.mask, b) = mask;
            laneWordRef(rec.flips, b) = clean_flips;
        }
        return;
    }

    BlockView v{*this, b};
    if (swap) {
        // SWAP D <-> P, measure + reset D, MOV back -- with the
        // ERASER+M in-round rule: lanes whose data readout is
        // labelled |L> squash the MOV and reset P instead.
        apply(v, makeOp(OpType::Cnot, data, parity), irregular);
        apply(v, makeOp(OpType::Cnot, parity, data), irregular);
        apply(v, makeOp(OpType::Cnot, data, parity), irregular);
        Op meas = makeOp(OpType::Measure, data);
        meas.stab = t.stab;
        meas.round = round;
        meas.lrcData = true;
        apply(v, meas, irregular);
        Record &rec = record_.back();
        laneWordRef(rec.mask, b) = mask;
        laneWordRef(rec.flips, b) |= clean_flips;
        const uint64_t squash =
            multi_level ? laneWord(rec.leakedLabels, b) : 0;
        apply(v, makeOp(OpType::Reset, data), irregular);
        const uint64_t mov = irregular & ~squash;
        apply(v, makeOp(OpType::Cnot, parity, data), mov);
        apply(v, makeOp(OpType::Cnot, data, parity), mov);
        apply(v, makeOp(OpType::Reset, parity), squash);
    } else {
        apply(v, makeOp(OpType::LeakageIswap, data, parity), irregular);
        apply(v, makeOp(OpType::Reset, parity), irregular);
    }
}

template <int NW>
void
BatchFrameSimulatorT<NW>::executeProgramRound(
    const CircuitProgram &prog, int round, const Lane &mask,
    const ProgramLrcFillT<NW> *fills, int num_fills)
{
    if (bound_ != &prog)
        bindProgramStreams(prog);
    advance(roundSites_, -1);
    GroupView v{*this};
    const Lane live = mask & live_;
    for (size_t i = prog.bodyBegin; i < prog.bodyEnd; ++i) {
        const IrInst &inst = prog.instrs[i];
        switch (inst.op) {
          case IrOpcode::Gate:
            apply(v, prog.pool[inst.a], live);
            break;
          case IrOpcode::Readout: {
            Lane m = live;
            if (prog.maskReadoutOnLrc) {
                for (int f = 0; f < num_fills; ++f)
                    if (fills[f].lrcOnStab)
                        m = andnot(m, fills[f].lrcOnStab[inst.a]);
            }
            // With no lane left the pair still consumes its sites but
            // writes no record entry.
            Op meas = prog.pool[inst.b];
            meas.round = round;
            apply(v, meas, m);
            apply(v, prog.pool[(size_t)inst.b + 1], m);
            break;
          }
          case IrOpcode::LrcSlot: {
            if (!fills || inst.a >= num_fills)
                break;
            const ProgramLrcFillT<NW> &fill = fills[inst.a];
            if (!fill.blockTails)
                break;
            for (int b = 0; b < numBlocks_; ++b) {
                const std::vector<IrLrcTail> &tails = fill.blockTails[b];
                if (tails.empty())
                    continue;
                // One advance of block b's streams covers its tails, in
                // order (the walk is chunking-invariant).
                NoiseSites sites;
                for (int c = 0; c < kNoiseChannels; ++c)
                    sites.count[c] =
                        tailSites_.count[c] * (int)tails.size();
                advance(sites, b);
                collectTailHits((int)tails.size());
                for (size_t i = 0; i < tails.size(); ++i)
                    executeLrcTail(prog, tails[i], b, round,
                                   fill.multiLevel, tailHits_[i]);
                checkConsumed(sites, true, "LRC tails consumed other "
                                           "noise sites than counted");
            }
            break;
          }
          default:
            break;
        }
    }
    checkConsumed(roundSites_, false,
                  "round body consumed other noise sites than counted");
}

template <int NW>
void
BatchFrameSimulatorT<NW>::executeProgramFinal(const CircuitProgram &prog,
                                              const Lane &mask)
{
    if (bound_ != &prog)
        bindProgramStreams(prog);
    advance(finalSites_, -1);
    GroupView v{*this};
    const Lane live = mask & live_;
    for (size_t i = prog.bodyEnd + 1; i < prog.instrs.size(); ++i)
        apply(v, prog.pool[prog.instrs[i].a], live);
    checkConsumed(finalSites_, false,
                  "final layer consumed other noise sites than counted");
}

template <int NW>
void
BatchFrameSimulatorT<NW>::executeProgram(const CircuitProgram &prog)
{
    for (int r = 0; r < prog.rounds; ++r)
        executeProgramRound(prog, r, live_);
    executeProgramFinal(prog, live_);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::bindProgramStreams(const CircuitProgram &prog)
{
    roundSites_ = NoiseSites{};
    tailSites_ = NoiseSites{};
    finalSites_ = NoiseSites{};
    for (size_t i = prog.bodyBegin; i < prog.bodyEnd; ++i) {
        const IrInst &inst = prog.instrs[i];
        if (inst.op == IrOpcode::Gate) {
            addOpSites(roundSites_, prog.pool[inst.a]);
        } else if (inst.op == IrOpcode::Readout) {
            addOpSites(roundSites_, prog.pool[inst.b]);
            addOpSites(roundSites_, prog.pool[(size_t)inst.b + 1]);
        }
    }
    for (const IrTailTemplate &tmpl : prog.tailTemplates)
        if (tmpl.kind == prog.tail)
            for (const Op &op : tmpl.ops)
                addOpSites(tailSites_, op);
    for (size_t i = prog.bodyEnd + 1; i < prog.instrs.size(); ++i)
        addOpSites(finalSites_, prog.pool[prog.instrs[i].a]);

    // Block tables: one slot's tails on one block. Lanes may pick
    // different data qubits for one stabilizer, so a block holds at
    // most one tail per distinct (stab, data) support pair.
    const int support_pairs = (int)prog.supportData.size();
    NoiseSites group, block;
    for (int c = 0; c < kNoiseChannels; ++c) {
        group.count[c] =
            std::max(roundSites_.count[c], finalSites_.count[c]);
        block.count[c] = tailSites_.count[c] * support_pairs;
    }
    reserveTables(group, block);
    tailHits_.reserve(support_pairs);
    bound_ = &prog;
}

template class BatchFrameSimulatorT<1>;
template class BatchFrameSimulatorT<4>;
template class BatchFrameSimulatorT<8>;

} // namespace qec
