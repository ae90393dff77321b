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
    void skip(NoiseChannel c, int n) { s.channel(c).group.next += n; }

    /** f(block, bits) for every block with a set lane in m: a mask of
     *  the nonzero words first, so the usual one-block event costs one
     *  predictable iteration. */
    template <class F>
    void
    forEachBlock(const Word &m, F &&f) const
    {
        unsigned nonzero = 0;
        for (int b = 0; b < NW; ++b)
            nonzero |= (unsigned)(laneWord(m, b) != 0) << b;
        for (; nonzero; nonzero &= nonzero - 1) {
            const int b = __builtin_ctz(nonzero);
            f(b, laneWord(m, b));
        }
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
    void skip(NoiseChannel c, int n) { s.channel(c).block.next += n; }

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
    // Trial i of this advance is lane i % lanes of site i / lanes (a
    // shift and a mask on full blocks).
    const uint64_t trials = (uint64_t)n * (uint64_t)lanes;
    if (lanes == 64) {
        bernoulliRareHits(ch.rng[b], ch.log1mp, ch.skip[b], trials,
                          [&](uint64_t i) {
                              emit((int)(i >> 6), uint64_t{1} << (i & 63));
                          });
        return;
    }
    bernoulliRareHits(ch.rng[b], ch.log1mp, ch.skip[b], trials,
                      [&](uint64_t i) {
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
                ch.block.write(s, 0, bits);
            });
            continue;
        }
        ch.group.start(n);
        for (int blk = 0; blk < numBlocks_; ++blk)
            walkSites(ch, blk, n, [&](int s, uint64_t bits) {
                ch.group.write(s, blk, bits);
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
    const IrOpSites s = irOpSites(type);
    NoiseSites sites;
    sites.count[(int)kPauli] = s.pauli;
    if (em_.leakageEnabled) {
        sites.count[(int)kLeak] = s.leak;
        sites.count[(int)kSeep] = s.leak;
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
        v.skip((NoiseChannel)c, s.count[c]);
}

// ---------------------------------------------------- per-lane draws

// The block kernels below gather the draws of every set lane of a block
// word into bit words, each lane drawing from its own stream in the
// order the scalar test oracle does. Callers apply the gathered bits
// whole-word: single 64-bit writes into a wide plane word stall the
// store forwarding of the next whole-word load.

template <int NW>
template <class V>
void
BatchFrameSimulatorT<NW>::depolarize(V &v, int q,
                                     const typename V::Word &d)
{
    // Uniform over {X, Y, Z} (randint(3) = 0, 1, 2), matching the
    // scalar draw order: X on 0 and 1, Z on 1 and 2.
    typename V::Word xs{}, zs{};
    v.forEachBlock(d, [&](int b, uint64_t m) {
        uint64_t xb = 0, zb = 0;
        for (uint64_t w = m; w; w &= w - 1) {
            const int i = __builtin_ctzll(w);
            const uint64_t r = laneRng_[64 * b + i].randint(3);
            xb |= ((r >> 1) ^ 1) << i;
            zb |= ((r + 1) >> 1) << i;
        }
        V::word(xs, b) = xb;
        V::word(zs, b) = zb;
    });
    v.x(q) ^= xs;
    v.z(q) ^= zs;
}

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
        depolarize(v, q, d);
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
        depolarize(v, q, d);
}

template <int NW>
template <class V>
void
BatchFrameSimulatorT<NW>::twoQubitNoise(V &v, int a, int b,
                                        const typename V::Word &mask)
{
    twoQubitPauli(v, a, b, mask);
    if (em_.leakageEnabled)
        twoQubitLeak(v, a, b, mask);
}

template <int NW>
template <class V>
void
BatchFrameSimulatorT<NW>::twoQubitPauli(V &v, int a, int b,
                                        const typename V::Word &mask)
{
    using Word = typename V::Word;
    const Word m = v.hits(kPauli) & mask;
    if (anyLane(m)) {
        // One of the 15 non-identity two-qubit Paulis, uniformly: a
        // single-qubit index 1, 2, 3 = X, Y, Z puts X on 1 and 2 and Z
        // on 2 and 3. A leaked operand takes no Pauli.
        Word xa{}, za{}, xb{}, zb{};
        v.forEachBlock(m, [&](int blk, uint64_t bits) {
            uint64_t xab = 0, zab = 0, xbb = 0, zbb = 0;
            for (uint64_t w = bits; w; w &= w - 1) {
                const int i = __builtin_ctzll(w);
                const uint64_t pp = 1 + laneRng_[64 * blk + i].randint(15);
                const uint64_t pa = pp & 3;
                const uint64_t pb = pp >> 2;
                xab |= (((pa + 1) >> 1) & 1) << i;
                zab |= (pa >> 1) << i;
                xbb |= (((pb + 1) >> 1) & 1) << i;
                zbb |= (pb >> 1) << i;
            }
            V::word(xa, blk) = xab;
            V::word(za, blk) = zab;
            V::word(xb, blk) = xbb;
            V::word(zb, blk) = zbb;
        });
        const Word la = v.leaked(a);
        const Word lb = v.leaked(b);
        v.x(a) ^= andnot(xa, la);
        v.z(a) ^= andnot(za, la);
        v.x(b) ^= andnot(xb, lb);
        v.z(b) ^= andnot(zb, lb);
    }
}

template <int NW>
template <class V>
void
BatchFrameSimulatorT<NW>::twoQubitLeak(V &v, int a, int b,
                                       const typename V::Word &mask)
{
    v.leaked(a) |= v.hits(kLeak) & mask;
    v.leaked(b) |= v.hits(kLeak) & mask;
    seep(v, a, mask);
    seep(v, b, mask);
}

template <int NW>
template <class V>
void
BatchFrameSimulatorT<NW>::cnotLeakedOperand(V &v, int c, int t,
                                            const typename V::Word &one)
{
    // Exactly one operand leaked: the gate is uncalibrated for |L>, so
    // the unleaked operand receives a uniformly random Pauli, and
    // leakage may transport.
    using Word = typename V::Word;
    Word xt{}, zt{}, xc{}, zc{}, to_t{}, to_c{};
    const Word lc = v.leaked(c);
    v.forEachBlock(one, [&](int b, uint64_t m) {
        const uint64_t c_only = m & laneWord(lc, b);
        const uint64_t t_only = m & ~c_only;
        uint64_t xr, zr, tr;
        leakedCnotBlock(b, m, xr, zr, tr);
        V::word(xt, b) = xr & c_only;
        V::word(zt, b) = zr & c_only;
        V::word(xc, b) = xr & t_only;
        V::word(zc, b) = zr & t_only;
        V::word(to_t, b) = tr & c_only;
        V::word(to_c, b) = tr & t_only;
    });
    v.x(t) ^= xt;
    v.z(t) ^= zt;
    v.x(c) ^= xc;
    v.z(c) ^= zc;
    v.leaked(t) |= to_t;
    v.leaked(c) |= to_c;
    if (em_.transport == TransportModel::Exchange) {
        // The leakage moved: its source returns in a random state. Each
        // lane's draws still follow its transport trial.
        v.forEachBlock(to_t, [&](int b, uint64_t m) {
            randomComputationalBlock(c, b, m);
        });
        v.forEachBlock(to_c, [&](int b, uint64_t m) {
            randomComputationalBlock(t, b, m);
        });
    }
}

template <int NW>
template <class V>
void
BatchFrameSimulatorT<NW>::opCnot(V &v, int c, int t,
                                 const typename V::Word &mask)
{
    // Lanes with both operands unleaked propagate the frame; lanes with
    // both leaked see no frame action at all.
    using Word = typename V::Word;
    const Word lc = v.leaked(c);
    const Word lt = v.leaked(t);
    const Word clean = andnot(mask, lc | lt);
    v.x(t) ^= v.x(c) & clean;
    v.z(c) ^= v.z(t) & clean;
    const Word one = (lc ^ lt) & mask;
    if (anyLane(one))
        cnotLeakedOperand(v, c, t, one);
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
typename BatchFrameSimulatorT<NW>::Record &
BatchFrameSimulatorT<NW>::opMeasure(V &v, int q, bool x_basis,
                                    const typename V::Word &mask)
{
    using Word = typename V::Word;
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

    Record &rec = record_.emplace_back();
    rec.qubit = q;
    v.put(rec.mask, mask);
    v.put(rec.flips, flips);
    v.put(rec.leakedLabels, labels);
    return rec;
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
      case OpType::MeasureX: {
        Record &rec = opMeasure(v, op.q0, op.type == OpType::MeasureX,
                                mask);
        rec.stab = op.stab;
        rec.round = op.round;
        rec.finalData = op.finalData;
        rec.lrcData = op.lrcData;
        break;
      }
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
    // tailSites_, including the conditional suffix ops, which only
    // skip their sites on lanes that skip them.
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
    // The other (irregular) lanes run the op bodies on the block view,
    // masked to them: each op still consumes all its sites and every
    // draw is per lane, so they see exactly what a full-mask run gives
    // them. The tail's one record entry covers the whole mask.
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
    if (!swap) {
        opLeakageIswap(v, data, parity, irregular);
        opReset(v, parity, irregular);
        return;
    }
    // SWAP D <-> P, measure + reset D, MOV back -- with the ERASER+M
    // in-round rule: lanes whose data readout is labelled |L> squash
    // the MOV and reset P instead.
    opCnot(v, data, parity, irregular);
    opCnot(v, parity, data, irregular);
    opCnot(v, data, parity, irregular);
    Record &rec = opMeasure(v, data, false, irregular);
    rec.stab = t.stab;
    rec.round = round;
    rec.lrcData = true;
    laneWordRef(rec.mask, b) = mask;
    laneWordRef(rec.flips, b) |= clean_flips;
    const uint64_t squash = multi_level ? laneWord(rec.leakedLabels, b) : 0;
    opReset(v, data, irregular);
    const uint64_t mov = irregular & ~squash;
    if (mov) {
        opCnot(v, parity, data, mov);
        opCnot(v, data, parity, mov);
    } else {
        skipSites(v, OpType::Cnot);
        skipSites(v, OpType::Cnot);
    }
    if (squash)
        opReset(v, parity, squash);
    else
        skipSites(v, OpType::Reset);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::executeLrcSlot(const CircuitProgram &prog,
                                         int slot, int round,
                                         const ProgramLrcFillT<NW> *fills,
                                         int num_fills)
{
    if (!fills || slot >= num_fills || !fills[slot].blockTails)
        return;
    const ProgramLrcFillT<NW> &fill = fills[slot];
    for (int b = 0; b < numBlocks_; ++b) {
        const std::vector<IrLrcTail> &tails = fill.blockTails[b];
        if (tails.empty())
            continue;
        // One advance of block b's streams covers its tails, in order
        // (the walk is chunking-invariant).
        NoiseSites sites;
        for (int c = 0; c < kNoiseChannels; ++c)
            sites.count[c] = tailSites_.count[c] * (int)tails.size();
        advance(sites, b);
        collectTailHits((int)tails.size());
        for (size_t i = 0; i < tails.size(); ++i)
            executeLrcTail(prog, tails[i], b, round, fill.multiLevel,
                           tailHits_[i]);
        checkConsumed(sites, true, "LRC tails consumed other noise "
                                   "sites than counted");
    }
}

// ------------------------------------------------ compiled body runs
//
// Each run kernel consumes its run's sites of the round's group tables
// by index (a run's ops are pairwise disjoint and all of one kind, see
// IrRunTable). Ops flagged in opHit_ own a hit site; ops flagged in
// opLeaky_ (CNOT runs) have a lane with a leaked operand. Only flagged
// ops run per-lane events, and they run them in op order.

template <int NW>
void
BatchFrameSimulatorT<NW>::flagHitOps()
{
    std::fill(opFlags_.begin(), opFlags_.end(), 0);
    const auto flag = [&](uint64_t *plane, const HitTable<Lane> &table,
                          const std::vector<int32_t> &owner) {
        for (int s : table.touched) {
            const int op = owner[s];
            plane[op >> 6] |= uint64_t{1} << (op & 63);
        }
    };
    flag(flagPlane(kPauliHit), channel(kPauli).group, runs_->pauliSiteOp);
    if (em_.leakageEnabled) {
        flag(flagPlane(kLeakHit), channel(kLeak).group, runs_->leakSiteOp);
        flag(flagPlane(kLeakHit), channel(kSeep).group, runs_->leakSiteOp);
    }
}

template <int NW>
void
BatchFrameSimulatorT<NW>::seekRunOp(const IrRun &run, int i)
{
    const int k = i - run.begin;
    channel(kPauli).group.next = run.pauliSite + k * run.perOp.pauli;
    if (em_.leakageEnabled) {
        const int leak = run.leakSite + k * run.perOp.leak;
        channel(kLeak).group.next = leak;
        channel(kSeep).group.next = leak;
    }
}

template <int NW>
template <class F>
void
BatchFrameSimulatorT<NW>::forEachFlaggedOp(const IrRun &run, F &&f)
{
    // f(op, flags) for the run's flagged ops, in op order; bit k of
    // flags is plane k's flag.
    const uint64_t *pauli = flagPlane(kPauliHit);
    const uint64_t *leak = flagPlane(kLeakHit);
    const uint64_t *leaky = flagPlane(kLeakyOperand);
    for (int w = run.begin >> 6; w <= (run.end - 1) >> 6; ++w) {
        uint64_t in = ~uint64_t{0};
        if (w == run.begin >> 6)
            in &= ~uint64_t{0} << (run.begin & 63);
        if (w == (run.end - 1) >> 6)
            in &= ~uint64_t{0} >> (63 - ((run.end - 1) & 63));
        const uint64_t p = pauli[w] & in;
        const uint64_t l = leak[w] & in;
        const uint64_t o = leaky[w] & in;
        for (uint64_t bits = p | l | o; bits; bits &= bits - 1) {
            const int i = __builtin_ctzll(bits);
            f(64 * w + i, (unsigned)((p >> i) & 1) << kPauliHit |
                              (unsigned)((l >> i) & 1) << kLeakHit |
                              (unsigned)((o >> i) & 1) << kLeakyOperand);
        }
    }
}

template <int NW>
void
BatchFrameSimulatorT<NW>::runCnots(const IrRun &run, const Lane &mask)
{
    // Pass 1: the frame update of every op on the lanes with no leaked
    // operand, branch-free. The ops act on disjoint qubits, so they
    // commute, and clean lanes draw nothing. Each op also notes whether
    // a lane has a leaked operand.
    const int32_t *c = runs_->q0.data();
    const int32_t *t = runs_->q1.data();
    uint64_t *leaky_plane = flagPlane(kLeakyOperand);
    uint64_t leaky = 0;
    for (int i = run.begin; i < run.end; ++i) {
        const Lane lct = leaked_[c[i]] | leaked_[t[i]];
        const Lane clean = andnot(mask, lct);
        x_[t[i]] ^= x_[c[i]] & clean;
        z_[c[i]] ^= z_[t[i]] & clean;
        leaky |= (uint64_t)anyLane(lct & mask) << (i & 63);
        if ((i & 63) == 63 || i + 1 == run.end) {
            leaky_plane[i >> 6] |= leaky;
            leaky = 0;
        }
    }
    // Pass 2: in op order, the per-lane events of the ops with a
    // leaked-operand lane or a hit site -- leaked-operand draws, then
    // the Pauli choice, leak injection and seepage -- so each lane
    // draws in the op-by-op order. A part with no hit site draws
    // nothing and is skipped.
    GroupView v{*this};
    forEachFlaggedOp(run, [&](int i, unsigned flags) {
        if (flags >> kLeakyOperand & 1) {
            const Lane one = (leaked_[c[i]] ^ leaked_[t[i]]) & mask;
            if (anyLane(one))
                cnotLeakedOperand(v, c[i], t[i], one);
        }
        if (flags >> kPauliHit & 1) {
            seekRunOp(run, i);
            twoQubitPauli(v, c[i], t[i], mask);
        }
        if (flags >> kLeakHit & 1) {
            seekRunOp(run, i);
            twoQubitLeak(v, c[i], t[i], mask);
        }
    });
    seekRunOp(run, run.end);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::runHadamards(const IrRun &run, const Lane &mask)
{
    // A branch-free plane swap of every op, then depolarization on the
    // ops with a hit (the ops' qubits are disjoint).
    const int32_t *q = runs_->q0.data();
    for (int i = run.begin; i < run.end; ++i) {
        const Lane act = andnot(mask, leaked_[q[i]]);
        const Lane xw = x_[q[i]];
        const Lane zw = z_[q[i]];
        x_[q[i]] = andnot(xw, act) | (zw & act);
        z_[q[i]] = andnot(zw, act) | (xw & act);
    }
    const HitTable<Lane> &pauli = channel(kPauli).group;
    GroupView v{*this};
    forEachFlaggedOp(run, [&](int i, unsigned) {
        const Lane d = pauli.slots[run.pauliSite + (i - run.begin)] &
                       andnot(mask, leaked_[q[i]]);
        if (anyLane(d))
            depolarize(v, q[i], d);
    });
    seekRunOp(run, run.end);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::runReadouts(const CircuitProgram &prog,
                                      const IrRun &run, int round,
                                      const Lane &live,
                                      const ProgramLrcFillT<NW> *fills,
                                      int num_fills)
{
    // Each pair measures and resets its qubit in one straight-line
    // step. A pair with no lane left (all LRC'd) writes no record but
    // still consumes its two sites.
    const HitTable<Lane> &pauli = channel(kPauli).group;
    const bool x_basis = run.type == OpType::MeasureX;
    for (int i = run.begin; i < run.end; ++i) {
        const int q = runs_->q0[i];
        Lane m = live;
        if (prog.maskReadoutOnLrc)
            for (int f = 0; f < num_fills; ++f)
                if (fills[f].lrcOnStab)
                    m = andnot(m, fills[f].lrcOnStab[runs_->q1[i]]);
        if (!anyLane(m))
            continue;
        const bool hit = (flagPlane(kPauliHit)[i >> 6] >> (i & 63)) & 1;
        const int site = run.pauliSite + 2 * (i - run.begin);

        const Lane lw = leaked_[q];
        Lane flips = andnot(x_basis ? z_[q] : x_[q], lw) & m;
        Lane labels{};
        const Lane leaked_read = lw & m;
        for (int b = 0; b < numBlocks_; ++b)
            if (const uint64_t lm = laneWord(leaked_read, b)) {
                uint64_t random, flagged;
                leakedReadoutBlock(b, lm, random, flagged);
                laneWordRef(flips, b) |= random;
                laneWordRef(labels, b) = flagged;
            }
        if (hit)
            flips ^= pauli.slots[site] & m;
        const Op &meas = prog.pool[runs_->pool[i]];
        Record &rec = record_.emplace_back();
        rec.qubit = q;
        rec.stab = meas.stab;
        rec.round = round;
        rec.finalData = meas.finalData;
        rec.lrcData = meas.lrcData;
        rec.mask = m;
        rec.flips = flips;
        rec.leakedLabels = labels;

        x_[q] = andnot(x_[q], m);
        z_[q] = andnot(z_[q], m);
        leaked_[q] = andnot(lw, m);
        if (hit)
            x_[q] |= pauli.slots[site + 1] & m;
    }
    seekRunOp(run, run.end);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::runGates(const CircuitProgram &prog,
                                   const IrRun &run, const Lane &mask)
{
    GroupView v{*this};
    switch (run.type) {
      case OpType::Cnot:
        runCnots(run, mask);
        return;
      case OpType::H:
        runHadamards(run, mask);
        return;
      case OpType::DataNoise:
        // An op without a hit has no effect.
        forEachFlaggedOp(run, [&](int i, unsigned) {
            seekRunOp(run, i);
            opDataNoise(v, runs_->q0[i], mask);
        });
        seekRunOp(run, run.end);
        return;
      default:
        // Kinds the compilers never put in a body (hand-assembled
        // programs): each op through its typed body, in order.
        seekRunOp(run, run.begin);
        for (int i = run.begin; i < run.end; ++i)
            apply(v, prog.pool[runs_->pool[i]], mask);
        return;
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
    flagHitOps();
    const Lane live = mask & live_;
    for (const IrRun &run : runs_->runs) {
        switch (run.op) {
          case IrOpcode::Gate:
            runGates(prog, run, live);
            break;
          case IrOpcode::Readout:
            runReadouts(prog, run, round, live, fills, num_fills);
            break;
          case IrOpcode::LrcSlot:
            executeLrcSlot(prog, runs_->q0[run.begin], round, fills,
                           num_fills);
            break;
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
    // The compilers build the run table once per program; a program
    // assembled or edited by hand gets a private one.
    if (prog.runTable.compiledFrom(prog)) {
        runs_ = &prog.runTable;
    } else {
        ownRuns_ = IrRunTable::compile(prog);
        runs_ = &ownRuns_;
    }
    roundSites_ = NoiseSites{};
    tailSites_ = NoiseSites{};
    finalSites_ = NoiseSites{};
    roundSites_.count[(int)kPauli] = (int)runs_->pauliSiteOp.size();
    if (em_.leakageEnabled) {
        roundSites_.count[(int)kLeak] = (int)runs_->leakSiteOp.size();
        roundSites_.count[(int)kSeep] = (int)runs_->leakSiteOp.size();
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
    flagWords_ = (runs_->numOps() + 63) / 64;
    opFlags_.assign((size_t)kFlagPlanes * flagWords_, 0);
    bound_ = &prog;
}

template class BatchFrameSimulatorT<1>;
template class BatchFrameSimulatorT<4>;
template class BatchFrameSimulatorT<8>;

} // namespace qec
