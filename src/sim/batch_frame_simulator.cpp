#include "sim/batch_frame_simulator.h"

#include <cmath>

#include "base/logging.h"
#include "code/builder.h"

namespace qec
{

namespace
{

/** Salt separating word-group mask streams from per-lane streams. */
constexpr uint64_t kBatchStreamSalt = 0x9ec0ffeeb47c5a11ULL;

} // namespace

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
    // Block b owns the streams of the 64-lane group that would start
    // at shot first_shot + 64*b: W-wide runs replay the 64-wide runs
    // bit for bit.
    blockRng_.reserve(numBlocks_);
    for (int b = 0; b < numBlocks_; ++b) {
        blockLanes_[b] =
            numLanes_ - 64 * b >= 64 ? 64 : numLanes_ - 64 * b;
        blockRng_.push_back(Rng::forStream(
            seed, first_shot + 64 * (uint64_t)b, kBatchStreamSalt));
    }
    rareStreams_.reserve(8);
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

template <int NW>
typename BatchFrameSimulatorT<NW>::RareStream &
BatchFrameSimulatorT<NW>::rareStreamFor(double p)
{
    for (auto &stream : rareStreams_) {
        if (stream.p == p)
            return stream;
    }
    RareStream stream;
    stream.p = p;
    stream.log1mp = std::log1p(-p);
    for (int b = 0; b < NW; ++b) {
        stream.skip[b] = 0;
        stream.inited[b] = 0;
    }
    rareStreams_.push_back(stream);
    return rareStreams_.back();
}

template <int NW>
uint64_t
BatchFrameSimulatorT<NW>::drawRareBlock(RareStream &stream, int b)
{
    // Identical consumption to a per-block BernoulliMaskSampler: the
    // stream's initial gap is drawn from block b's Rng at b's first
    // gated draw of this probability, exactly when the standalone
    // 64-lane group's sampler would create its stream. The gap/walk
    // algorithms are the sampler's own (shared free functions), so
    // the streams cannot drift apart.
    if (!stream.inited[b]) {
        stream.inited[b] = 1;
        stream.skip[b] =
            bernoulliGeometricGap(blockRng_[b], stream.log1mp);
    }
    return bernoulliRareMask(blockRng_[b], stream.log1mp,
                             stream.skip[b], blockLanes_[b]);
}

template <int NW>
uint64_t
BatchFrameSimulatorT<NW>::drawDenseBlock(double p, int b)
{
    return bernoulliDenseMask(blockRng_[b], p, blockLanes_[b]);
}

template <int NW>
typename BatchFrameSimulatorT<NW>::Lane
BatchFrameSimulatorT<NW>::drawWhere(double p, const Lane &gate)
{
    Lane out{};
    if (p <= 0.0)
        return out;
    if (p >= 1.0) {
        for (int b = 0; b < numBlocks_; ++b) {
            if (laneWord(gate, b))
                laneWordRef(out, b) = laneMask64(blockLanes_[b]);
        }
        return out;
    }
    if (p < BernoulliMaskSampler::kRareThreshold) {
        // One probability lookup for the whole group; per gated block
        // the overwhelmingly common case is a compare + subtract on
        // its contiguous skip counter.
        RareStream &stream = rareStreamFor(p);
        for (int b = 0; b < numBlocks_; ++b) {
            if (!laneWord(gate, b))
                continue;
            const uint64_t n = (uint64_t)blockLanes_[b];
            if (stream.inited[b] && stream.skip[b] >= n) {
                stream.skip[b] -= n;
                continue;
            }
            laneWordRef(out, b) = drawRareBlock(stream, b);
        }
        return out;
    }
    for (int b = 0; b < numBlocks_; ++b) {
        if (laneWord(gate, b))
            laneWordRef(out, b) = drawDenseBlock(p, b);
    }
    return out;
}

template <int NW>
typename BatchFrameSimulatorT<NW>::Lane
BatchFrameSimulatorT<NW>::randBitsWhere(const Lane &gate)
{
    Lane out{};
    for (int b = 0; b < numBlocks_; ++b) {
        if (laneWord(gate, b))
            laneWordRef(out, b) = blockRng_[b].next();
    }
    return out;
}

template <int NW>
void
BatchFrameSimulatorT<NW>::depolarizePerLane(int q, const Lane &mask)
{
    forEachSetLane(mask, [&](int l) {
        // Uniform over {X, Y, Z}, matching the scalar draw order.
        switch (laneRng_[l].randint(3)) {
          case 0: flipLane(x_[q], l); break;
          case 1: flipLane(x_[q], l); flipLane(z_[q], l); break;
          default: flipLane(z_[q], l); break;
        }
    });
}

template <int NW>
void
BatchFrameSimulatorT<NW>::randomComputational(int q, const Lane &mask)
{
    // Per-lane events: touch only the set lanes instead of paying
    // full-plane clears per event (the masks here almost always hold
    // one or two lanes, and events scale with the group width).
    forEachSetLane(mask, [&](int l) {
        clearLane(leaked_[q], l);
        if (laneRng_[l].bit())
            setLane(x_[q], l);
        else
            clearLane(x_[q], l);
        if (laneRng_[l].bit())
            setLane(z_[q], l);
        else
            clearLane(z_[q], l);
    });
}

template <int NW>
void
BatchFrameSimulatorT<NW>::maybeLeak(int q, const Lane &mask)
{
    if (!em_.leakageEnabled)
        return;
    // The draw itself must always happen (it IS the noise stream);
    // the post-draw plane update is skipped on the empty-mask common
    // case.
    const Lane d = drawWhere(em_.leakInjectProb(), mask);
    if (!anyLane(d))
        return;
    leaked_[q] |= d & mask;
}

template <int NW>
void
BatchFrameSimulatorT<NW>::maybeSeep(int q, const Lane &mask)
{
    const Lane leaked = leaked_[q] & mask;
    if (!anyLane(leaked))
        return;
    const Lane m = drawWhere(em_.seepageProb(), leaked) & leaked;
    if (anyLane(m)) {
        // Seeped lanes return in a random computational state.
        randomComputational(q, m);
    }
}

template <int NW>
void
BatchFrameSimulatorT<NW>::opDataNoise(int q, const Lane &mask)
{
    const Lane d = drawWhere(em_.p, mask);
    if (anyLane(d))
        depolarizePerLane(q, andnot(d & mask, leaked_[q]));
    maybeLeak(q, mask);
    maybeSeep(q, mask);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::opReset(int q, const Lane &mask)
{
    x_[q] = andnot(x_[q], mask);
    z_[q] = andnot(z_[q], mask);
    leaked_[q] = andnot(leaked_[q], mask);
    // Initialization error: the qubit comes up in |1> with prob p.
    const Lane d = drawWhere(em_.p, mask);
    if (anyLane(d))
        x_[q] |= d & mask;
}

template <int NW>
void
BatchFrameSimulatorT<NW>::opH(int q, const Lane &mask)
{
    const Lane act = andnot(mask, leaked_[q]);
    const Lane xw = x_[q];
    const Lane zw = z_[q];
    x_[q] = andnot(xw, act) | (zw & act);
    z_[q] = andnot(zw, act) | (xw & act);
    const Lane d = drawWhere(em_.p, mask);
    if (anyLane(d))
        depolarizePerLane(q, d & act);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::twoQubitNoise(int a, int b, const Lane &mask)
{
    const Lane d = drawWhere(em_.p, mask);
    const Lane m = anyLane(d) ? d & mask : Lane{};
    forEachSetLane(m, [&](int l) {
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
    if (em_.leakageEnabled) {
        maybeLeak(a, mask);
        maybeLeak(b, mask);
        maybeSeep(a, mask);
        maybeSeep(b, mask);
    }
}

template <int NW>
void
BatchFrameSimulatorT<NW>::opCnot(int c, int t, const Lane &mask)
{
    const Lane lc = leaked_[c];
    const Lane lt = leaked_[t];
    if (!anyLane((lc | lt) & mask)) {
        // No leaked operand lane: pure frame propagation, no
        // divergence masks to build and no draws to gate (the
        // dominant case while the controller keeps the leakage
        // population suppressed).
        x_[t] ^= x_[c] & mask;
        z_[c] ^= z_[t] & mask;
        twoQubitNoise(c, t, mask);
        return;
    }
    const Lane both_clean = andnot(andnot(mask, lc), lt);
    x_[t] ^= x_[c] & both_clean;
    z_[c] ^= z_[t] & both_clean;

    // Exactly one operand leaked: the gate is uncalibrated for |L>, so
    // the unleaked operand receives a uniformly random Pauli, and
    // leakage may transport.
    const Lane c_only = andnot(mask & lc, lt);
    const Lane t_only = andnot(mask & lt, lc);
    if (anyLane(c_only)) {
        x_[t] ^= randBitsWhere(c_only) & c_only;
        z_[t] ^= randBitsWhere(c_only) & c_only;
    }
    if (anyLane(t_only)) {
        x_[c] ^= randBitsWhere(t_only) & t_only;
        z_[c] ^= randBitsWhere(t_only) & t_only;
    }
    const Lane mixed = c_only | t_only;
    if (anyLane(mixed) && em_.pTransport > 0.0) {
        const Lane tr = drawWhere(em_.pTransport, mixed) & mixed;
        leaked_[t] |= tr & c_only;
        leaked_[c] |= tr & t_only;
        if (em_.transport == TransportModel::Exchange) {
            const Lane src_c = tr & c_only;
            if (anyLane(src_c))
                randomComputational(c, src_c);
            const Lane src_t = tr & t_only;
            if (anyLane(src_t))
                randomComputational(t, src_t);
        }
    }
    // Lanes with both operands leaked see no frame action at all.
    twoQubitNoise(c, t, mask);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::opLeakageIswap(int d, int p, const Lane &mask)
{
    const Lane ld = leaked_[d];
    const Lane lp = leaked_[p];

    // DQLR moves the data qubit's leakage onto the (just reset) parity
    // qubit; the data qubit returns to a random computational state.
    const Lane move = andnot(mask & ld, lp);
    if (anyLane(move)) {
        leaked_[p] |= move;
        randomComputational(d, move);
    }

    // Reset failure left the parity qubit in |1>: the iSWAP acts in the
    // |11>/|20> subspace and can excite the data qubit to |L>.
    const Lane excitable = andnot(andnot(mask, ld), lp) & x_[p];
    if (anyLane(excitable) && em_.leakageEnabled &&
        em_.dqlrExciteProb > 0.0) {
        leaked_[d] |=
            drawWhere(em_.dqlrExciteProb, excitable) & excitable;
    }
    // The op has CNOT-class fidelity (Section A.2.2).
    twoQubitNoise(d, p, mask);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::opMeasure(const Op &op, bool x_basis,
                                    const Lane &mask)
{
    const int q = op.q0;
    const Lane frame = x_basis ? z_[q] : x_[q];
    const Lane lk = leaked_[q] & mask;

    // Unleaked lanes report the frame; a two-level discriminator
    // classifies |L> randomly, and the multi-level discriminator flags
    // |L> unless it errs.
    Lane flips = andnot(frame, leaked_[q]) & mask;
    Lane labels{};
    if (anyLane(lk)) {
        flips |= randBitsWhere(lk) & lk;
        labels =
            andnot(lk, drawWhere(em_.multiLevelMissProb(), lk));
    }
    const Lane me = drawWhere(em_.p, mask);
    if (anyLane(me))
        flips ^= me & mask;

    Record rec;
    rec.qubit = q;
    rec.stab = op.stab;
    rec.round = op.round;
    rec.finalData = op.finalData;
    rec.lrcData = op.lrcData;
    rec.mask = mask;
    rec.flips = flips;
    rec.leakedLabels = labels;
    record_.push_back(rec);
}

template <int NW>
uint64_t
BatchFrameSimulatorT<NW>::drawBlockWhere(double p, int b,
                                         uint64_t gate)
{
    if (!gate || p <= 0.0)
        return 0;
    if (p >= 1.0)
        return laneMask64(blockLanes_[b]);
    if (p < BernoulliMaskSampler::kRareThreshold) {
        RareStream &stream = rareStreamFor(p);
        const uint64_t n = (uint64_t)blockLanes_[b];
        if (stream.inited[b] && stream.skip[b] >= n) {
            stream.skip[b] -= n;
            return 0;
        }
        return drawRareBlock(stream, b);
    }
    return drawDenseBlock(p, b);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::depolarizePerLaneB(int q, int b,
                                             uint64_t mask)
{
    // The Lane version is already a pure per-set-lane loop, so the
    // block variant just lifts the word into a one-block lane set:
    // one definition of the RNG-stream-critical body.
    Lane m{};
    laneWordRef(m, b) = mask;
    depolarizePerLane(q, m);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::randomComputationalB(int q, int b,
                                               uint64_t mask)
{
    Lane m{};
    laneWordRef(m, b) = mask;
    randomComputational(q, m);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::maybeLeakB(int q, int b, uint64_t mask)
{
    if (!em_.leakageEnabled)
        return;
    const uint64_t d = drawBlockWhere(em_.leakInjectProb(), b, mask);
    if (!d)
        return;
    laneWordRef(leaked_[q], b) |= d & mask;
}

template <int NW>
void
BatchFrameSimulatorT<NW>::maybeSeepB(int q, int b, uint64_t mask)
{
    const uint64_t leaked = laneWord(leaked_[q], b) & mask;
    if (!leaked)
        return;
    const uint64_t m =
        drawBlockWhere(em_.seepageProb(), b, leaked) & leaked;
    if (m)
        randomComputationalB(q, b, m);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::twoQubitNoiseB(int qa, int qb, int b,
                                         uint64_t mask)
{
    const uint64_t d = drawBlockWhere(em_.p, b, mask);
    uint64_t m = d & mask;
    const int base = 64 * b;
    while (m) {
        const int l = base + __builtin_ctzll(m);
        m &= m - 1;
        // One of the 15 non-identity two-qubit Paulis, uniformly.
        const uint32_t pp = 1 + laneRng_[l].randint(15);
        const uint32_t pa = pp & 3;
        const uint32_t pb = (pp >> 2) & 3;
        if (!testLane(leaked_[qa], l)) {
            if (pa == 1 || pa == 2)
                flipLane(x_[qa], l);
            if (pa == 2 || pa == 3)
                flipLane(z_[qa], l);
        }
        if (!testLane(leaked_[qb], l)) {
            if (pb == 1 || pb == 2)
                flipLane(x_[qb], l);
            if (pb == 2 || pb == 3)
                flipLane(z_[qb], l);
        }
    }
    if (em_.leakageEnabled) {
        maybeLeakB(qa, b, mask);
        maybeLeakB(qb, b, mask);
        maybeSeepB(qa, b, mask);
        maybeSeepB(qb, b, mask);
    }
}

template <int NW>
void
BatchFrameSimulatorT<NW>::opResetB(int q, int b, uint64_t mask)
{
    laneWordRef(x_[q], b) &= ~mask;
    laneWordRef(z_[q], b) &= ~mask;
    laneWordRef(leaked_[q], b) &= ~mask;
    // Initialization error: the qubit comes up in |1> with prob p.
    const uint64_t d = drawBlockWhere(em_.p, b, mask);
    if (d)
        laneWordRef(x_[q], b) |= d & mask;
}

template <int NW>
void
BatchFrameSimulatorT<NW>::opCnotB(int c, int t, int b, uint64_t mask)
{
    const uint64_t lc = laneWord(leaked_[c], b);
    const uint64_t lt = laneWord(leaked_[t], b);
    if (!((lc | lt) & mask)) {
        laneWordRef(x_[t], b) ^= laneWord(x_[c], b) & mask;
        laneWordRef(z_[c], b) ^= laneWord(z_[t], b) & mask;
        twoQubitNoiseB(c, t, b, mask);
        return;
    }
    const uint64_t both_clean = (mask & ~lc) & ~lt;
    laneWordRef(x_[t], b) ^= laneWord(x_[c], b) & both_clean;
    laneWordRef(z_[c], b) ^= laneWord(z_[t], b) & both_clean;

    // Exactly one operand leaked: the gate is uncalibrated for |L>, so
    // the unleaked operand receives a uniformly random Pauli, and
    // leakage may transport.
    const uint64_t c_only = (mask & lc) & ~lt;
    const uint64_t t_only = (mask & lt) & ~lc;
    if (c_only) {
        laneWordRef(x_[t], b) ^= blockRng_[b].next() & c_only;
        laneWordRef(z_[t], b) ^= blockRng_[b].next() & c_only;
    }
    if (t_only) {
        laneWordRef(x_[c], b) ^= blockRng_[b].next() & t_only;
        laneWordRef(z_[c], b) ^= blockRng_[b].next() & t_only;
    }
    const uint64_t mixed = c_only | t_only;
    if (mixed && em_.pTransport > 0.0) {
        const uint64_t tr =
            drawBlockWhere(em_.pTransport, b, mixed) & mixed;
        laneWordRef(leaked_[t], b) |= tr & c_only;
        laneWordRef(leaked_[c], b) |= tr & t_only;
        if (em_.transport == TransportModel::Exchange) {
            const uint64_t src_c = tr & c_only;
            if (src_c)
                randomComputationalB(c, b, src_c);
            const uint64_t src_t = tr & t_only;
            if (src_t)
                randomComputationalB(t, b, src_t);
        }
    }
    // Lanes with both operands leaked see no frame action at all.
    twoQubitNoiseB(c, t, b, mask);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::opLeakageIswapB(int d, int p, int b,
                                          uint64_t mask)
{
    const uint64_t ld = laneWord(leaked_[d], b);
    const uint64_t lp = laneWord(leaked_[p], b);

    // DQLR moves the data qubit's leakage onto the (just reset) parity
    // qubit; the data qubit returns to a random computational state.
    const uint64_t move = (mask & ld) & ~lp;
    if (move) {
        laneWordRef(leaked_[p], b) |= move;
        randomComputationalB(d, b, move);
    }

    // Reset failure left the parity qubit in |1>: the iSWAP acts in the
    // |11>/|20> subspace and can excite the data qubit to |L>.
    const uint64_t excitable =
        ((mask & ~ld) & ~lp) & laneWord(x_[p], b);
    if (excitable && em_.leakageEnabled && em_.dqlrExciteProb > 0.0) {
        laneWordRef(leaked_[d], b) |=
            drawBlockWhere(em_.dqlrExciteProb, b, excitable) &
            excitable;
    }
    // The op has CNOT-class fidelity (Section A.2.2).
    twoQubitNoiseB(d, p, b, mask);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::opMeasureB(const Op &op, bool x_basis, int b,
                                     uint64_t mask)
{
    const int q = op.q0;
    const uint64_t frame =
        x_basis ? laneWord(z_[q], b) : laneWord(x_[q], b);
    const uint64_t lw = laneWord(leaked_[q], b);
    const uint64_t lk = lw & mask;

    // Unleaked lanes report the frame; a two-level discriminator
    // classifies |L> randomly, and the multi-level discriminator flags
    // |L> unless it errs.
    uint64_t flips = (frame & ~lw) & mask;
    uint64_t labels = 0;
    if (lk) {
        flips |= blockRng_[b].next() & lk;
        labels =
            lk & ~drawBlockWhere(em_.multiLevelMissProb(), b, lk);
    }
    const uint64_t me = drawBlockWhere(em_.p, b, mask);
    if (me)
        flips ^= me & mask;

    Record rec;
    rec.qubit = q;
    rec.stab = op.stab;
    rec.round = op.round;
    rec.finalData = op.finalData;
    rec.lrcData = op.lrcData;
    laneWordRef(rec.mask, b) = mask;
    laneWordRef(rec.flips, b) = flips;
    laneWordRef(rec.leakedLabels, b) = labels;
    record_.push_back(rec);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::executeBlock(const Op &op, int block,
                                       uint64_t mask)
{
    if (NW == 1) {
        Lane m{};
        laneWordRef(m, block) = mask;
        execute(op, m);
        return;
    }
    mask &= laneWord(live_, block);
    if (!mask)
        return;
    switch (op.type) {
      case OpType::Reset:
        opResetB(op.q0, block, mask);
        break;
      case OpType::Cnot:
        opCnotB(op.q0, op.q1, block, mask);
        break;
      case OpType::LeakageIswap:
        opLeakageIswapB(op.q0, op.q1, block, mask);
        break;
      case OpType::Measure:
        opMeasureB(op, false, block, mask);
        break;
      case OpType::MeasureX:
        opMeasureB(op, true, block, mask);
        break;
      default: {
        // Not part of the tail repertoire: full-width path.
        Lane m{};
        laneWordRef(m, block) = mask;
        execute(op, m);
        break;
      }
    }
}

template <int NW>
void
BatchFrameSimulatorT<NW>::execute(const Op &op, const Lane &mask_in)
{
    const Lane mask = mask_in & live_;
    if (!anyLane(mask))
        return;
    switch (op.type) {
      case OpType::RoundStart:
        break;
      case OpType::DataNoise:
        opDataNoise(op.q0, mask);
        break;
      case OpType::Reset:
        opReset(op.q0, mask);
        break;
      case OpType::H:
        opH(op.q0, mask);
        break;
      case OpType::Cnot:
        opCnot(op.q0, op.q1, mask);
        break;
      case OpType::LeakageIswap:
        opLeakageIswap(op.q0, op.q1, mask);
        break;
      case OpType::Measure:
        opMeasure(op, false, mask);
        break;
      case OpType::MeasureX:
        opMeasure(op, true, mask);
        break;
    }
}

template <int NW>
void
BatchFrameSimulatorT<NW>::executeRange(const Op *begin, const Op *end,
                                       const Lane &mask)
{
    for (const Op *op = begin; op != end; ++op)
        execute(*op, mask);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::executeLrcTail(const CircuitProgram &prog,
                                         const IrLrcTail &t, int b,
                                         int round, bool multi_level)
{
    const int parity = prog.stabAncilla[t.stab];
    // Tail masks never span blocks, so each op runs on the engine's
    // single-block path: word arithmetic on plane word b regardless
    // of NW, keeping the per-tail cost width-invariant.
    if (prog.tail == IrTailKind::SwapLrc) {
        // SWAP D <-> P, measure + reset D, MOV back -- with the
        // ERASER+M in-round rule: lanes whose data readout is
        // labelled |L> squash the MOV and reset P instead.
        executeBlock(makeOp(OpType::Cnot, t.data, parity), b, t.mask);
        executeBlock(makeOp(OpType::Cnot, parity, t.data), b, t.mask);
        executeBlock(makeOp(OpType::Cnot, t.data, parity), b, t.mask);
        Op meas = makeOp(OpType::Measure, t.data);
        meas.stab = t.stab;
        meas.round = round;
        meas.lrcData = true;
        executeBlock(meas, b, t.mask);
        uint64_t squash = 0;
        if (multi_level)
            squash = laneWord(record_.back().leakedLabels, b) & t.mask;
        executeBlock(makeOp(OpType::Reset, t.data), b, t.mask);
        const uint64_t mov = t.mask & ~squash;
        if (mov) {
            executeBlock(makeOp(OpType::Cnot, parity, t.data), b, mov);
            executeBlock(makeOp(OpType::Cnot, t.data, parity), b, mov);
        }
        if (squash)
            executeBlock(makeOp(OpType::Reset, parity), b, squash);
    } else {
        executeBlock(makeOp(OpType::LeakageIswap, t.data, parity), b,
                     t.mask);
        executeBlock(makeOp(OpType::Reset, parity), b, t.mask);
    }
}

template <int NW>
void
BatchFrameSimulatorT<NW>::executeProgramRound(
    const CircuitProgram &prog, int round, const Lane &mask,
    const ProgramLrcFillT<NW> *fills, int num_fills)
{
    for (size_t i = prog.bodyBegin; i < prog.bodyEnd; ++i) {
        const IrInst &inst = prog.instrs[i];
        switch (inst.op) {
          case IrOpcode::Gate:
            execute(prog.pool[inst.a], mask);
            break;
          case IrOpcode::Readout: {
            Lane m = mask;
            if (prog.maskReadoutOnLrc) {
                for (int f = 0; f < num_fills; ++f)
                    if (fills[f].lrcOnStab)
                        m = andnot(m, fills[f].lrcOnStab[inst.a]);
            }
            // Skipping the whole pair when no lane remains mirrors
            // the hand-wired drivers (and execute()'s own empty-mask
            // early return): no draws, no record entry.
            if (!anyLane(m))
                break;
            Op meas = prog.pool[inst.b];
            meas.round = round;
            execute(meas, m);
            execute(prog.pool[(size_t)inst.b + 1], m);
            break;
          }
          case IrOpcode::LrcSlot: {
            if (!fills || inst.a >= num_fills)
                break;
            const ProgramLrcFillT<NW> &fill = fills[inst.a];
            if (!fill.blockTails)
                break;
            for (int b = 0; b < numBlocks_; ++b)
                for (const IrLrcTail &t : fill.blockTails[b])
                    executeLrcTail(prog, t, b, round,
                                   fill.multiLevel);
            break;
          }
          default:
            break;
        }
    }
}

template <int NW>
void
BatchFrameSimulatorT<NW>::executeProgramFinal(const CircuitProgram &prog,
                                              const Lane &mask)
{
    for (size_t i = prog.bodyEnd + 1; i < prog.instrs.size(); ++i)
        execute(prog.pool[prog.instrs[i].a], mask);
}

template <int NW>
void
BatchFrameSimulatorT<NW>::executeProgram(const CircuitProgram &prog)
{
    bindProgramStreams(prog);
    for (int r = 0; r < prog.rounds; ++r)
        executeProgramRound(prog, r, live_);
    executeProgramFinal(prog, live_);
}

template <int NW>
int
BatchFrameSimulatorT<NW>::noiseStreamId(double p)
{
    if (p <= 0.0 || p >= BernoulliMaskSampler::kRareThreshold)
        return -1;
    RareStream &stream = rareStreamFor(p);
    return (int)(&stream - rareStreams_.data());
}

template <int NW>
void
BatchFrameSimulatorT<NW>::bindProgramStreams(const CircuitProgram &prog)
{
    bool two_qubit = false, measure = false, iswap = false;
    const auto scan = [&](const Op &op) {
        switch (op.type) {
          case OpType::Cnot:
            two_qubit = true;
            break;
          case OpType::LeakageIswap:
            two_qubit = true;
            iswap = true;
            break;
          case OpType::Measure:
          case OpType::MeasureX:
            measure = true;
            break;
          default:
            break;
        }
    };
    for (const Op &op : prog.pool)
        scan(op);
    // Tail templates draw streams the pool may not (a DQLR program's
    // pool has no LeakageIswap — only its tails do). Registration is
    // content-neutral (streams are keyed by probability, lazily
    // initialized per block), so scanning them only moves allocation
    // up front.
    for (const IrTailTemplate &tmpl : prog.tailTemplates)
        for (const Op &op : tmpl.ops)
            scan(op);
    noiseStreamId(em_.p);
    if (em_.leakageEnabled) {
        noiseStreamId(em_.leakInjectProb());
        noiseStreamId(em_.seepageProb());
        if (measure)
            noiseStreamId(em_.multiLevelMissProb());
        if (two_qubit)
            noiseStreamId(em_.pTransport);
        if (iswap)
            noiseStreamId(em_.dqlrExciteProb);
    }
}

template class BatchFrameSimulatorT<1>;
template class BatchFrameSimulatorT<4>;
template class BatchFrameSimulatorT<8>;

} // namespace qec
