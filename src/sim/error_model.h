/**
 * @file
 * Circuit-level error model parameters (paper Section 5.2).
 *
 * The defaults reproduce the paper's configuration: physical error rate
 * p = 1e-3, leakage injection/seepage at 0.1p, leakage transport with
 * probability 0.1 per CNOT involving a leaked qubit, and a multi-level
 * discriminator that misses a leaked state at rate 10p.
 */

#ifndef QEC_SIM_ERROR_MODEL_H
#define QEC_SIM_ERROR_MODEL_H

namespace qec
{

/**
 * How leakage moves between CNOT operands (Section 5.2.2 vs A.1).
 */
enum class TransportModel
{
    /** Main-text model: the source qubit stays leaked after a
     *  transport, so transports grow the leakage population. */
    Conservative,
    /** Appendix A.1 model: leakage is exchanged; the source returns to
     *  a random computational state, so transports preserve the
     *  leakage population. */
    Exchange,
};

/**
 * The noise channels the batch engine samples from per-block hit
 * tables: independent per-(site, lane) Bernoulli trials at a fixed
 * probability, drawn on every lane of every noisy op whatever the
 * simulator state. Seepage only acts on lanes that are leaked at the
 * site, so drawing its trial on every lane and masking is the same
 * distribution as drawing it on leaked lanes only. Everything else —
 * transport, leaked-lane readouts, label misses, DQLR excitation, and
 * the Pauli a depolarizing hit picks — is drawn per lane.
 */
enum class NoiseChannel
{
    /** Depolarizing after gates and idles, readout flip, reset
     *  initialization error: probability p. */
    Pauli,
    /** Leak injection on idling data qubits and on two-qubit gate
     *  operands: probability leakFraction * p. */
    LeakInjection,
    /** Seepage of a leaked qubit at the same sites: probability
     *  seepFraction * p. */
    Seepage,
};

constexpr int kNoiseChannels = 3;

/**
 * All knobs of the noise model. Pauli noise parameters feed both the
 * frame simulator and the detector-error-model weights; leakage
 * parameters feed only the simulator (the decoder is leakage-unaware,
 * exactly as in the paper).
 */
struct ErrorModel
{
    /** Physical error rate p: depolarizing after CNOT/H, measurement
     *  flip, reset initialization error, data idle depolarizing. */
    double p = 1e-3;

    /** Master switch for all leakage phenomena. */
    bool leakageEnabled = true;

    /** Leakage injection probability = leakFraction * p, applied to
     *  data qubits at round start and to CNOT operands. */
    double leakFraction = 0.1;

    /** Seepage probability = seepFraction * p: a leaked qubit returns
     *  to a random computational state. */
    double seepFraction = 0.1;

    /** Per-CNOT leakage transport probability when exactly one operand
     *  is leaked. */
    double pTransport = 0.1;

    /** Multi-level discriminator misses a leaked state at
     *  multiLevelErrMult * p (ERASER+M, Section 5.2.3). */
    double multiLevelErrMult = 10.0;

    /** Probability a failed DQLR reset (parity left in |1>) excites the
     *  data qubit to |L> during LeakageISWAP (Fig. 19(b); 0.5 because
     *  the iSWAP acts in the |11>/|20> subspace, so the data qubit must
     *  hold |1>). */
    double dqlrExciteProb = 0.5;

    TransportModel transport = TransportModel::Conservative;

    double leakInjectProb() const { return leakFraction * p; }
    double seepageProb() const { return seepFraction * p; }
    double multiLevelMissProb() const { return multiLevelErrMult * p; }

    /** Per-site probability of a hit-table channel. */
    double
    channelProb(NoiseChannel channel) const
    {
        switch (channel) {
          case NoiseChannel::Pauli: return p;
          case NoiseChannel::LeakInjection: return leakInjectProb();
          case NoiseChannel::Seepage: return seepageProb();
        }
        return 0.0;
    }

    /** A model with every mechanism disabled (deterministic frames). */
    static ErrorModel
    noiseless()
    {
        ErrorModel em;
        em.p = 0.0;
        em.leakageEnabled = false;
        em.pTransport = 0.0;
        return em;
    }

    /** Pauli noise only: leakage disabled (Fig. 2(c) baseline). */
    static ErrorModel
    withoutLeakage(double p)
    {
        ErrorModel em;
        em.p = p;
        em.leakageEnabled = false;
        return em;
    }

    /** The paper's default full model at physical error rate p. */
    static ErrorModel
    standard(double p)
    {
        ErrorModel em;
        em.p = p;
        return em;
    }
};

} // namespace qec

#endif // QEC_SIM_ERROR_MODEL_H
