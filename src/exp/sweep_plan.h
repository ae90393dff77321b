/**
 * @file
 * Declarative experiment grids: the `qec::sweep` front half.
 *
 * A SweepPlan names the axes of an evaluation sweep — distances,
 * physical error rates, round counts, removal protocols, decoder
 * kinds, batch widths, and the set of scheduling policies to compare
 * at every point — plus a prototype ExperimentConfig for everything
 * that does not vary. points() expands the grid into fully-resolved
 * SweepPoints, each carrying a deterministic per-point seed derived
 * from the physical axis tuple (sweepPointSeed), which replaces the
 * per-bench magic seed arithmetic the figure reproductions used to
 * hand-roll. SweepRunner (exp/sweep_runner.h) executes a plan.
 */

#ifndef QEC_EXP_SWEEP_PLAN_H
#define QEC_EXP_SWEEP_PLAN_H

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "exp/experiment_session.h"
#include "exp/memory_experiment.h"

namespace qec
{

/** One entry of the rounds axis: rounds = fixed + perDistance * d. */
struct SweepRounds
{
    int fixed = 0;
    int perDistance = 0;

    int
    resolve(int distance) const
    {
        return fixed + perDistance * distance;
    }

    /** The same absolute round count at every distance. */
    static SweepRounds
    exactly(int rounds)
    {
        return SweepRounds{rounds, 0};
    }

    /** `cycles` QEC cycles: rounds = cycles * d. */
    static SweepRounds
    cycles(int cycles)
    {
        return SweepRounds{0, cycles};
    }
};

/** Builds a per-shot policy factory for one experiment point. */
using PolicyBuilder = std::function<PolicyFactory(
    const RotatedSurfaceCode &, const SwapLookupTable &)>;

/**
 * One entry of the policy axis: a named policy kind, or a custom
 * builder (ablation variants, future-work policies). Implicitly
 * constructible from PolicyKind so plans read
 * `plan.policies = {PolicyKind::Always, PolicyKind::Eraser};`.
 */
struct SweepPolicy
{
    /** Display name; empty derives policyKindName(kind, protocol). */
    std::string name;
    PolicyKind kind = PolicyKind::Eraser;
    /** When set, overrides `kind`. */
    PolicyBuilder custom;

    SweepPolicy() = default;
    SweepPolicy(PolicyKind k) : kind(k) {}
    SweepPolicy(std::string display_name, PolicyBuilder builder)
        : name(std::move(display_name)), custom(std::move(builder))
    {
    }

    /** Resolved display name under a protocol. */
    std::string displayName(RemovalProtocol protocol) const;
};

/**
 * Deterministic per-point seed: a splitmix64-chained hash of the
 * *physical* axis tuple — distance, rounds, basis, removal protocol,
 * and every ErrorModel field that shapes the noise streams. The
 * scheme is a contract: the same axis tuple derives the same seed,
 * forever (any change would silently reshuffle every published
 * number). Decoder kind, batch width, shot count, thread count and
 * policy are deliberately excluded: they do not change the physical
 * scenario, so paired comparisons across those axes (policy tables,
 * decoder ablations, the cross-width bit-identity artifact) share
 * identical noise streams.
 *
 * The circuit family joins the chain only when it is not
 * SurfaceMemory: surface points omit the link entirely, so every
 * seed published before the family axis existed is unchanged.
 */
uint64_t sweepPointSeed(int distance, int rounds, Basis basis,
                        RemovalProtocol protocol, const ErrorModel &em,
                        CircuitFamily family =
                            CircuitFamily::SurfaceMemory);

/** One fully-resolved grid point. */
struct SweepPoint
{
    size_t index = 0;
    int distance = 0;
    double p = 0.0;
    int rounds = 0;
    RemovalProtocol protocol = RemovalProtocol::SwapLrc;
    DecoderKind decoderKind = DecoderKind::Mwpm;
    unsigned batchWidth = 64;
    uint64_t shots = 0;
    uint64_t seed = 0;
    /** The complete config a MemoryExperiment runs this point with. */
    ExperimentConfig config;
};

/** Declarative sweep grid. */
struct SweepPlan
{
    std::string name;

    // ------------------------------------------------------- axes
    std::vector<int> distances{5};
    std::vector<double> ps{1e-3};
    std::vector<SweepRounds> rounds{SweepRounds::cycles(10)};
    /** Empty axes fall back to the base config's single value. */
    std::vector<RemovalProtocol> protocols;
    std::vector<DecoderKind> decoders;
    std::vector<unsigned> widths;
    /** Policies compared at every point (they share the point's
     *  experiment, detector model, decoder, and noise streams). */
    std::vector<SweepPolicy> policies{SweepPolicy(PolicyKind::Eraser)};

    // -------------------------------------------- point prototype
    /**
     * Prototype for everything the axes do not cover: decode switch,
     * LPR tracking, basis, threads, batchDecode, error-model shape
     * (transport model, leakage toggles — only `em.p` is overridden
     * per point), decoder options, cache sizing. base.seed is
     * ignored: seeds come from sweepPointSeed (or fixedSeed).
     */
    ExperimentConfig base;
    /** Per-point shot count; unset uses base.shots everywhere. */
    std::function<uint64_t(int distance, double p)> shotsFor;
    /** Override the derived seeds (interactive what-if runs). */
    std::optional<uint64_t> fixedSeed;
    /** Evaluated between chunks by the runner; off by default. */
    EarlyStopRule earlyStop;

    /**
     * Recoverable whole-plan validation: non-empty axes and policy
     * set, valid code distances, engine-supported widths, every
     * expanded point's config accepted by validateExperimentConfig,
     * and every built-in policy by validateExperimentConfig(config,
     * kind) (only Never runs off the surface-memory family).
     * SweepRunner::run validates before executing and surfaces the
     * Status in its summary instead of dying.
     */
    Status validate() const;

    /**
     * Expand the grid (point order: p, protocol, decoder, width,
     * rounds, distance — distance innermost, so LER-vs-d tables read
     * in row order grouped by everything else). An empty axis
     * yields no points; the policy set does not enter the grid.
     */
    std::vector<SweepPoint> points() const;
};

/** Display names shared by the sinks and CLIs. */
const char *protocolName(RemovalProtocol protocol);
const char *decoderKindName(DecoderKind kind);

} // namespace qec

#endif // QEC_EXP_SWEEP_PLAN_H
