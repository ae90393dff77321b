/**
 * @file
 * LRC scheduling policies: the paper's baselines (Never, Always-LRCs,
 * idealized Optimal) and the proposed ERASER / ERASER+M controllers.
 *
 * A policy observes each round's syndrome and returns the LRC pairs to
 * insert into the *next* round — matching the paper's pipeline where
 * the control processor has ~120 ns after readout to adapt the next
 * schedule (Fig. 12).
 */

#ifndef QEC_CORE_POLICIES_H
#define QEC_CORE_POLICIES_H

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "code/builder.h"
#include "code/circuit_ir.h"
#include "code/rotated_surface_code.h"
#include "core/dli.h"
#include "core/lsb.h"
#include "core/swap_lookup.h"
#include "core/tracking_tables.h"

namespace qec
{

/** How scheduled leakage removal is realized in the circuit. */
enum class RemovalProtocol
{
    SwapLrc,   ///< SWAP-based LRC (main text).
    Dqlr,      ///< LeakageISWAP-based DQLR protocol (Appendix A.2).
};

/** What a policy sees after each syndrome extraction round. */
struct RoundObservation
{
    int round = 0;
    /** Detection event (syndrome flip vs previous round) per
     *  stabilizer index. */
    std::vector<uint8_t> events;
    /** Multi-level |L> label per stabilizer (ERASER+M input). */
    std::vector<uint8_t> leakedLabels;
    /** Data qubits that received leakage removal in this round. */
    std::vector<uint8_t> hadLrc;
    /** Ground-truth data-qubit leakage (visible to Optimal only). */
    std::vector<uint8_t> trueLeakedData;
};

/**
 * How the word-parallel experiment engine may evaluate a policy
 * across a whole word-group (see BatchEraserController).
 */
enum class BatchPolicyKind
{
    /** No lane-parallel form: one policy instance per lane, fed a
     *  materialized per-lane RoundObservation (the fallback path;
     *  see BatchPolicySpec::oracle for the one exception). */
    PerLane,
    /** The schedule depends only on the round index, never on the
     *  syndrome: one shared instance drives every lane (an empty
     *  schedule, as for No-LRC, included). */
    Uniform,
    /** The ERASER controller: LSB, LTT/PUTT and lookup-table DLI
     *  evaluate word-parallel on bit planes (see
     *  BatchEraserController). */
    Eraser,
};

/** Lane-parallel evaluation capability + parameters of a policy. */
struct BatchPolicySpec
{
    BatchPolicyKind kind = BatchPolicyKind::PerLane;
    /**
     * The idealized Optimal scheduler's capability: the batch
     * controller's oracleRound reproduces the per-lane nextRound from
     * the engine's true-leak planes. Orthogonal to `kind`, which stays
     * PerLane, so a dispatcher that only reads `kind` still runs the
     * per-lane reference and stays correct.
     */
    bool oracle = false;
    /** DLI parameters (kind == Eraser, or oracle). */
    DliAllocator allocator = DliAllocator::LookupTable;
    bool puttCooldown = true;
    /** LSB parameters (kind == Eraser only). */
    bool multiLevel = false;
    LsbThreshold threshold = LsbThreshold::AtLeastTwo;
};

/** Scheduling policy interface. */
class LrcPolicy
{
  public:
    virtual ~LrcPolicy() = default;

    virtual std::string name() const = 0;

    /** ERASER+M consumes |L> labels and squashes the MOV-back when an
     *  LRC'd data qubit reads out as |L> (Section 4.6). */
    virtual bool usesMultiLevelReadout() const { return false; }

    /**
     * Lane-parallel evaluation capability. The default (PerLane) is
     * always correct; overriding it promises the word-parallel
     * evaluation is bit-identical to calling nextRound per lane,
     * which the cross-width differential tests pin.
     */
    virtual BatchPolicySpec batchSpec() const { return {}; }

    /** LRC pairs to execute in round 0 (before any syndrome). */
    virtual std::vector<LrcPair> firstRound() { return {}; }

    /** Observe round obs.round's syndrome; return LRCs for the next
     *  round. */
    virtual std::vector<LrcPair> nextRound(
        const RoundObservation &obs) = 0;
};

/** No leakage removal at all. */
class NeverLrcPolicy : public LrcPolicy
{
  public:
    std::string name() const override { return "No-LRC"; }
    BatchPolicySpec
    batchSpec() const override
    {
        // An empty round-indexed schedule: the Uniform path.
        BatchPolicySpec spec;
        spec.kind = BatchPolicyKind::Uniform;
        return spec;
    }
    std::vector<LrcPair>
    nextRound(const RoundObservation &) override
    {
        return {};
    }
};

/**
 * Always-LRCs (Section 2.4): schedule LRCs for d^2-1 data qubits in
 * every other round (or every round, for the DQLR baseline), rotating
 * which data qubit sits out so all qubits are serviced.
 */
class AlwaysLrcPolicy : public LrcPolicy
{
  public:
    AlwaysLrcPolicy(const RotatedSurfaceCode &code, bool every_round);

    std::string
    name() const override
    {
        return everyRound_ ? "DQLR" : "Always-LRCs";
    }
    BatchPolicySpec
    batchSpec() const override
    {
        // The schedule is a pure function of the round index, so one
        // instance serves every lane of a word-group.
        BatchPolicySpec spec;
        spec.kind = BatchPolicyKind::Uniform;
        return spec;
    }
    std::vector<LrcPair> firstRound() override;
    std::vector<LrcPair> nextRound(const RoundObservation &obs)
        override;

  private:
    std::vector<LrcPair> scheduleFor(int round);

    bool everyRound_;
    /** Two alternating near-perfect pairings with different leftover
     *  data qubits. */
    std::vector<std::vector<LrcPair>> pairings_;
};

/**
 * The proposed controller: Leakage Speculation Block + Dynamic LRC
 * Insertion + tracking tables. With `multi_level` this is ERASER+M.
 */
class EraserPolicy : public LrcPolicy
{
  public:
    /**
     * @param putt_cooldown Block parity qubits used last round
     *        (Section 4.2.2); disabling it is an ablation that lets
     *        leakage accumulate on repeatedly-swapped parity qubits.
     */
    EraserPolicy(const RotatedSurfaceCode &code,
                 const SwapLookupTable &lookup, bool multi_level,
                 LsbThreshold threshold = LsbThreshold::AtLeastTwo,
                 DliAllocator allocator = DliAllocator::LookupTable,
                 bool putt_cooldown = true);

    std::string
    name() const override
    {
        return multiLevel_ ? "ERASER+M" : "ERASER";
    }
    bool usesMultiLevelReadout() const override { return multiLevel_; }
    BatchPolicySpec
    batchSpec() const override
    {
        BatchPolicySpec spec;
        spec.kind = BatchPolicyKind::Eraser;
        spec.multiLevel = multiLevel_;
        spec.puttCooldown = puttCooldown_;
        spec.threshold = threshold_;
        spec.allocator = allocator_;
        return spec;
    }
    std::vector<LrcPair> nextRound(const RoundObservation &obs)
        override;

    const LeakageTrackingTable & ltt() const { return ltt_; }
    const ParityUsageTable & putt() const { return putt_; }

  private:
    bool multiLevel_;
    bool puttCooldown_;
    LsbThreshold threshold_;
    DliAllocator allocator_;
    LeakageSpeculationBlock lsb_;
    DynamicLrcInsertion dli_;
    LeakageTrackingTable ltt_;
    ParityUsageTable putt_;
    std::vector<int> usedStabsScratch_;
};

/**
 * Idealized scheduling (Section 3.2): an oracle schedules removal for
 * exactly the data qubits that are truly leaked, resolving SWAP
 * conflicts with an exact matching and no cooldown constraints.
 */
class OptimalLrcPolicy : public LrcPolicy
{
  public:
    OptimalLrcPolicy(const RotatedSurfaceCode &code,
                     const SwapLookupTable &lookup);

    std::string name() const override { return "Optimal"; }
    BatchPolicySpec
    batchSpec() const override
    {
        // Oracle round on the batch controller: exact matching, no
        // cooldown. `kind` stays PerLane (see BatchPolicySpec::oracle).
        BatchPolicySpec spec;
        spec.oracle = true;
        spec.allocator = DliAllocator::ExactMatching;
        spec.puttCooldown = false;
        return spec;
    }
    std::vector<LrcPair> nextRound(const RoundObservation &obs)
        override;

    /** Oracle marks left after the last round's allocation (the
     *  truly leaked qubits the matching could not serve). */
    const LeakageTrackingTable & ltt() const { return ltt_; }

  private:
    const RotatedSurfaceCode &code_;
    DynamicLrcInsertion dli_;
    ParityUsageTable emptyPutt_;
    /** Oracle-mark table and used-stab list, reused across rounds
     *  (the per-round matching still allocates its scratch). */
    LeakageTrackingTable ltt_;
    std::vector<int> usedStabsScratch_;
};

/**
 * One round's LRC schedule for a word-group, in the form the engine
 * replays (ProgramLrcFillT): the two lane-set planes and, per 64-lane
 * block, the divergent tails. The planes are exactly the union of the
 * tails, which is what lets clear() touch only what the last schedule
 * set.
 */
template <typename Lane>
struct BatchLrcSchedule
{
    static constexpr int kBlocks = (int)(sizeof(Lane) / sizeof(uint64_t));

    BatchLrcSchedule(int num_data, int num_stabs)
        : schedMask(num_data, Lane{}), lrcOnStab(num_stabs, Lane{})
    {
    }

    /** Empty the schedule, touching only the planes its tails set. */
    void
    clear()
    {
        for (auto &tails : blockTails) {
            for (const IrLrcTail &tail : tails) {
                schedMask[tail.data] = Lane{};
                lrcOnStab[tail.stab] = Lane{};
            }
            tails.clear();
        }
        scheduled = 0;
    }

    /** [numData] lanes whose LRC services each data qubit. */
    std::vector<Lane> schedMask;
    /** [numStabs] lanes whose LRC uses each parity qubit. */
    std::vector<Lane> lrcOnStab;
    /** Per 64-lane block, the (stab, data) tails with their block
     *  lane masks, in the order the engine replays them. */
    std::vector<IrLrcTail> blockTails[kBlocks];
    /** Scheduled pairs summed over lanes. */
    uint64_t scheduled = 0;
};

/**
 * Word-parallel ERASER controller: the lane-parallel form of
 * EraserPolicy (and of OptimalLrcPolicy, via oracleRound) for one
 * word-group of W = 64/256/512 shots.
 *
 * Where W per-lane policy instances each scan a materialized
 * byte-array observation, this controller keeps ONE set of LTT/PUTT
 * bit planes for the whole group and evaluates every stage as word
 * arithmetic on them. LSB thresholds all lanes at once straight from
 * the engine's detection-event planes (bit-sliced neighbor counts,
 * had-LRC suppression planes, ERASER+M |L> label planes). DLI with
 * the lookup allocator is a per-data-qubit walk, so it too runs for
 * all lanes at once (DynamicLrcInsertion::allocateWords): each marked
 * qubit, ascending, is granted its primary, then its backups, on the
 * lanes where they are free. Only exact matching (the ablation and
 * Optimal's oracle round) stays per lane: the marks of lanes holding
 * any are transposed into a lane-major arena and each such lane
 * matches over its own marks.
 *
 * The grants are written straight into a BatchLrcSchedule: planes,
 * scheduled count, and per block the tails ordered by their first
 * lane, then data qubit — the order in which merging per-lane
 * schedules lane by lane would first meet them.
 *
 * Lane l's schedule stream is bit-identical to a dedicated
 * EraserPolicy (or OptimalLrcPolicy) fed lane l's observations — the
 * invariant the cross-width controller differentials pin.
 */
template <typename Lane>
class BatchEraserController
{
  public:
    /** @param spec An Eraser spec (nextRound) or an oracle spec
     *              (oracleRound). */
    BatchEraserController(const RotatedSurfaceCode &code,
                          const SwapLookupTable &lookup,
                          const BatchPolicySpec &spec);

    /**
     * Observe one round's planes and write the next round's schedule
     * (Eraser spec).
     *
     * @param events  Detection-event lane plane per stabilizer.
     * @param labels  |L> label lane plane per stabilizer (consulted
     *                only for ERASER+M).
     * @param had_lrc Plane per data qubit: lanes whose LRC serviced
     *                it in the round producing this syndrome. It is
     *                read before `out` is written, so it may be
     *                `out.schedMask` itself.
     * @param live    Live-lane mask of the word-group.
     * @param[out] out Overwritten with the next round's schedule.
     */
    void nextRound(const std::vector<Lane> &events,
                   const std::vector<Lane> &labels,
                   const std::vector<Lane> &had_lrc, const Lane &live,
                   BatchLrcSchedule<Lane> &out);

    /**
     * The Optimal scheduler's round (oracle spec): the LTT is reset to
     * the truly leaked data qubits and DLI allocates with no LSB stage
     * and no cooldown — per lane, exactly OptimalLrcPolicy::nextRound.
     *
     * @param leaked  Ground-truth leak plane per data qubit.
     * @param live    Live-lane mask of the word-group.
     * @param[out] out Overwritten with the next round's schedule.
     */
    void oracleRound(const std::vector<Lane> &leaked, const Lane &live,
                     BatchLrcSchedule<Lane> &out);

    /**
     * Per-lane views of the two rounds above, for callers that compare
     * or replay lane by lane: the same decisions, unpacked into one
     * pair list per lane in allocation order (ascending data qubit).
     * `lrcs` holds at least one entry per live lane; every entry is
     * rewritten (lanes without grants get empty lists).
     */
    void nextRound(const std::vector<Lane> &events,
                   const std::vector<Lane> &labels,
                   const std::vector<Lane> &had_lrc, const Lane &live,
                   std::vector<std::vector<LrcPair>> &lrcs);
    void oracleRound(const std::vector<Lane> &leaked, const Lane &live,
                     std::vector<std::vector<LrcPair>> &lrcs);

    const BatchLeakageTrackingTable<Lane> & ltt() const
    {
        return ltt_;
    }
    const BatchParityUsageTable<Lane> & putt() const { return putt_; }

  private:
    /** DLI on every live marked lane, the schedule write, then the
     *  PUTT advance. */
    void allocateMarked(const Lane &live, BatchLrcSchedule<Lane> &out);
    /** Exact matching per lane, gathered into grants_. */
    void matchLanes(const Lane &live);
    /** Planes, count and block tails from grants_. */
    void writeSchedule(BatchLrcSchedule<Lane> &out) const;
    /** Unpack grants_ into per-lane pair lists. */
    void unpackGrants(std::vector<std::vector<LrcPair>> &lrcs) const;

    const RotatedSurfaceCode &code_;
    bool oracle_;
    bool puttCooldown_;
    LeakageSpeculationBlock lsb_;
    DynamicLrcInsertion dli_;
    BatchLeakageTrackingTable<Lane> ltt_;
    BatchParityUsageTable<Lane> putt_;
    /** This round's decisions, ascending in data qubit: the first
     *  numGrants_ entries (sized to the allocators' bound). */
    std::vector<DliGrant<Lane>> grants_;
    int numGrants_ = 0;
    /** Lookup walk: per-stab "taken this round" planes (all zero
     *  between rounds). */
    std::vector<Lane> taken_;
    /** Schedule the per-lane views decide into. */
    BatchLrcSchedule<Lane> laneViewOut_;

    // Exact matching only.
    BipartiteMatcher matcher_;
    std::vector<LrcPair> lanePairs_;
    /** Data qubits whose LTT plane has any lane set, ascending. */
    std::vector<int> candidates_;
    /** Lane-major marks, one numData() stride per lane: lane l's
     *  marked qubits, ascending, are
     *  markArena_[l * numData(), laneEnd_[l]). */
    std::vector<int> markArena_;
    std::vector<int> laneEnd_;
    /** Matched lanes per (data, adjacent stab) slot; data qubit q's
     *  slots follow code.stabilizersOfData(q) from slotBegin_[q]. All
     *  zero between rounds. */
    std::vector<int> slotBegin_;
    std::vector<Lane> slotLanes_;
};

extern template class BatchEraserController<uint64_t>;
extern template class BatchEraserController<WordVec<4>>;
extern template class BatchEraserController<WordVec<8>>;

/** Named policy kinds for factories and benches. */
enum class PolicyKind
{
    Never,
    Always,
    Eraser,
    EraserM,
    Optimal,
};

/** Factory producing a fresh policy instance per experiment shot. */
using PolicyFactory = std::function<std::unique_ptr<LrcPolicy>()>;

/**
 * Build a factory for a policy kind.
 * @param every_round For Always under the DQLR protocol (schedules
 *        removal each round instead of alternating).
 */
PolicyFactory makePolicyFactory(PolicyKind kind,
                                const RotatedSurfaceCode &code,
                                const SwapLookupTable &lookup,
                                bool every_round = false);

/** Display name of a policy kind (matches LrcPolicy::name()). */
std::string policyKindName(PolicyKind kind, bool every_round = false);

} // namespace qec

#endif // QEC_CORE_POLICIES_H
