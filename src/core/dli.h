/**
 * @file
 * Dynamic LRC Insertion (Sections 4.3-4.4).
 *
 * Given the suspect set (LTT) and the parity cooldown set (PUTT),
 * allocate a SWAP partner for as many suspect data qubits as possible
 * for the next round. The paper's hardware walks the SWAP Lookup
 * Table (primary, then backups); an exact maximum-matching allocator
 * (the shared BipartiteMatcher) is provided as an ablation and for the
 * idealized Optimal policy.
 */

#ifndef QEC_CORE_DLI_H
#define QEC_CORE_DLI_H

#include <vector>

#include "code/builder.h"
#include "code/rotated_surface_code.h"
#include "core/swap_lookup.h"
#include "core/tracking_tables.h"

namespace qec
{

/** Allocation strategy for Dynamic LRC Insertion. */
enum class DliAllocator
{
    /** Paper hardware: primary, then backup entries, first fit. */
    LookupTable,
    /** Exact maximum bipartite matching (upper bound ablation). */
    ExactMatching,
};

/**
 * One word-parallel DLI decision: on lanes `lanes`, data qubit `data`
 * swaps with parity qubit `stab` in the next round.
 */
template <typename Lane>
struct DliGrant
{
    int data = -1;
    int stab = -1;
    Lane lanes{};
};

class DynamicLrcInsertion
{
  public:
    DynamicLrcInsertion(const RotatedSurfaceCode &code,
                        const SwapLookupTable &lookup,
                        DliAllocator allocator =
                            DliAllocator::LookupTable);

    /**
     * Allocate LRCs for the next round.
     *
     * Marked data qubits that receive an LRC are cleared from the LTT;
     * qubits that could not be scheduled stay marked and retry next
     * round. Parity qubits allocated here must be blocked next round;
     * the caller feeds `usedStabs` into PUTT::advanceRound.
     *
     * @param ltt   Suspect table (updated in place).
     * @param putt  Cooldown table for the current round.
     * @param[out] used_stabs Stabilizers allocated in this round.
     * @return LRC pairs for the next syndrome extraction round.
     */
    std::vector<LrcPair> allocate(LeakageTrackingTable &ltt,
                                  const ParityUsageTable &putt,
                                  std::vector<int> &used_stabs) const;

    /**
     * Lookup-table DLI for every lane of a word-parallel table pair at
     * once. Data qubits are walked in ascending order; each tries its
     * primary, then its backups, and takes a parity qubit on the
     * marked lanes where that qubit is neither cooling down (PUTT) nor
     * taken earlier this round: `marks & ~(used | taken)`. Per lane
     * that is exactly the walk `allocate` runs, so lane l's grants
     * are a per-lane EraserPolicy's pairs, in its order. Granted lanes
     * are cleared from the LTT; the caller feeds the grants into
     * BatchParityUsageTable::markPending.
     *
     * @param live   Lanes to allocate for (marks elsewhere stay).
     * @param ltt    Word-parallel suspect table (updated in place).
     * @param putt   Word-parallel cooldown table, current round.
     * @param taken  [numStabilizers] all-zero planes, used as scratch
     *               and all-zero again on return.
     * @param[out] grants Room for maxGrants() entries; receives the
     *               round's grants ascending in data qubit, at most
     *               one per (data, candidate) and each lane at most
     *               once per data qubit.
     * @return Number of grants written.
     */
    template <typename Lane>
    int allocateWords(const Lane &live,
                      BatchLeakageTrackingTable<Lane> &ltt,
                      const BatchParityUsageTable<Lane> &putt,
                      std::vector<Lane> &taken,
                      DliGrant<Lane> *grants) const;

    /** Bound on allocateWords' grants: the lookup table's candidate
     *  (primary + backup) count. */
    int maxGrants() const { return maxGrants_; }

    /**
     * Exact-matching DLI for one lane of a word-parallel table pair
     * (ExactMatching allocator only; matching does not decompose into
     * word operations). The caller hands over the lane's own LTT
     * marks, ascending, so the matching sees exactly the instance
     * `allocate` builds for that lane, augmented in the same order:
     * lane l's output is bit-identical to a per-lane policy's.
     * Allocated qubits are cleared from lane l of the LTT.
     * Allocation-free once `matcher` and `lrcs` have grown to the
     * largest round seen.
     *
     * @param lane      Lane to allocate for.
     * @param marks     Lane l's marked data qubits, ascending.
     * @param num_marks Length of `marks`.
     * @param ltt       Word-parallel suspect table (updated in place).
     * @param putt      Word-parallel cooldown table, current round.
     * @param matcher   Reusable matcher scratch.
     * @param[out] lrcs Cleared, then filled with lane l's pairs in
     *                  ascending data order.
     */
    template <typename Lane>
    void allocateLane(int lane, const int *marks, int num_marks,
                      BatchLeakageTrackingTable<Lane> &ltt,
                      const BatchParityUsageTable<Lane> &putt,
                      BipartiteMatcher &matcher,
                      std::vector<LrcPair> &lrcs) const;

    DliAllocator allocator() const { return allocator_; }

  private:
    std::vector<LrcPair> allocateLookup(
        LeakageTrackingTable &ltt, const ParityUsageTable &putt,
        std::vector<int> &used_stabs) const;
    std::vector<LrcPair> allocateMatching(
        LeakageTrackingTable &ltt, const ParityUsageTable &putt,
        std::vector<int> &used_stabs) const;

    const RotatedSurfaceCode &code_;
    const SwapLookupTable &lookup_;
    DliAllocator allocator_;
    int maxGrants_ = 0;
};

} // namespace qec

#endif // QEC_CORE_DLI_H
