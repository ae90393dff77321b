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
 * Reusable scratch for the word-parallel engine's per-lane DLI
 * fallback: the lookup walk's "parity qubit taken this round" set is
 * epoch-versioned and the exact allocator's matcher is stamp-versioned,
 * so consecutive lanes never pay a table wipe or an allocation. One
 * instance per controller, never shared across threads.
 */
struct DliLaneScratch
{
    std::vector<int> takenEpoch;
    int epoch = 0;
    BipartiteMatcher matcher;
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
     * Allocate LRCs for one lane of a word-parallel tracking-table
     * pair — the per-lane fallback the batch controller runs only on
     * lanes whose speculation-active mask is nonzero. The caller
     * hands over the lane's own LTT marks, ascending (the controller
     * transposes them lane-major once per round), so the walk costs
     * O(lane's marks) and visits exactly the qubits `allocate` visits,
     * in the same order (primary then backups / exact matching): lane
     * l's output is bit-identical to a per-lane policy's. Allocated
     * qubits are cleared from lane l of the LTT; the caller feeds the
     * chosen stabs (the pairs' `stab` fields) into
     * BatchParityUsageTable::markPending. Allocation-free once the
     * scratch and `lrcs` have grown to the largest round seen.
     *
     * @param lane      Lane to allocate for.
     * @param marks     Lane l's marked data qubits, ascending.
     * @param num_marks Length of `marks`.
     * @param ltt       Word-parallel suspect table (updated in place).
     * @param putt      Word-parallel cooldown table, current round.
     * @param scratch   Reusable taken set and matcher.
     * @param[out] lrcs Cleared, then filled with lane l's pairs.
     */
    template <typename Lane>
    void allocateLane(int lane, const int *marks, int num_marks,
                      BatchLeakageTrackingTable<Lane> &ltt,
                      const BatchParityUsageTable<Lane> &putt,
                      DliLaneScratch &scratch,
                      std::vector<LrcPair> &lrcs) const;

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
};

} // namespace qec

#endif // QEC_CORE_DLI_H
