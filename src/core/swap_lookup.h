/**
 * @file
 * SWAP Lookup Table (Section 4.4): per data qubit, a pre-determined
 * primary parity qubit plus backup parity qubits, used by Dynamic LRC
 * Insertion to allocate SWAP partners in constant time instead of
 * solving a maximum matching at run time.
 *
 * Primaries are chosen by a maximum bipartite matching so that d^2-1
 * data qubits hold conflict-free primaries (the same pairing drives
 * Always-LRCs scheduling); the one unmatched data qubit shares a
 * primary and relies on its backup (or the next LRC round).
 */

#ifndef QEC_CORE_SWAP_LOOKUP_H
#define QEC_CORE_SWAP_LOOKUP_H

#include <cstdint>
#include <vector>

#include "code/rotated_surface_code.h"

namespace qec
{

/** Primary/backup SWAP partners for one data qubit. */
struct SwapEntry
{
    int primary = -1;              ///< Stabilizer index.
    std::vector<int> backups;      ///< Remaining adjacent stabilizers.
};

class SwapLookupTable
{
  public:
    /**
     * Build the table. @param backup_limit Backups kept per data qubit
     * (the paper's default hardware keeps one).
     */
    explicit SwapLookupTable(const RotatedSurfaceCode &code,
                             int backup_limit = 1);

    const SwapEntry & entry(int data) const { return entries_[data]; }
    int numData() const { return (int)entries_.size(); }

    /** Data qubit left without a unique primary by the matching (used
     *  by Always-LRCs leftover rotation). */
    int unmatchedData() const { return unmatched_; }

    /** The conflict-free (data, stab) pairs found by the matching:
     *  exactly d^2-1 entries. */
    const std::vector<std::pair<int, int>> &
    perfectPairs() const
    {
        return pairs_;
    }

  private:
    std::vector<SwapEntry> entries_;
    std::vector<std::pair<int, int>> pairs_;
    int unmatched_ = -1;
};

/**
 * Maximum bipartite matching by Kuhn's augmenting paths, with reusable
 * epoch-stamped scratch: the one matcher behind the lookup table's
 * primaries, the Always-LRCs pairings and the exact-matching DLI.
 *
 * Left vertices are augmented one at a time in the caller's order,
 * each with a fresh visited set, so a left vertex matched earlier is
 * never unmatched by a later augmentation. Every stamp is unique, so
 * starting an instance or an augmentation is a counter bump, not a
 * wipe: once the scratch is sized, begin() and augment() allocate
 * nothing.
 */
class BipartiteMatcher
{
  public:
    /** Start an empty matching over left ids [0, num_left) and right
     *  ids [0, num_right); grows the scratch only when it is larger
     *  than any earlier instance. */
    void
    begin(int num_left, int num_right)
    {
        if ((int)leftMatch_.size() < num_left)
            leftMatch_.resize(num_left, -1);
        if ((int)seen_.size() < num_right) {
            seen_.resize(num_right, 0);
            rightStamp_.resize(num_right, 0);
            rightMatch_.resize(num_right, -1);
        }
        instance_ = ++stamp_;
    }

    /**
     * Match `left` along an augmenting path, if one exists.
     *
     * @param neighbors neighbors(l) returns a range of l's right
     *                  vertices in preference order.
     * @param usable    usable(r) is false for right vertices excluded
     *                  from this instance (as if absent from every
     *                  neighbor list).
     * @return Whether `left` is now matched.
     */
    template <typename Neighbors, typename Usable>
    bool
    augment(int left, const Neighbors &neighbors, const Usable &usable)
    {
        leftMatch_[left] = -1;
        visit_ = ++stamp_;
        return tryAugment(left, neighbors, usable);
    }

    template <typename Neighbors>
    bool
    augment(int left, const Neighbors &neighbors)
    {
        return augment(left, neighbors, [](int) { return true; });
    }

    /** Right vertex matched to `left` (augmented in this instance),
     *  or -1. */
    int rightOf(int left) const { return leftMatch_[left]; }

    /** Left vertex matched to right vertex `right`, or -1. */
    int
    leftOf(int right) const
    {
        return rightStamp_[right] == instance_ ? rightMatch_[right]
                                               : -1;
    }

  private:
    template <typename Neighbors, typename Usable>
    bool
    tryAugment(int left, const Neighbors &neighbors,
               const Usable &usable)
    {
        for (int right : neighbors(left)) {
            if (seen_[right] == visit_ || !usable(right))
                continue;
            seen_[right] = visit_;
            const int owner = leftOf(right);
            if (owner == -1 || tryAugment(owner, neighbors, usable)) {
                rightStamp_[right] = instance_;
                rightMatch_[right] = left;
                leftMatch_[left] = right;
                return true;
            }
        }
        return false;
    }

    std::vector<uint64_t> seen_;        ///< Visit stamp per right.
    std::vector<uint64_t> rightStamp_;  ///< Instance stamp per right.
    std::vector<int> rightMatch_;
    std::vector<int> leftMatch_;
    uint64_t stamp_ = 0;
    uint64_t instance_ = 0;
    uint64_t visit_ = 0;
};

/** BipartiteMatcher neighbor lists over a code's data -> parity
 *  adjacency (data qubits on the left, stabilizers on the right). */
inline auto
stabilizersOfDataFn(const RotatedSurfaceCode &code)
{
    return [&code](int q) -> const std::vector<int> & {
        return code.stabilizersOfData(q);
    };
}

/**
 * Maximum bipartite matching of a whole instance, left vertices in id
 * order (a one-shot BipartiteMatcher). The reference the DLI tests
 * compare against.
 *
 * @param num_left  Left vertex count.
 * @param adjacency adjacency[l] lists right vertices of l.
 * @param num_right Right vertex count.
 * @return match_left[l] = matched right vertex or -1.
 */
std::vector<int> maxBipartiteMatching(
    int num_left, const std::vector<std::vector<int>> &adjacency,
    int num_right);

} // namespace qec

#endif // QEC_CORE_SWAP_LOOKUP_H
