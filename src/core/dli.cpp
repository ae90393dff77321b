#include "core/dli.h"

#include "base/logging.h"

namespace qec
{

DynamicLrcInsertion::DynamicLrcInsertion(const RotatedSurfaceCode &code,
                                         const SwapLookupTable &lookup,
                                         DliAllocator allocator)
    : code_(code), lookup_(lookup), allocator_(allocator)
{
    for (int q = 0; q < lookup.numData(); ++q)
        maxGrants_ += 1 + (int)lookup.entry(q).backups.size();
}

std::vector<LrcPair>
DynamicLrcInsertion::allocate(LeakageTrackingTable &ltt,
                              const ParityUsageTable &putt,
                              std::vector<int> &used_stabs) const
{
    if (allocator_ == DliAllocator::LookupTable)
        return allocateLookup(ltt, putt, used_stabs);
    return allocateMatching(ltt, putt, used_stabs);
}

std::vector<LrcPair>
DynamicLrcInsertion::allocateLookup(LeakageTrackingTable &ltt,
                                    const ParityUsageTable &putt,
                                    std::vector<int> &used_stabs) const
{
    std::vector<LrcPair> lrcs;
    if (ltt.markedCount() == 0)
        return lrcs;   // quiescent round: nothing to place, no work
    std::vector<uint8_t> taken(code_.numStabilizers(), 0);

    for (int q = 0; q < ltt.size(); ++q) {
        if (!ltt.marked(q))
            continue;
        const SwapEntry &entry = lookup_.entry(q);
        int chosen = -1;
        if (!putt.used(entry.primary) && !taken[entry.primary]) {
            chosen = entry.primary;
        } else {
            for (int backup : entry.backups) {
                if (!putt.used(backup) && !taken[backup]) {
                    chosen = backup;
                    break;
                }
            }
        }
        if (chosen < 0)
            continue;   // Stays marked; retried next round.
        taken[chosen] = 1;
        used_stabs.push_back(chosen);
        lrcs.push_back({q, chosen});
        ltt.clear(q);
    }
    return lrcs;
}

template <typename Lane>
int
DynamicLrcInsertion::allocateWords(const Lane &live,
                                   BatchLeakageTrackingTable<Lane> &ltt,
                                   const BatchParityUsageTable<Lane> &putt,
                                   std::vector<Lane> &taken,
                                   DliGrant<Lane> *grants) const
{
    // Every candidate writes a grant slot and only a nonempty one is
    // kept, so the walk has no data-dependent branch. The unserved
    // lanes of a qubit try its next candidate, as each lane's own
    // walk would.
    int n = 0;
    for (int q = 0; q < ltt.size(); ++q) {
        const Lane marked = ltt.word(q) & live;
        Lane rest = marked;
        const auto grant = [&](int s) {
            const Lane lanes = andnot(rest, putt.word(s) | taken[s]);
            grants[n] = {q, s, lanes};
            n += anyLane(lanes);
            taken[s] |= lanes;
            rest = andnot(rest, lanes);
        };
        const SwapEntry &entry = lookup_.entry(q);
        grant(entry.primary);
        for (int s : entry.backups)
            grant(s);
        // Unserved lanes stay marked; retried next round.
        ltt.clear(q, andnot(marked, rest));
    }
    for (int i = 0; i < n; ++i)
        taken[grants[i].stab] = Lane{};
    return n;
}

template <typename Lane>
void
DynamicLrcInsertion::allocateLane(int lane, const int *marks,
                                  int num_marks,
                                  BatchLeakageTrackingTable<Lane> &ltt,
                                  const BatchParityUsageTable<Lane> &putt,
                                  BipartiteMatcher &matcher,
                                  std::vector<LrcPair> &lrcs) const
{
    panicIf(allocator_ != DliAllocator::ExactMatching,
            "allocateLane runs the exact-matching allocator only");
    lrcs.clear();
    // Exact matching over the marks, cooled-down stabs excluded: the
    // same instance allocateMatching solves, in the same order.
    const auto usable = [&putt, lane](int s) {
        return !putt.used(s, lane);
    };
    matcher.begin(code_.numData(), code_.numStabilizers());
    for (int k = 0; k < num_marks; ++k)
        matcher.augment(marks[k], stabilizersOfDataFn(code_), usable);
    for (int k = 0; k < num_marks; ++k) {
        const int stab = matcher.rightOf(marks[k]);
        if (stab < 0)
            continue;
        lrcs.push_back({marks[k], stab});
        ltt.clear(marks[k], lane);
    }
}

template int DynamicLrcInsertion::allocateWords<uint64_t>(
    const uint64_t &, BatchLeakageTrackingTable<uint64_t> &,
    const BatchParityUsageTable<uint64_t> &, std::vector<uint64_t> &,
    DliGrant<uint64_t> *) const;
template void DynamicLrcInsertion::allocateLane<uint64_t>(
    int, const int *, int, BatchLeakageTrackingTable<uint64_t> &,
    const BatchParityUsageTable<uint64_t> &, BipartiteMatcher &,
    std::vector<LrcPair> &) const;
template int DynamicLrcInsertion::allocateWords<WordVec<4>>(
    const WordVec<4> &, BatchLeakageTrackingTable<WordVec<4>> &,
    const BatchParityUsageTable<WordVec<4>> &, std::vector<WordVec<4>> &,
    DliGrant<WordVec<4>> *) const;
template void DynamicLrcInsertion::allocateLane<WordVec<4>>(
    int, const int *, int, BatchLeakageTrackingTable<WordVec<4>> &,
    const BatchParityUsageTable<WordVec<4>> &, BipartiteMatcher &,
    std::vector<LrcPair> &) const;
template int DynamicLrcInsertion::allocateWords<WordVec<8>>(
    const WordVec<8> &, BatchLeakageTrackingTable<WordVec<8>> &,
    const BatchParityUsageTable<WordVec<8>> &, std::vector<WordVec<8>> &,
    DliGrant<WordVec<8>> *) const;
template void DynamicLrcInsertion::allocateLane<WordVec<8>>(
    int, const int *, int, BatchLeakageTrackingTable<WordVec<8>> &,
    const BatchParityUsageTable<WordVec<8>> &, BipartiteMatcher &,
    std::vector<LrcPair> &) const;

std::vector<LrcPair>
DynamicLrcInsertion::allocateMatching(LeakageTrackingTable &ltt,
                                      const ParityUsageTable &putt,
                                      std::vector<int> &used_stabs) const
{
    if (ltt.markedCount() == 0)
        return {};
    BipartiteMatcher matcher;
    matcher.begin(code_.numData(), code_.numStabilizers());
    const auto usable = [&putt](int s) { return !putt.used(s); };
    for (int q = 0; q < ltt.size(); ++q) {
        if (ltt.marked(q))
            matcher.augment(q, stabilizersOfDataFn(code_), usable);
    }

    std::vector<LrcPair> lrcs;
    for (int q = 0; q < ltt.size(); ++q) {
        if (!ltt.marked(q))
            continue;
        const int stab = matcher.rightOf(q);
        if (stab < 0)
            continue;
        used_stabs.push_back(stab);
        lrcs.push_back({q, stab});
        ltt.clear(q);
    }
    return lrcs;
}

} // namespace qec
