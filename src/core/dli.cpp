#include "core/dli.h"

#include "base/logging.h"

namespace qec
{

DynamicLrcInsertion::DynamicLrcInsertion(const RotatedSurfaceCode &code,
                                         const SwapLookupTable &lookup,
                                         DliAllocator allocator)
    : code_(code), lookup_(lookup), allocator_(allocator)
{
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
void
DynamicLrcInsertion::allocateLane(int lane, const int *marks,
                                  int num_marks,
                                  BatchLeakageTrackingTable<Lane> &ltt,
                                  const BatchParityUsageTable<Lane> &putt,
                                  DliLaneScratch &scratch,
                                  std::vector<LrcPair> &lrcs) const
{
    lrcs.clear();
    const auto usable = [&putt, lane](int s) {
        return !putt.used(s, lane);
    };
    if (allocator_ == DliAllocator::LookupTable) {
        if ((int)scratch.takenEpoch.size() < code_.numStabilizers())
            scratch.takenEpoch.assign(code_.numStabilizers(), 0);
        const int epoch = ++scratch.epoch;
        const auto available = [&](int s) {
            return usable(s) && scratch.takenEpoch[s] != epoch;
        };
        for (int k = 0; k < num_marks; ++k) {
            const int q = marks[k];
            const SwapEntry &entry = lookup_.entry(q);
            int chosen = -1;
            if (available(entry.primary)) {
                chosen = entry.primary;
            } else {
                for (int backup : entry.backups) {
                    if (available(backup)) {
                        chosen = backup;
                        break;
                    }
                }
            }
            if (chosen < 0)
                continue;   // Stays marked; retried next round.
            scratch.takenEpoch[chosen] = epoch;
            lrcs.push_back({q, chosen});
            ltt.clear(q, lane);
        }
        return;
    }

    // Exact matching over the marks, cooled-down stabs excluded: the
    // same instance allocateMatching solves, in the same order.
    BipartiteMatcher &matcher = scratch.matcher;
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

template void DynamicLrcInsertion::allocateLane<uint64_t>(
    int, const int *, int, BatchLeakageTrackingTable<uint64_t> &,
    const BatchParityUsageTable<uint64_t> &, DliLaneScratch &,
    std::vector<LrcPair> &) const;
template void DynamicLrcInsertion::allocateLane<WordVec<4>>(
    int, const int *, int, BatchLeakageTrackingTable<WordVec<4>> &,
    const BatchParityUsageTable<WordVec<4>> &, DliLaneScratch &,
    std::vector<LrcPair> &) const;
template void DynamicLrcInsertion::allocateLane<WordVec<8>>(
    int, const int *, int, BatchLeakageTrackingTable<WordVec<8>> &,
    const BatchParityUsageTable<WordVec<8>> &, DliLaneScratch &,
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
