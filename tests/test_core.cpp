/**
 * @file
 * Unit tests for the ERASER microarchitecture blocks: LTT, PUTT, SWAP
 * Lookup Table, Leakage Speculation Block and Dynamic LRC Insertion.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

#include "base/rng.h"
#include "code/rotated_surface_code.h"
#include "core/dli.h"
#include "core/lsb.h"
#include "core/swap_lookup.h"
#include "core/tracking_tables.h"

namespace qec
{
namespace
{

TEST(Ltt, MarkClearQuery)
{
    LeakageTrackingTable ltt(9);
    EXPECT_FALSE(ltt.marked(3));
    ltt.mark(3);
    ltt.mark(7);
    EXPECT_TRUE(ltt.marked(3));
    EXPECT_EQ(ltt.markedList(), (std::vector<int>{3, 7}));
    ltt.clear(3);
    EXPECT_FALSE(ltt.marked(3));
    ltt.reset();
    EXPECT_TRUE(ltt.markedList().empty());
}

TEST(Putt, AdvanceRoundBlocksLastUsers)
{
    ParityUsageTable putt(8);
    EXPECT_FALSE(putt.used(2));
    putt.advanceRound({2, 5});
    EXPECT_TRUE(putt.used(2));
    EXPECT_TRUE(putt.used(5));
    EXPECT_FALSE(putt.used(3));
    // Next round with no LRCs: everything frees up.
    putt.advanceRound({});
    EXPECT_FALSE(putt.used(2));
}

class LookupSweep : public ::testing::TestWithParam<int>
{
  protected:
    RotatedSurfaceCode code_{GetParam()};
    SwapLookupTable lookup_{code_};
};

TEST_P(LookupSweep, PrimariesAreAdjacent)
{
    for (int q = 0; q < code_.numData(); ++q) {
        const auto &entry = lookup_.entry(q);
        const auto &stabs = code_.stabilizersOfData(q);
        EXPECT_NE(std::find(stabs.begin(), stabs.end(), entry.primary),
                  stabs.end());
        for (int b : entry.backups) {
            EXPECT_NE(std::find(stabs.begin(), stabs.end(), b),
                      stabs.end());
            EXPECT_NE(b, entry.primary);
        }
    }
}

TEST_P(LookupSweep, PerfectPairsCoverAllParityQubits)
{
    const auto &pairs = lookup_.perfectPairs();
    EXPECT_EQ((int)pairs.size(), code_.numStabilizers());
    std::set<int> stabs;
    std::set<int> data;
    for (const auto &[q, s] : pairs) {
        EXPECT_TRUE(stabs.insert(s).second);
        EXPECT_TRUE(data.insert(q).second);
    }
    // Exactly one data qubit is left over.
    EXPECT_EQ((int)data.size(), code_.numData() - 1);
    EXPECT_FALSE(data.count(lookup_.unmatchedData()));
}

TEST_P(LookupSweep, BackupLimitRespected)
{
    SwapLookupTable wide(code_, 3);
    for (int q = 0; q < code_.numData(); ++q) {
        EXPECT_LE(lookup_.entry(q).backups.size(), 1u);
        EXPECT_LE(wide.entry(q).backups.size(), 3u);
        // The wide table keeps every remaining neighbour.
        EXPECT_EQ(wide.entry(q).backups.size(),
                  code_.stabilizersOfData(q).size() - 1);
    }
}

INSTANTIATE_TEST_SUITE_P(Distances, LookupSweep,
                         ::testing::Values(3, 5, 7, 9, 11));

TEST(BipartiteMatching, SimpleCases)
{
    // Left 0 connects to right {0,1}; left 1 to {0}: both matchable.
    auto match = maxBipartiteMatching(2, {{0, 1}, {0}}, 2);
    EXPECT_EQ(match[1], 0);
    EXPECT_EQ(match[0], 1);

    // Contention: three lefts share one right.
    match = maxBipartiteMatching(3, {{0}, {0}, {0}}, 1);
    int matched = 0;
    for (int m : match)
        matched += (m != -1) ? 1 : 0;
    EXPECT_EQ(matched, 1);
}

/** Largest matching size by exhaustive search (tiny instances). */
int
bruteForceMatchingSize(const std::vector<std::vector<int>> &adjacency,
                       size_t left, std::vector<uint8_t> &used)
{
    if (left == adjacency.size())
        return 0;
    int best = bruteForceMatchingSize(adjacency, left + 1, used);
    for (int r : adjacency[left]) {
        if (used[r])
            continue;
        used[r] = 1;
        best = std::max(best, 1 + bruteForceMatchingSize(
                                      adjacency, left + 1, used));
        used[r] = 0;
    }
    return best;
}

TEST(BipartiteMatching, ReusedMatcherMatchesFreshAndIsMaximum)
{
    // One matcher reused across instances of varying size (its stamps
    // must isolate them), with a random right-side exclusion filter:
    // it must agree with a fresh matching over the filtered adjacency,
    // and that matching must be maximum.
    Rng rng(31);
    BipartiteMatcher matcher;
    for (int trial = 0; trial < 300; ++trial) {
        const int num_left = (int)(rng.uniform() * 8);
        const int num_right = 1 + (int)(rng.uniform() * 6);
        std::vector<std::vector<int>> adjacency(num_left);
        for (auto &list : adjacency) {
            for (int r = 0; r < num_right; ++r) {
                if (rng.bernoulli(0.4))
                    list.push_back(r);
            }
            std::shuffle(list.begin(), list.end(),
                         std::mt19937(trial));
        }
        std::vector<uint8_t> excluded(num_right);
        for (auto &e : excluded)
            e = rng.bernoulli(0.2) ? 1 : 0;
        std::vector<std::vector<int>> filtered(num_left);
        for (int l = 0; l < num_left; ++l) {
            for (int r : adjacency[l]) {
                if (!excluded[r])
                    filtered[l].push_back(r);
            }
        }

        matcher.begin(num_left, num_right);
        for (int l = 0; l < num_left; ++l)
            matcher.augment(
                l,
                [&adjacency](int v) -> const std::vector<int> & {
                    return adjacency[v];
                },
                [&excluded](int r) { return !excluded[r]; });
        const auto fresh =
            maxBipartiteMatching(num_left, filtered, num_right);

        int size = 0;
        for (int l = 0; l < num_left; ++l) {
            ASSERT_EQ(matcher.rightOf(l), fresh[l]) << "trial " << trial;
            if (fresh[l] >= 0) {
                ++size;
                EXPECT_EQ(matcher.leftOf(fresh[l]), l);
            }
        }
        for (int r = 0; r < num_right; ++r) {
            const int l = matcher.leftOf(r);
            if (l >= 0)
                EXPECT_EQ(matcher.rightOf(l), r);
        }
        std::vector<uint8_t> used(num_right, 0);
        EXPECT_EQ(size, bruteForceMatchingSize(filtered, 0, used))
            << "trial " << trial;
    }
}

class LsbFixture : public ::testing::Test
{
  protected:
    LsbFixture()
        : code_(5),
          lsb_(code_, LsbOptions{LsbThreshold::AtLeastTwo, false}),
          ltt_(code_.numData())
    {
    }

    std::vector<uint8_t>
    noEvents() const
    {
        return std::vector<uint8_t>(code_.numStabilizers(), 0);
    }
    std::vector<uint8_t>
    noLrc() const
    {
        return std::vector<uint8_t>(code_.numData(), 0);
    }

    RotatedSurfaceCode code_;
    LeakageSpeculationBlock lsb_;
    LeakageTrackingTable ltt_;
};

TEST_F(LsbFixture, QuietSyndromeMarksNothing)
{
    lsb_.speculate(noEvents(), noEvents(), noLrc(), ltt_);
    EXPECT_TRUE(ltt_.markedList().empty());
}

TEST_F(LsbFixture, TwoFlipsMarkBulkQubit)
{
    const int q = code_.dataId(2, 2);
    auto events = noEvents();
    const auto &stabs = code_.stabilizersOfData(q);
    ASSERT_EQ(stabs.size(), 4u);
    events[stabs[0]] = 1;
    events[stabs[1]] = 1;
    lsb_.speculate(events, noEvents(), noLrc(), ltt_);
    EXPECT_TRUE(ltt_.marked(q));
}

TEST_F(LsbFixture, OneFlipIsIgnored)
{
    const int q = code_.dataId(2, 2);
    auto events = noEvents();
    events[code_.stabilizersOfData(q)[0]] = 1;
    lsb_.speculate(events, noEvents(), noLrc(), ltt_);
    EXPECT_FALSE(ltt_.marked(q));
}

TEST_F(LsbFixture, RecentLrcSuppressesSpeculation)
{
    const int q = code_.dataId(2, 2);
    auto events = noEvents();
    const auto &stabs = code_.stabilizersOfData(q);
    for (int s : stabs)
        events[s] = 1;
    auto had_lrc = noLrc();
    had_lrc[q] = 1;
    lsb_.speculate(events, noEvents(), had_lrc, ltt_);
    EXPECT_FALSE(ltt_.marked(q));
}

TEST_F(LsbFixture, MultiLevelLabelMarksNeighbors)
{
    LeakageSpeculationBlock lsbm(
        code_, LsbOptions{LsbThreshold::AtLeastTwo, true});
    auto labels = noEvents();
    const int stab = 0;
    labels[stab] = 1;
    lsbm.speculate(noEvents(), labels, noLrc(), ltt_);
    for (int q : code_.stabilizer(stab).support)
        EXPECT_TRUE(ltt_.marked(q));
    EXPECT_EQ(ltt_.markedList().size(),
              code_.stabilizer(stab).support.size());
}

TEST_F(LsbFixture, ThresholdModes)
{
    LeakageSpeculationBlock half(
        code_, LsbOptions{LsbThreshold::HalfNeighbors, false});
    LeakageSpeculationBlock all(
        code_, LsbOptions{LsbThreshold::AllNeighbors, false});
    EXPECT_EQ(lsb_.thresholdFor(2), 2);
    EXPECT_EQ(lsb_.thresholdFor(4), 2);
    EXPECT_EQ(half.thresholdFor(2), 1);
    EXPECT_EQ(half.thresholdFor(3), 2);
    EXPECT_EQ(half.thresholdFor(4), 2);
    EXPECT_EQ(all.thresholdFor(4), 4);
}

class DliFixture : public ::testing::Test
{
  protected:
    DliFixture()
        : code_(5), lookup_(code_),
          dli_(code_, lookup_),
          exact_(code_, lookup_, DliAllocator::ExactMatching),
          ltt_(code_.numData()), putt_(code_.numStabilizers())
    {
    }

    RotatedSurfaceCode code_;
    SwapLookupTable lookup_;
    DynamicLrcInsertion dli_;
    DynamicLrcInsertion exact_;
    LeakageTrackingTable ltt_;
    ParityUsageTable putt_;
};

TEST_F(DliFixture, SingleQubitGetsPrimary)
{
    ltt_.mark(7);
    std::vector<int> used;
    auto lrcs = dli_.allocate(ltt_, putt_, used);
    ASSERT_EQ(lrcs.size(), 1u);
    EXPECT_EQ(lrcs[0].data, 7);
    EXPECT_EQ(lrcs[0].stab, lookup_.entry(7).primary);
    EXPECT_FALSE(ltt_.marked(7));
    EXPECT_EQ(used, (std::vector<int>{lookup_.entry(7).primary}));
}

TEST_F(DliFixture, CooldownForcesBackup)
{
    ltt_.mark(7);
    putt_.advanceRound({lookup_.entry(7).primary});
    std::vector<int> used;
    auto lrcs = dli_.allocate(ltt_, putt_, used);
    ASSERT_EQ(lrcs.size(), 1u);
    ASSERT_FALSE(lookup_.entry(7).backups.empty());
    EXPECT_EQ(lrcs[0].stab, lookup_.entry(7).backups.front());
}

TEST_F(DliFixture, ExhaustedCandidatesStayMarked)
{
    const int q = 7;
    const auto &entry = lookup_.entry(q);
    std::vector<int> block = {entry.primary};
    for (int b : entry.backups)
        block.push_back(b);
    putt_.advanceRound(block);
    ltt_.mark(q);
    std::vector<int> used;
    auto lrcs = dli_.allocate(ltt_, putt_, used);
    EXPECT_TRUE(lrcs.empty());
    EXPECT_TRUE(ltt_.marked(q));   // retried next round
}

TEST_F(DliFixture, NoParityDoubleBooking)
{
    for (int q = 0; q < code_.numData(); ++q)
        ltt_.mark(q);
    std::vector<int> used;
    auto lrcs = dli_.allocate(ltt_, putt_, used);
    std::set<int> stabs;
    std::set<int> data;
    for (const auto &pair : lrcs) {
        EXPECT_TRUE(stabs.insert(pair.stab).second);
        EXPECT_TRUE(data.insert(pair.data).second);
    }
}

TEST_F(DliFixture, ConflictingNeighborsResolvedLikeFig11)
{
    // Two data qubits sharing a stabilizer must both be scheduled via
    // distinct parity qubits (Fig. 11's scenario).
    const auto &stab = code_.stabilizer(code_.stabilizersOfData(
        code_.dataId(2, 2))[0]);
    ASSERT_GE(stab.support.size(), 2u);
    const int a = stab.support[0];
    const int b = stab.support[1];
    ltt_.mark(a);
    ltt_.mark(b);
    std::vector<int> used;
    auto lrcs = exact_.allocate(ltt_, putt_, used);
    ASSERT_EQ(lrcs.size(), 2u);
    EXPECT_NE(lrcs[0].stab, lrcs[1].stab);
}

TEST_F(DliFixture, ExactMatchingAtLeastAsGoodAsLookup)
{
    // Exact matching schedules at least as many LRCs for any suspect
    // set: property-checked over random sets.
    Rng rng(23);
    for (int trial = 0; trial < 200; ++trial) {
        LeakageTrackingTable a(code_.numData());
        LeakageTrackingTable b(code_.numData());
        for (int q = 0; q < code_.numData(); ++q) {
            if (rng.uniform() < 0.25) {
                a.mark(q);
                b.mark(q);
            }
        }
        std::vector<int> used_a;
        std::vector<int> used_b;
        auto via_lookup = dli_.allocate(a, putt_, used_a);
        auto via_exact = exact_.allocate(b, putt_, used_b);
        ASSERT_GE(via_exact.size(), via_lookup.size());
    }
}

} // namespace
} // namespace qec
