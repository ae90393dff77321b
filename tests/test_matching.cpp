/**
 * @file
 * Validation of the blossom maximum-weight matching engine against
 * brute force, including blossom-forcing instances (odd cycles) and
 * randomized property sweeps.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/rng.h"
#include "matching.h"

namespace qec
{
namespace
{

/** Total weight of a matching result (each edge counted once). */
int64_t
matchingWeight(const std::vector<int> &partner,
               const std::vector<MatchEdge> &edges)
{
    int64_t total = 0;
    for (const auto &e : edges) {
        if (partner[e.u] == e.v)
            total += e.weight;
    }
    return total;
}

int
matchingCardinality(const std::vector<int> &partner)
{
    int n = 0;
    for (int p : partner)
        n += (p != -1) ? 1 : 0;
    return n / 2;
}

/** Brute-force best matching by trying every subset of edges. */
void
bruteForce(int n, const std::vector<MatchEdge> &edges,
           bool max_cardinality, int64_t &best_weight, int &best_card)
{
    const int m = (int)edges.size();
    best_weight = 0;
    best_card = 0;
    for (uint32_t mask = 0; mask < (1u << m); ++mask) {
        std::vector<int> used(n, 0);
        int64_t weight = 0;
        int card = 0;
        bool valid = true;
        for (int k = 0; k < m && valid; ++k) {
            if (!(mask & (1u << k)))
                continue;
            const auto &e = edges[k];
            if (used[e.u]++ || used[e.v]++)
                valid = false;
            weight += e.weight;
            ++card;
        }
        if (!valid)
            continue;
        if (max_cardinality) {
            if (card > best_card ||
                (card == best_card && weight > best_weight)) {
                best_card = card;
                best_weight = weight;
            }
        } else if (weight > best_weight) {
            best_weight = weight;
            best_card = card;
        }
    }
}

void
checkValid(int n, const std::vector<int> &partner)
{
    for (int v = 0; v < n; ++v) {
        if (partner[v] != -1) {
            ASSERT_GE(partner[v], 0);
            ASSERT_LT(partner[v], n);
            ASSERT_EQ(partner[partner[v]], v);
            ASSERT_NE(partner[v], v);
        }
    }
}

TEST(Matching, EmptyGraph)
{
    auto partner = maxWeightMatching(4, {}, false);
    EXPECT_EQ(matchingCardinality(partner), 0);
}

TEST(Matching, SingleEdge)
{
    auto partner = maxWeightMatching(2, {{0, 1, 5}}, false);
    EXPECT_EQ(partner[0], 1);
    EXPECT_EQ(partner[1], 0);
}

TEST(Matching, PrefersHeavierEdge)
{
    // Path 0-1-2: only one of the two edges can be used.
    auto partner =
        maxWeightMatching(3, {{0, 1, 2}, {1, 2, 7}}, false);
    EXPECT_EQ(partner[1], 2);
    EXPECT_EQ(partner[0], -1);
}

TEST(Matching, PathChoosesEndpointsOverMiddle)
{
    // 0-1 (3), 1-2 (4), 2-3 (3): taking the two outer edges (6)
    // beats the middle edge (4).
    auto partner = maxWeightMatching(
        4, {{0, 1, 3}, {1, 2, 4}, {2, 3, 3}}, false);
    EXPECT_EQ(partner[0], 1);
    EXPECT_EQ(partner[2], 3);
}

TEST(Matching, OddCycleForcesBlossom)
{
    // Triangle with a pendant: matching must reason about the odd
    // cycle {0,1,2}.
    std::vector<MatchEdge> edges = {
        {0, 1, 6}, {1, 2, 5}, {0, 2, 5}, {2, 3, 6}};
    auto partner = maxWeightMatching(4, edges, false);
    checkValid(4, partner);
    EXPECT_EQ(matchingWeight(partner, edges), 12);  // 0-1 and 2-3.
}

TEST(Matching, FiveCycleBlossom)
{
    // 5-cycle with equal weights: best matching picks 2 edges.
    std::vector<MatchEdge> edges = {
        {0, 1, 4}, {1, 2, 4}, {2, 3, 4}, {3, 4, 4}, {4, 0, 4}};
    auto partner = maxWeightMatching(5, edges, false);
    checkValid(5, partner);
    EXPECT_EQ(matchingWeight(partner, edges), 8);
    EXPECT_EQ(matchingCardinality(partner), 2);
}

TEST(Matching, MaxCardinalityTakesLightEdges)
{
    // Without max-cardinality the weight-0 edge is skippable; with it,
    // both pairs must be matched.
    std::vector<MatchEdge> edges = {{0, 1, 9}, {2, 3, 0}};
    auto loose = maxWeightMatching(4, edges, false);
    auto strict = maxWeightMatching(4, edges, true);
    EXPECT_EQ(matchingCardinality(loose), 1);
    EXPECT_EQ(matchingCardinality(strict), 2);
}

TEST(Matching, MinWeightPerfectSimple)
{
    // Complete graph on 4 vertices; min perfect matching is 0-2, 1-3.
    std::vector<MatchEdge> edges = {{0, 1, 10}, {0, 2, 1}, {0, 3, 9},
                                    {1, 2, 8},  {1, 3, 2}, {2, 3, 10}};
    auto partner = minWeightPerfectMatching(4, edges);
    EXPECT_EQ(partner[0], 2);
    EXPECT_EQ(partner[1], 3);
}

struct RandomCase
{
    int n;
    double density;
    bool max_cardinality;
};

class MatchingRandom : public ::testing::TestWithParam<RandomCase>
{
};

TEST_P(MatchingRandom, AgreesWithBruteForce)
{
    const auto param = GetParam();
    Rng rng(0xabcdef01u + param.n * 977 +
            (param.max_cardinality ? 131 : 0));
    for (int trial = 0; trial < 300; ++trial) {
        std::vector<MatchEdge> edges;
        for (int u = 0; u < param.n; ++u) {
            for (int v = u + 1; v < param.n; ++v) {
                if (rng.uniform() < param.density) {
                    edges.push_back(
                        {u, v, (int64_t)rng.randint(50)});
                }
            }
        }
        if (edges.size() > 18)
            edges.resize(18);   // keep brute force tractable

        auto partner =
            maxWeightMatching(param.n, edges, param.max_cardinality);
        checkValid(param.n, partner);

        int64_t best_weight = 0;
        int best_card = 0;
        bruteForce(param.n, edges, param.max_cardinality, best_weight,
                   best_card);
        if (param.max_cardinality) {
            ASSERT_EQ(matchingCardinality(partner), best_card)
                << "trial " << trial;
        }
        ASSERT_EQ(matchingWeight(partner, edges), best_weight)
            << "trial " << trial << " n=" << param.n;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MatchingRandom,
    ::testing::Values(RandomCase{4, 0.7, false}, RandomCase{4, 0.7, true},
                      RandomCase{5, 0.6, false}, RandomCase{5, 0.6, true},
                      RandomCase{6, 0.5, false}, RandomCase{6, 0.5, true},
                      RandomCase{7, 0.4, false}, RandomCase{7, 0.4, true},
                      RandomCase{8, 0.35, false},
                      RandomCase{8, 0.35, true}));

TEST(Matching, MinPerfectRandomAgainstBruteForce)
{
    // Decoder-shaped instances: 2n vertices (defects + boundary
    // twins), always perfectly matchable.
    Rng rng(7);
    for (int trial = 0; trial < 200; ++trial) {
        const int n = 2 + (int)rng.randint(2);  // 2 or 3 defects
        std::vector<MatchEdge> edges;
        for (int i = 0; i < n; ++i) {
            for (int j = i + 1; j < n; ++j) {
                edges.push_back({i, j, (int64_t)(1 + rng.randint(40))});
                edges.push_back({n + i, n + j, 0});
            }
            edges.push_back({i, n + i, (int64_t)(1 + rng.randint(40))});
        }
        auto partner = minWeightPerfectMatching(2 * n, edges);
        checkValid(2 * n, partner);
        for (int v = 0; v < 2 * n; ++v)
            ASSERT_NE(partner[v], -1);

        // Brute force the minimum perfect matching weight.
        int64_t best = INT64_MAX;
        const int m = (int)edges.size();
        for (uint32_t mask = 0; mask < (1u << m); ++mask) {
            std::vector<int> used(2 * n, 0);
            int64_t weight = 0;
            int card = 0;
            bool valid = true;
            for (int k = 0; k < m && valid; ++k) {
                if (!(mask & (1u << k)))
                    continue;
                const auto &e = edges[k];
                if (used[e.u]++ || used[e.v]++)
                    valid = false;
                weight += e.weight;
                ++card;
            }
            if (valid && card == n)
                best = std::min(best, weight);
        }
        ASSERT_EQ(matchingWeight(partner, edges), best);
    }
}

} // namespace
} // namespace qec
