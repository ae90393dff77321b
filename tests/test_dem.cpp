/**
 * @file
 * Detector-error-model tests: tiled construction must equal direct
 * enumeration, the edge list must match golden order-sensitive
 * digests, signatures must be graph-like, and probabilities sane.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <tuple>

#include "code/circuit_ir.h"
#include "decoder/detector_model.h"

namespace qec
{
namespace
{

using EdgeKey = std::tuple<int, int, bool>;
using EdgeMap = std::map<EdgeKey, std::tuple<int, int, int>>;

EdgeMap
toMap(const DetectorModel &model)
{
    EdgeMap map;
    for (const auto &e : model.edges) {
        auto key = EdgeKey{e.a, e.b, e.obsFlip};
        auto &counts = map[key];
        std::get<0>(counts) += e.n1;
        std::get<1>(counts) += e.n3;
        std::get<2>(counts) += e.n15;
    }
    return map;
}

/** Direct enumeration of the compiled surface-memory program. */
DetectorModel
surfaceDirect(const RotatedSurfaceCode &code, int rounds, Basis basis)
{
    return buildDetectorModelDirect(CircuitCompiler::surfaceMemory(
        code, rounds, basis, IrTailKind::SwapLrc));
}

class DemTileSweep
    : public ::testing::TestWithParam<std::tuple<int, int, Basis>>
{
};

TEST_P(DemTileSweep, TiledMatchesDirect)
{
    const auto [d, rounds, basis] = GetParam();
    RotatedSurfaceCode code(d);
    DetectorModel direct = surfaceDirect(code, rounds, basis);
    DetectorModel tiled = buildDetectorModel(code, rounds, basis);
    ASSERT_GT(rounds, 8) << "sweep must exercise the tiling path";

    EXPECT_EQ(tiled.rounds, direct.rounds);
    EXPECT_EQ(tiled.stabsPerRound, direct.stabsPerRound);

    EdgeMap dm = toMap(direct);
    EdgeMap tm = toMap(tiled);
    ASSERT_EQ(dm.size(), tm.size());
    for (const auto &[key, counts] : dm) {
        auto it = tm.find(key);
        ASSERT_NE(it, tm.end())
            << "missing edge (" << std::get<0>(key) << ","
            << std::get<1>(key) << ")";
        EXPECT_EQ(it->second, counts)
            << "counts differ on edge (" << std::get<0>(key) << ","
            << std::get<1>(key) << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, DemTileSweep,
    ::testing::Combine(::testing::Values(3, 5),
                       ::testing::Values(9, 10, 12),
                       ::testing::Values(Basis::Z, Basis::X)));

class DemStructure : public ::testing::TestWithParam<int>
{
  protected:
    RotatedSurfaceCode code_{GetParam()};
};

TEST_P(DemStructure, EdgesWithinDetectorRange)
{
    const int rounds = 6;
    DetectorModel model = surfaceDirect(code_, rounds, Basis::Z);
    EXPECT_EQ(model.numDetectors(),
              (rounds + 1) * code_.numZStabilizers());
    for (const auto &e : model.edges) {
        ASSERT_GE(e.a, 0);
        ASSERT_LT(e.a, model.numDetectors());
        if (e.b != kBoundary) {
            ASSERT_GE(e.b, 0);
            ASSERT_LT(e.b, model.numDetectors());
            ASSERT_NE(e.a, e.b);
        }
    }
}

TEST_P(DemStructure, EveryDetectorTouched)
{
    const int rounds = 5;
    DetectorModel model = surfaceDirect(code_, rounds, Basis::Z);
    std::vector<int> degree(model.numDetectors(), 0);
    for (const auto &e : model.edges) {
        ++degree[e.a];
        if (e.b != kBoundary)
            ++degree[e.b];
    }
    for (int det = 0; det < model.numDetectors(); ++det)
        EXPECT_GT(degree[det], 0) << "detector " << det;
}

TEST_P(DemStructure, BoundaryEdgesExist)
{
    DetectorModel model = surfaceDirect(code_, 4, Basis::Z);
    int boundary = 0;
    for (const auto &e : model.edges)
        boundary += (e.b == kBoundary) ? 1 : 0;
    EXPECT_GT(boundary, 0);
}

TEST_P(DemStructure, SomeEdgesFlipObservable)
{
    DetectorModel model = surfaceDirect(code_, 4, Basis::Z);
    int obs_edges = 0;
    for (const auto &e : model.edges)
        obs_edges += e.obsFlip ? 1 : 0;
    // Errors on the logical operator's row reach the boundary while
    // crossing the observable.
    EXPECT_GT(obs_edges, 0);
}

TEST_P(DemStructure, CircuitIsGraphLike)
{
    // Every mechanism flips at most two detectors of the decoded
    // basis: detector cancellation makes the standard schedule purely
    // graph-like, so nothing needs decomposition.
    DetectorModel model = surfaceDirect(code_, 5, Basis::Z);
    EXPECT_EQ(model.unmatchedDecompositions, 0);
    EXPECT_EQ(model.decomposedMechanisms, 0);
}

TEST_P(DemStructure, ProbabilitiesReasonable)
{
    DetectorModel model = surfaceDirect(code_, 4, Basis::Z);
    const double p = 1e-3;
    for (const auto &e : model.edges) {
        const double q = e.probability(p);
        ASSERT_GT(q, 0.0);
        ASSERT_LT(q, 0.1);
        ASSERT_GT(e.n1 + e.n3 + e.n15, 0);
    }
}

TEST_P(DemStructure, ProbabilityScalesWithP)
{
    DetectorModel model = surfaceDirect(code_, 3, Basis::Z);
    for (const auto &e : model.edges) {
        EXPECT_LT(e.probability(1e-4), e.probability(1e-3));
        EXPECT_NEAR(e.probability(1e-4) / e.probability(1e-3), 0.1,
                    0.02);
    }
}

TEST_P(DemStructure, BasisSymmetry)
{
    // Both memory bases share detector counts and the measurement /
    // two-qubit mechanism totals. (Single-qubit totals differ: the H
    // gates sit on X ancillas only, so their errors are visible to
    // exactly one basis.)
    DetectorModel z = surfaceDirect(code_, 4, Basis::Z);
    DetectorModel x = surfaceDirect(code_, 4, Basis::X);
    EXPECT_EQ(z.numDetectors(), x.numDetectors());

    auto total = [](const DetectorModel &m) {
        int n1 = 0;
        int n15 = 0;
        for (const auto &e : m.edges) {
            n1 += e.n1;
            n15 += e.n15;
        }
        return std::tuple{n1, n15};
    };
    EXPECT_EQ(total(z), total(x));
}

INSTANTIATE_TEST_SUITE_P(Distances, DemStructure,
                         ::testing::Values(3, 5));

TEST(Dem, EdgeProbabilityXorCombination)
{
    DemEdge edge;
    edge.n1 = 2;
    const double p = 0.01;
    // Two mechanisms at prob p: odd-parity probability 2p(1-p).
    EXPECT_NEAR(edge.probability(p), 2 * p * (1 - p), 1e-12);
}

TEST(EdgePricer, MemoMatchesDirectPricingAcrossGrowth)
{
    // 600 distinct count triples force the table through several
    // doublings; the second pass reads every price from the memo.
    EdgePricer price(3e-3);
    for (int pass = 0; pass < 2; ++pass) {
        for (int n1 = 0; n1 < 10; ++n1) {
            for (int n3 = 0; n3 < 10; ++n3) {
                for (int n15 = 0; n15 < 6; ++n15) {
                    DemEdge edge;
                    edge.n1 = n1;
                    edge.n3 = n3;
                    edge.n15 = n15;
                    const EdgePricer::Price &pr = price(edge);
                    ASSERT_EQ(pr.q, edge.probability(3e-3));
                    ASSERT_EQ(pr.weight, matchingWeight(pr.q));
                }
            }
        }
    }
}

TEST(Dem, SingleRoundModelWorks)
{
    RotatedSurfaceCode code(3);
    DetectorModel model = surfaceDirect(code, 1, Basis::Z);
    EXPECT_EQ(model.numDetectors(), 2 * code.numZStabilizers());
    EXPECT_FALSE(model.edges.empty());
}

TEST(Dem, DetectorIdHelpers)
{
    RotatedSurfaceCode code(3);
    DetectorModel model = surfaceDirect(code, 4, Basis::Z);
    const int id = model.detectorId(2, 3);
    EXPECT_EQ(model.detectorStab(id), 2);
    EXPECT_EQ(model.detectorRound(id), 3);
}

// ------------------------------------------------- golden edge order

/**
 * Order-sensitive FNV-1a digest of a model: the edge count, every edge
 * field in vector order, then the two decomposition counters. Decoders
 * build their adjacency from `edges` in order, so a reordered but
 * otherwise equal edge list can change verdicts; TiledMatchesDirect
 * compares edge maps and cannot see that.
 */
uint64_t
demDigest(const DetectorModel &model)
{
    uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](int64_t v) {
        const uint64_t bits = (uint64_t)v;
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    };
    mix((int64_t)model.edges.size());
    for (const DemEdge &e : model.edges) {
        mix(e.a);
        mix(e.b);
        mix(e.obsFlip);
        mix(e.n1);
        mix(e.n3);
        mix(e.n15);
    }
    mix(model.decomposedMechanisms);
    mix(model.unmatchedDecompositions);
    return h;
}

struct GoldenDem
{
    int d;
    Basis basis;
    int rounds;
    uint64_t digest;
};

// Recorded from the forward builder that propagated every injected
// fault through a noiseless FrameSimulator run, so these pin that the
// backward sensitivity pass reproduces it exactly. Rounds 1 and 8 are
// direct builds; 9, 3d and 10d are tiled.
constexpr GoldenDem kSurfaceGolden[] = {
    {3, Basis::Z, 1, 0x52b85ebe6c5f2930ULL},
    {3, Basis::Z, 8, 0x696818e6c94b8c4eULL},
    {3, Basis::Z, 9, 0x8076db629af02570ULL},
    {3, Basis::Z, 30, 0xdec74241c43148adULL},
    {3, Basis::X, 1, 0x3041fd34d83f0518ULL},
    {3, Basis::X, 8, 0x9e7fa3d378d2a9a6ULL},
    {3, Basis::X, 9, 0xce0fb13f3948ba98ULL},
    {3, Basis::X, 30, 0xd7f3fc0abbc8fde5ULL},
    {5, Basis::Z, 1, 0x5ed2163c31c20d8aULL},
    {5, Basis::Z, 8, 0x61a206f88eb715b9ULL},
    {5, Basis::Z, 9, 0x5036ab415b29a6fcULL},
    {5, Basis::Z, 15, 0xf4b2e34f5caa9a6fULL},
    {5, Basis::Z, 50, 0xdb6d5e1cdeb051d9ULL},
    {5, Basis::X, 1, 0xaac5f9f14a30f682ULL},
    {5, Basis::X, 8, 0xc2ed07ae5d4ee079ULL},
    {5, Basis::X, 9, 0x9c760bab04d368a4ULL},
    {5, Basis::X, 15, 0xffdb08f9d97f23c7ULL},
    {5, Basis::X, 50, 0x162d9d4c137ba93dULL},
    {7, Basis::Z, 1, 0x7da75ed7297d4e7cULL},
    {7, Basis::Z, 8, 0xca017232929e79b7ULL},
    {7, Basis::Z, 9, 0xb0c8fe502723b020ULL},
    {7, Basis::Z, 21, 0xbc9e46ad051d0ad1ULL},
    {7, Basis::Z, 70, 0xe75317187280b128ULL},
    {7, Basis::X, 1, 0x26a5f9e00899e394ULL},
    {7, Basis::X, 8, 0x2b4c804a33e8a6bfULL},
    {7, Basis::X, 9, 0x390f661d845c92b8ULL},
    {7, Basis::X, 21, 0x0dcd148bda80465fULL},
    {7, Basis::X, 70, 0xec03cbf4afa9e160ULL},
    // d = 9 rows were recorded later, from the backward builder before
    // the tiled builder stopped hashing shifted edges.
    {9, Basis::Z, 1, 0x6df220f77cc73fd9ULL},
    {9, Basis::Z, 8, 0xab1cdf67d9fa65fbULL},
    {9, Basis::Z, 9, 0x0a299db0b6e6cddcULL},
    {9, Basis::Z, 27, 0xd41bda4cc1d1b0ecULL},
    {9, Basis::Z, 90, 0x01c62985ad0e7273ULL},
    {9, Basis::X, 1, 0x909abecd940a0d41ULL},
    {9, Basis::X, 8, 0x403e06bb0042b1d3ULL},
    {9, Basis::X, 9, 0xc7b2ea700ac04154ULL},
    {9, Basis::X, 27, 0x5e8bdc4198afe6ecULL},
    {9, Basis::X, 90, 0x34c20d94c557d073ULL},
    {11, Basis::Z, 1, 0x11d3fc32c008e7f3ULL},
    {11, Basis::Z, 8, 0xc4324973faae0ea8ULL},
    {11, Basis::Z, 9, 0x58874aaa8698a471ULL},
    {11, Basis::Z, 33, 0x5be979b3832692bdULL},
    {11, Basis::Z, 110, 0xc0231483b61acc79ULL},
    {11, Basis::X, 1, 0x0104e88f75fe5afbULL},
    {11, Basis::X, 8, 0x8b068367a25381e9ULL},
    {11, Basis::X, 9, 0x6f2ddef6921836cdULL},
    {11, Basis::X, 33, 0xb0cba9fa0954c1a0ULL},
    {11, Basis::X, 110, 0x6af293bf267ec893ULL},
};

constexpr GoldenDem kRepetitionGolden[] = {
    {3, Basis::Z, 1, 0xaae89132808c1692ULL},
    {3, Basis::Z, 8, 0x57a3f6e222563cf8ULL},
    {3, Basis::Z, 9, 0x126369c55b90a292ULL},
    {3, Basis::Z, 30, 0x4e05b36acf9a5e10ULL},
    {5, Basis::Z, 1, 0x721d5c502901b50eULL},
    {5, Basis::Z, 8, 0xc744f458d781e3deULL},
    {5, Basis::Z, 9, 0x78ca12d005b9eeaeULL},
    {5, Basis::Z, 15, 0x3d5057f36f761faeULL},
    {5, Basis::Z, 50, 0x5d392f52b2aae8d8ULL},
};

TEST(DemGolden, SurfaceEdgeOrderPinned)
{
    // The code-level entry point (compile, then build) and the
    // program builder must both hit the digest.
    for (const GoldenDem &g : kSurfaceGolden) {
        SCOPED_TRACE(::testing::Message()
                     << "d=" << g.d << " basis="
                     << (g.basis == Basis::Z ? "Z" : "X")
                     << " rounds=" << g.rounds);
        RotatedSurfaceCode code(g.d);
        EXPECT_EQ(demDigest(buildDetectorModel(code, g.rounds, g.basis)),
                  g.digest);
        const CircuitProgram prog = CircuitCompiler::surfaceMemory(
            code, g.rounds, g.basis, IrTailKind::SwapLrc);
        EXPECT_EQ(demDigest(buildDetectorModel(prog)), g.digest);
    }
}

TEST(DemGolden, RepetitionEdgeOrderPinned)
{
    for (const GoldenDem &g : kRepetitionGolden) {
        SCOPED_TRACE(::testing::Message()
                     << "d=" << g.d << " rounds=" << g.rounds);
        EXPECT_EQ(demDigest(buildDetectorModel(
                      CircuitCompiler::repetitionMemory(g.d, g.rounds))),
                  g.digest);
    }
}

} // namespace
} // namespace qec
