/**
 * @file
 * MWPM decoder exactness against the full-graph oracle
 * (tests/mwpm_oracle.h): on every corpus shot the recorded correction
 * must cover each defect once, its parity must be the verdict, and
 * its cost, each edge priced at the shortest route carrying that
 * edge's observable parity, must equal the oracle's minimum. So every
 * recorded edge parity lies on a shortest path of a minimum matching,
 * and a verdict that differs from the oracle's is an equal-cost tie.
 * Hand-built graphs then pin the blossom paths
 * (formation, shattering, radius-0 defect regions, a boundary exit)
 * and the parallel-edge parity rule against known optima.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <tuple>
#include <utility>
#include <vector>

#include "decoder/mwpm_decoder.h"
#include "mwpm_oracle.h"

namespace qec
{
namespace
{

/** Gap counters over one group of shots. */
struct GapStats
{
    int shots = 0;
    long long defects = 0;
    int costGap = 0;        ///< Shots costing more than the minimum.
    int verdictGap = 0;     ///< Shots whose verdict differs.
    int decoderErrors = 0;  ///< Verdict != true flip (DEM shots only).
    int oracleErrors = 0;
};

/** Decodes one shot, checks it against the oracle and returns the
 *  decoder's and the oracle's verdicts. */
std::pair<bool, bool>
checkShot(const MwpmDecoder &decoder, oracle::MwpmOracle &exact,
          DecodeWorkspace &ws, const std::vector<int> &defects,
          GapStats &stats)
{
    ws.recordCorrections = true;
    ws.corrections.clear();
    const bool verdict =
        decoder.decodeSparse(defects.data(), defects.size(), ws);
    const oracle::Solution best = exact.solve(defects);
    bool parity = false;
    for (const auto &c : ws.corrections)
        parity ^= c.obs != 0;
    EXPECT_EQ(parity, verdict);
    // Pricing each edge by its recorded parity also catches an edge
    // whose parity no shortest route between its ends carries.
    const int64_t chosen = exact.cost(ws.corrections);
    EXPECT_GE(chosen, 0) << "correction is not a cover of the defects";
    EXPECT_EQ(chosen, best.cost) << defects.size() << " defects";
    ++stats.shots;
    stats.defects += (long long)defects.size();
    stats.costGap += chosen > best.cost ? 1 : 0;
    stats.verdictGap += verdict != best.verdict ? 1 : 0;
    return {verdict, best.verdict};
}

void
report(const char *group, const GapStats &s)
{
    std::printf("[oracle] %-28s shots %5d  defects/shot %6.1f  "
                "cost gap %4d (%.2f%%)  verdict gap %4d (%.2f%%)",
                group, s.shots,
                s.shots ? (double)s.defects / s.shots : 0.0, s.costGap,
                s.shots ? 100.0 * s.costGap / s.shots : 0.0,
                s.verdictGap,
                s.shots ? 100.0 * s.verdictGap / s.shots : 0.0);
    if (s.decoderErrors || s.oracleErrors)
        std::printf("  errors decoder %d oracle %d", s.decoderErrors,
                    s.oracleErrors);
    std::printf("\n");
}

/** DEM-sampled groups: decoder built at 1e-3, shots drawn at a
 *  multiple of it. */
struct DemGroup
{
    int d;
    Basis basis;
    int rounds;
    double sampleP;
    int shots;
};

const DemGroup kDemGroups[] = {
    {3, Basis::Z, 30, 8e-3, 200},
    {5, Basis::X, 50, 4e-3, 150},
    {7, Basis::X, 35, 4e-3, 100},
    {7, Basis::Z, 21, 8e-3, 80},
};

TEST(MwpmExact, CostEqualsOracle)
{
    GapStats leaky;
    for (const oracle::CorpusConfig &cfg : oracle::mwpmCorpus()) {
        RotatedSurfaceCode code(cfg.d);
        DetectorModel dem =
            buildDetectorModel(code, cfg.rounds, cfg.basis);
        MwpmDecoder decoder(dem, cfg.p);
        oracle::MwpmOracle exact(dem, cfg.p);
        DecodeWorkspace ws;
        for (const auto &defects : oracle::sampleLeakyDefectSets(
                 cfg, oracle::kCorpusShots))
            checkShot(decoder, exact, ws, defects, leaky);
    }
    report("leaky corpus", leaky);

    GapStats total = leaky;
    for (const DemGroup &g : kDemGroups) {
        RotatedSurfaceCode code(g.d);
        DetectorModel dem = buildDetectorModel(code, g.rounds, g.basis);
        MwpmDecoder decoder(dem, 1e-3);
        oracle::MwpmOracle exact(dem, 1e-3);
        DecodeWorkspace ws;
        Rng rng(7000 + 100 * (uint64_t)g.d + g.rounds);
        GapStats stats;
        for (int s = 0; s < g.shots; ++s) {
            const oracle::DemShot shot =
                oracle::sampleFromDem(dem, g.sampleP, rng);
            const auto [verdict, best] =
                checkShot(decoder, exact, ws, shot.defects, stats);
            stats.decoderErrors += verdict != shot.flip ? 1 : 0;
            stats.oracleErrors += best != shot.flip ? 1 : 0;
        }
        char name[64];
        std::snprintf(name, sizeof name, "DEM d=%d %dr p x%d", g.d,
                      g.rounds, (int)(g.sampleP / 1e-3 + 0.5));
        report(name, stats);
        total.shots += stats.shots;
        total.costGap += stats.costGap;
        total.verdictGap += stats.verdictGap;
    }
    RecordProperty("shots", total.shots);
    RecordProperty("cost_gap", total.costGap);
    RecordProperty("verdict_gap", total.verdictGap);
    EXPECT_GT(total.shots, 800);
    EXPECT_EQ(total.costGap, 0);
}

/**
 * Hand-built decoding graphs. Every "unit" edge fires with
 * probability p, so a path of L units between two detectors weighs
 * exactly L times one unit edge; longer distances are chains of
 * plain (non-defect) detectors.
 */
class GraphBuilder
{
  public:
    int
    detector()
    {
        dem_.stabsPerRound = ++count_;
        return count_ - 1;
    }

    void
    edge(int a, int b, bool flip = false, int n1 = 1)
    {
        DemEdge e;
        e.a = a;
        e.b = b;
        e.obsFlip = flip;
        e.n1 = n1;
        dem_.edges.push_back(e);
    }

    /** A path of `units` unit edges from a to b (b may be the
     *  boundary); only its last edge flips the observable. */
    void
    chain(int a, int b, int units, bool flip = false)
    {
        int at = a;
        for (int i = 1; i < units; ++i) {
            const int next = detector();
            edge(at, next);
            at = next;
        }
        edge(at, b, flip);
    }

    const DetectorModel &dem() const { return dem_; }

  private:
    DetectorModel dem_;
    int count_ = 0;
};

constexpr double kUnitP = 1e-2;

/** Decodes `defects` with corrections recorded; checks the cover,
 *  the parity and the cost against the oracle, and returns the
 *  correction as sorted (a, b, obs) triples. */
std::vector<std::tuple<int, int, int>>
decodeHandBuilt(const DetectorModel &dem, const std::vector<int> &defects,
                bool *verdict)
{
    MwpmDecoder decoder(dem, kUnitP);
    oracle::MwpmOracle exact(dem, kUnitP);
    DecodeWorkspace ws;
    GapStats stats;
    *verdict = checkShot(decoder, exact, ws, defects, stats).first;
    EXPECT_EQ(stats.costGap, 0);
    std::vector<std::tuple<int, int, int>> pairs;
    for (const auto &c : ws.corrections) {
        const int a = c.b >= 0 ? std::min(c.a, c.b) : c.a;
        const int b = c.b >= 0 ? std::max(c.a, c.b) : c.b;
        pairs.emplace_back(a, b, c.obs);
    }
    std::sort(pairs.begin(), pairs.end());
    return pairs;
}

TEST(MwpmBlossom, OddCycleFormsShattersAndReforms)
{
    // Triangle A, B, C (2 units a side) closes a blossom at t = 1.
    // It matches E (6 units from C) at t = 3; F (10 units from A)
    // pulls it into F's tree at t = 7 as an inner region, where it
    // shrinks to radius 0 and shatters at t = 9. A and C then reach
    // radius 0 and their tree neighbours meet through them, nesting
    // new blossoms that exit through F's boundary chain (20 units).
    // Optimum: A-B (2) + C-E (6) + F-boundary (20).
    GraphBuilder g;
    const int a = g.detector(), b = g.detector(), c = g.detector();
    const int e = g.detector(), f = g.detector();
    g.chain(a, b, 2);
    g.chain(b, c, 2);
    g.chain(c, a, 2);
    g.chain(c, e, 6);
    g.chain(f, a, 10);
    g.chain(f, kBoundary, 20, true);
    bool verdict = false;
    const auto pairs = decodeHandBuilt(g.dem(), {a, b, c, e, f}, &verdict);
    const std::vector<std::tuple<int, int, int>> expected = {
        {a, b, 0}, {c, e, 0}, {f, -1, 1}};
    EXPECT_EQ(pairs, expected);
    EXPECT_TRUE(verdict);
}

TEST(MwpmBlossom, BlossomExitsThroughBoundary)
{
    // Triangle A, B, C (2 units a side) becomes a blossom with an odd
    // defect count, so one member must take the boundary: A's route
    // (5 units, flipping) beats B's and C's (8 units each).
    GraphBuilder g;
    const int a = g.detector(), b = g.detector(), c = g.detector();
    g.chain(a, b, 2);
    g.chain(b, c, 2);
    g.chain(c, a, 2);
    g.chain(a, kBoundary, 5, true);
    g.chain(b, kBoundary, 8);
    g.chain(c, kBoundary, 8);
    bool verdict = false;
    const auto pairs = decodeHandBuilt(g.dem(), {a, b, c}, &verdict);
    const std::vector<std::tuple<int, int, int>> expected = {
        {a, -1, 1}, {b, c, 0}};
    EXPECT_EQ(pairs, expected);
    EXPECT_TRUE(verdict);
}

TEST(MwpmBlossom, LighterParallelEdgeParityWins)
{
    // Isolated defect pairs joined by a plain and a flipping edge of
    // different mechanism counts (more mechanisms = more probable =
    // lighter), listed in both orders; equal weights keep the plain
    // edge. Boundary routes are far heavier, so every pair matches
    // over its lighter edge and carries that edge's parity.
    const int pairs_count = 24;
    DetectorModel dem;
    dem.stabsPerRound = 2 * pairs_count;
    std::vector<int> defects;
    std::vector<std::tuple<int, int, int>> expected;
    bool expected_verdict = false;
    for (int k = 0; k < pairs_count; ++k) {
        const int a = 2 * k, b = 2 * k + 1;
        DemEdge plain;
        plain.a = a;
        plain.b = b;
        plain.n1 = 1 + k % 3;
        DemEdge flip = plain;
        flip.obsFlip = true;
        flip.n1 = 1 + (5 * k + 1) % 3;
        dem.edges.push_back(k % 2 ? flip : plain);
        dem.edges.push_back(k % 2 ? plain : flip);
        for (int v : {a, b}) {
            DemEdge boundary;
            boundary.a = v;
            boundary.n15 = 1;
            dem.edges.push_back(boundary);
        }
        defects.push_back(a);
        defects.push_back(b);
        const int obs = flip.n1 > plain.n1 ? 1 : 0;
        expected.emplace_back(a, b, obs);
        expected_verdict ^= obs != 0;
    }
    bool verdict = false;
    EXPECT_EQ(decodeHandBuilt(dem, defects, &verdict), expected);
    EXPECT_EQ(verdict, expected_verdict);
}

TEST(MwpmBlossom, DefectWithoutBoundaryRouteTakesBoundaryUnflipped)
{
    // No boundary edges at all: 0-1 pair up over their unit edge and
    // 2 is left over once growth stalls; it is reported as a boundary
    // match without an observable flip.
    GraphBuilder g;
    const int a = g.detector(), b = g.detector(), c = g.detector();
    g.edge(a, b, true);
    g.chain(b, c, 2);
    bool verdict = false;
    const auto pairs = decodeHandBuilt(g.dem(), {a, b, c}, &verdict);
    const std::vector<std::tuple<int, int, int>> expected = {
        {a, b, 1}, {c, -1, 0}};
    EXPECT_EQ(pairs, expected);
    EXPECT_TRUE(verdict);
}

} // namespace
} // namespace qec
