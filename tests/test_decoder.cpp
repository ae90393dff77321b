/**
 * @file
 * End-to-end decoder tests: every single fault must be corrected (the
 * circuit-level distance is >= 3), sampled double faults must be
 * corrected at d = 5, and the decoder must degrade gracefully.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <iterator>
#include <map>

#include "base/rng.h"
#include "code/builder.h"
#include "code/rotated_surface_code.h"
#include "decoder/defects.h"
#include "decoder/detector_model.h"
#include "decoder/matching.h"
#include "decoder/mwpm_decoder.h"
#include "sim/frame_simulator.h"

namespace qec
{
namespace
{

/** All Pauli-injection sites of a circuit: (op index, [(q, P)...]). */
struct Fault
{
    size_t opIndex;
    std::vector<std::pair<int, Pauli>> paulis;
};

std::vector<Fault>
enumerateFaults(const Circuit &circuit, bool all_two_qubit)
{
    std::vector<Fault> faults;
    for (size_t k = 0; k < circuit.ops.size(); ++k) {
        const Op &op = circuit.ops[k];
        switch (op.type) {
          case OpType::DataNoise:
          case OpType::H:
            for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z})
                faults.push_back({k, {{op.q0, p}}});
            break;
          case OpType::Reset:
            faults.push_back({k, {{op.q0, Pauli::X}}});
            break;
          case OpType::Cnot:
            if (all_two_qubit) {
                for (int pp = 1; pp < 16; ++pp) {
                    faults.push_back(
                        {k,
                         {{op.q0, (Pauli)(pp & 3)},
                          {op.q1, (Pauli)((pp >> 2) & 3)}}});
                }
            } else {
                for (Pauli p : {Pauli::X, Pauli::Y, Pauli::Z}) {
                    faults.push_back({k, {{op.q0, p}}});
                    faults.push_back({k, {{op.q1, p}}});
                }
            }
            break;
          default:
            break;
        }
    }
    return faults;
}

/** Run the circuit noiselessly with the given faults injected. */
ShotOutcome
runWithFaults(const RotatedSurfaceCode &code, const Circuit &circuit,
              const std::vector<Fault> &faults)
{
    FrameSimulator sim(code.numQubits(), ErrorModel::noiseless(),
                       Rng(3));
    sim.reset();
    const Op *ops = circuit.ops.data();
    size_t cursor = 0;
    // Faults must be sorted by opIndex.
    for (const auto &fault : faults) {
        sim.executeRange(ops + cursor, ops + fault.opIndex + 1);
        cursor = fault.opIndex + 1;
        for (const auto &[q, p] : fault.paulis)
            sim.injectPauli(q, p);
    }
    sim.executeRange(ops + cursor, ops + circuit.ops.size());
    return extractDefects(code, circuit.basis, circuit.numRounds,
                          sim.record());
}

class SingleFaultSweep
    : public ::testing::TestWithParam<std::tuple<int, Basis>>
{
};

TEST_P(SingleFaultSweep, EverySingleFaultCorrected)
{
    const auto [rounds, basis] = GetParam();
    RotatedSurfaceCode code(3);
    Circuit circuit = buildMemoryCircuit(code, rounds, basis);
    DetectorModel dem = buildDetectorModel(code, rounds, basis);
    MwpmDecoder decoder(dem, 1e-3);

    auto faults = enumerateFaults(circuit, true);
    int checked = 0;
    for (const auto &fault : faults) {
        ShotOutcome outcome = runWithFaults(code, circuit, {fault});
        const bool predicted = decoder.decode(outcome.defects);
        ASSERT_EQ(predicted, outcome.observableFlip)
            << "fault at op " << fault.opIndex;
        ++checked;
    }
    EXPECT_GT(checked, 400 * rounds);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SingleFaultSweep,
    ::testing::Combine(::testing::Values(1, 2, 4),
                       ::testing::Values(Basis::Z, Basis::X)));

TEST(Decoder, SampledDoubleFaultsCorrectedAtD5)
{
    // Distance 5 tolerates any two faults. Sample pairs.
    RotatedSurfaceCode code(5);
    const int rounds = 3;
    Circuit circuit = buildMemoryCircuit(code, rounds, Basis::Z);
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);

    auto faults = enumerateFaults(circuit, false);
    Rng rng(17);
    for (int trial = 0; trial < 400; ++trial) {
        size_t i = rng.randint((uint32_t)faults.size());
        size_t j = rng.randint((uint32_t)faults.size());
        if (faults[i].opIndex > faults[j].opIndex)
            std::swap(i, j);
        ShotOutcome outcome =
            runWithFaults(code, circuit, {faults[i], faults[j]});
        const bool predicted = decoder.decode(outcome.defects);
        ASSERT_EQ(predicted, outcome.observableFlip)
            << "faults " << i << ", " << j;
    }
}

TEST(Decoder, EmptyDefectsPredictNoFlip)
{
    RotatedSurfaceCode code(3);
    DetectorModel dem = buildDetectorModel(code, 2, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);
    EXPECT_FALSE(decoder.decode({}));
}

TEST(Decoder, GraphNonTrivial)
{
    RotatedSurfaceCode code(3);
    DetectorModel dem = buildDetectorModel(code, 3, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);
    EXPECT_EQ(decoder.numDetectors(), dem.numDetectors());
    EXPECT_GT(decoder.numGraphEdges(), 20u);
}

TEST(Decoder, LogicalChainIsDecodedAsFlip)
{
    // Inject a full logical X chain (top-to-bottom column of X);
    // defect-free but observable flipped: decoder cannot see it, so
    // the prediction must be "no flip" and the comparison records a
    // logical error. This guards the convention wiring.
    RotatedSurfaceCode code(3);
    const int rounds = 2;
    Circuit circuit = buildMemoryCircuit(code, rounds, Basis::Z);

    std::vector<Fault> faults;
    // Inject X on a full column (crossing between the X boundaries)
    // right after round 0's RoundStart marker.
    const size_t site = circuit.roundBegin[1];
    std::vector<std::pair<int, Pauli>> paulis;
    for (int r = 0; r < 3; ++r)
        paulis.push_back({code.dataId(r, 1), Pauli::X});
    faults.push_back({site, paulis});

    ShotOutcome outcome = runWithFaults(code, circuit, faults);
    EXPECT_TRUE(outcome.defects.empty());
    EXPECT_TRUE(outcome.observableFlip);

    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    MwpmDecoder decoder(dem, 1e-3);
    EXPECT_FALSE(decoder.decode(outcome.defects));
}

TEST(Decoder, NeighborLimitStillCorrectsSingles)
{
    RotatedSurfaceCode code(3);
    const int rounds = 2;
    Circuit circuit = buildMemoryCircuit(code, rounds, Basis::Z);
    DetectorModel dem = buildDetectorModel(code, rounds, Basis::Z);
    DecoderOptions opts;
    opts.neighborLimit = 2;   // aggressive truncation
    MwpmDecoder decoder(dem, 1e-3, opts);

    auto faults = enumerateFaults(circuit, false);
    for (size_t i = 0; i < faults.size(); i += 7) {
        ShotOutcome outcome = runWithFaults(code, circuit, {faults[i]});
        ASSERT_EQ(decoder.decode(outcome.defects),
                  outcome.observableFlip);
    }
}

// ------------------------------------------- golden candidate graphs

/** One corpus configuration: surface memory at distance d. */
struct MwpmCorpusConfig
{
    int d;
    Basis basis;
    int rounds;
    double p;
};

/** Surface d in {3,5,7} x {Z,X} x rounds {3d,10d} x p in {1e-3,4e-3}. */
std::vector<MwpmCorpusConfig>
mwpmCorpus()
{
    std::vector<MwpmCorpusConfig> corpus;
    for (int d : {3, 5, 7})
        for (Basis basis : {Basis::Z, Basis::X})
            for (int rounds : {3 * d, 10 * d})
                for (double p : {1e-3, 4e-3})
                    corpus.push_back({d, basis, rounds, p});
    return corpus;
}

/**
 * Leakage-heavy defect sets: the plain memory circuit has no leakage
 * reduction, and the leak rate is raised to p per injection site, so
 * leaked qubits randomize their stabilizers for many rounds and the
 * long, high-p configurations produce bursts of 64+ defects.
 */
std::vector<std::vector<int>>
sampleLeakyDefectSets(const MwpmCorpusConfig &cfg, int count)
{
    RotatedSurfaceCode code(cfg.d);
    Circuit circuit = buildMemoryCircuit(code, cfg.rounds, cfg.basis);
    ErrorModel em = ErrorModel::standard(cfg.p);
    em.leakFraction = 1.0;
    FrameSimulator sim(code.numQubits(), em,
                       Rng(1000 * (uint64_t)cfg.d + cfg.rounds));
    std::vector<std::vector<int>> shots;
    for (int i = 0; i < count; ++i) {
        sim.run(circuit);
        shots.push_back(extractDefects(code, cfg.basis, cfg.rounds,
                                       sim.record())
                            .defects);
    }
    return shots;
}

constexpr int kCorpusShots = 24;

/**
 * Order-sensitive FNV-1a digest of every decode call's region-growth
 * output over one corpus configuration: the deduplicated candidate
 * list (endpoints, the bit pattern of the weight, observable parity),
 * the number of settled detectors and the reach certificate.
 */
uint64_t
candidateGraphDigest(const MwpmCorpusConfig &cfg, int *max_defects)
{
    RotatedSurfaceCode code(cfg.d);
    DetectorModel dem = buildDetectorModel(code, cfg.rounds, cfg.basis);
    MwpmDecoder decoder(dem, cfg.p);
    DecodeWorkspace ws;

    uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](uint64_t bits) {
        for (int i = 0; i < 8; ++i) {
            h ^= (bits >> (8 * i)) & 0xff;
            h *= 1099511628211ULL;
        }
    };
    for (const auto &defects : sampleLeakyDefectSets(cfg, kCorpusShots)) {
        *max_defects = std::max(*max_defects, (int)defects.size());
        const uint64_t settled_before = ws.statSettledNodes;
        (void)decoder.decodeSparse(defects.data(), defects.size(), ws);
        mix(defects.size());
        mix(ws.mwCands.size());
        for (const auto &cand : ws.mwCands) {
            uint64_t wbits;
            std::memcpy(&wbits, &cand.w, sizeof wbits);
            mix((uint64_t)cand.i);
            mix((uint64_t)cand.j);
            mix(wbits);
            mix(cand.obs);
        }
        mix(ws.statSettledNodes - settled_before);
        mix((uint64_t)ws.lastReachHops);
    }
    return h;
}

// Recorded from the binary-heap region growth with sort-based
// candidate deduplication, in mwpmCorpus() order; they pin that the
// queue and the in-flight dedup table reproduce it bit for bit.
constexpr uint64_t kCandidateGraphGolden[] = {
    0x1f9e2ad13c4484f7ULL,
    0xabc8180d4f20753cULL,
    0xe0f6c69f8581613dULL,
    0xe0018c486b69ac43ULL,
    0xb71496699d572065ULL,
    0x9e27c0feb63c74cdULL,
    0xa398ec7222c2a729ULL,
    0x22876a47291a0d89ULL,
    0xc3073eabd64efddeULL,
    0xabf4bebdce29fd1dULL,
    0x57cdbbefd49cfbe2ULL,
    0x75d7c81d944c6930ULL,
    0xcb4b502ea9133f7dULL,
    0x68b9cc800ec494a7ULL,
    0xd8b78dc4eb3509e3ULL,
    0x2973226bbfe924b8ULL,
    0xfce480a11e6335c2ULL,
    0xa8c32071445ad4deULL,
    0x5ce4c99c09c2b026ULL,
    0xb3d989a2d76afa55ULL,
    0xd460ea35f413789dULL,
    0xf5424cb94d4231f4ULL,
    0xd5e117259441c11eULL,
    0x2de07b0bbf93f84cULL,
};

TEST(MwpmGolden, CandidateGraphsPinned)
{
    const auto corpus = mwpmCorpus();
    ASSERT_EQ(std::size(kCandidateGraphGolden), corpus.size());
    int max_defects = 0;
    for (size_t c = 0; c < corpus.size(); ++c) {
        const MwpmCorpusConfig &cfg = corpus[c];
        SCOPED_TRACE(::testing::Message()
                     << "d=" << cfg.d << " basis="
                     << (cfg.basis == Basis::Z ? "Z" : "X")
                     << " rounds=" << cfg.rounds << " p=" << cfg.p);
        const uint64_t digest = candidateGraphDigest(cfg, &max_defects);
        EXPECT_EQ(digest, kCandidateGraphGolden[c])
            << "actual 0x" << std::hex << digest;
    }
    // The corpus must reach the leakage-burst regime.
    EXPECT_GE(max_defects, 64);
}

/** The decoder's fixed-point matching weight (scale 1024, clamp 1e6). */
int64_t
scaledWeight(double w)
{
    return (int64_t)std::llround(std::min(w, 1.0e6) * 1024.0);
}

/**
 * Decodes one shot with corrections recorded and checks the matching
 * stage against an exact oracle: the chosen correction must cover
 * every defect once, its parity must be the verdict, and its total
 * scaled weight must equal the optimum of the textbook doubled
 * instance (each defect plus a boundary twin, mirrored zero-weight
 * twin edges) built from the same candidates and solved as a
 * minimum-weight perfect matching. Returns whether the oracle's
 * verdict differs, which the weight equality allows only between
 * equal-weight optima.
 */
bool
decodeAgainstDoubledOracle(const MwpmDecoder &decoder,
                           DecodeWorkspace &ws,
                           const std::vector<int> &defects)
{
    const int n = (int)defects.size();
    ws.recordCorrections = true;
    ws.corrections.clear();
    const bool verdict =
        decoder.decodeSparse(defects.data(), defects.size(), ws);
    std::map<int, int> index_of;
    for (int i = 0; i < n; ++i)
        index_of[defects[i]] = i;
    auto findCand = [&ws](int i, int j) {
        if (i > j)
            std::swap(i, j);
        for (const auto &cand : ws.mwCands) {
            if (cand.i == i && cand.j == j)
                return cand;
        }
        ADD_FAILURE() << "matched pair " << i << "," << j
                      << " is not a candidate";
        return DecodeWorkspace::Cand{i, j, 0.0, 0};
    };
    auto boundaryWeight = [&](int i) {
        return scaledWeight(decoder.boundaryDistance(defects[i]));
    };

    int64_t chosen = 0;
    bool parity = false;
    std::vector<int> covered(n, 0);
    for (const auto &c : ws.corrections) {
        parity ^= (c.obs != 0);
        const int i = index_of.at(c.a);
        ++covered[i];
        if (c.b < 0) {
            chosen += boundaryWeight(i);
        } else {
            const int j = index_of.at(c.b);
            ++covered[j];
            chosen += scaledWeight(findCand(i, j).w);
        }
    }
    EXPECT_EQ(parity, verdict);
    for (int i = 0; i < n; ++i)
        EXPECT_EQ(covered[i], 1) << "defect " << i;

    std::vector<MatchEdge> edges;
    for (const auto &cand : ws.mwCands) {
        edges.push_back({cand.i, cand.j, scaledWeight(cand.w)});
        edges.push_back({n + cand.i, n + cand.j, 0});
    }
    for (int i = 0; i < n; ++i)
        edges.push_back({i, n + i, boundaryWeight(i)});
    const std::vector<int> partner =
        minWeightPerfectMatching(2 * n, edges);
    int64_t optimum = 0;
    bool oracle_parity = false;
    for (int i = 0; i < n; ++i) {
        if (partner[i] == n + i) {
            optimum += boundaryWeight(i);
            oracle_parity ^= (ws.mwBObs[i] != 0);
        } else if (partner[i] > i) {
            const auto cand = findCand(i, partner[i]);
            optimum += scaledWeight(cand.w);
            oracle_parity ^= (cand.obs != 0);
        }
    }
    EXPECT_EQ(chosen, optimum) << "shot with " << n << " defects";
    return oracle_parity != verdict;
}

TEST(MwpmGolden, MatchingWeightEqualsDoubledInstanceOptimum)
{
    int shots = 0;
    int parity_ties = 0;
    for (const MwpmCorpusConfig &cfg : mwpmCorpus()) {
        SCOPED_TRACE(::testing::Message()
                     << "d=" << cfg.d << " basis="
                     << (cfg.basis == Basis::Z ? "Z" : "X")
                     << " rounds=" << cfg.rounds << " p=" << cfg.p);
        RotatedSurfaceCode code(cfg.d);
        DetectorModel dem =
            buildDetectorModel(code, cfg.rounds, cfg.basis);
        MwpmDecoder decoder(dem, cfg.p);
        DecodeWorkspace ws;
        for (const auto &defects :
             sampleLeakyDefectSets(cfg, kCorpusShots)) {
            if (defects.empty())
                continue;
            ++shots;
            parity_ties += decodeAgainstDoubledOracle(decoder, ws, defects)
                               ? 1
                               : 0;
        }
    }
    RecordProperty("shots", shots);
    RecordProperty("parity_ties", parity_ties);
    EXPECT_GT(shots, 400);
    // Ties with different parity are legitimate but must stay rare.
    EXPECT_LE(parity_ties * 20, shots);
}

TEST(Decoder, CandidateDedupKeepsLightestParallelPath)
{
    // Every detector of a complete graph is a defect, so every pair
    // of one-node regions meets (m - 1 candidates per defect), and
    // each pair is found once per parallel edge: deduplication must
    // keep the lighter (more probable) one with its observable
    // parity.
    const int m = 40;
    DetectorModel dem;
    dem.rounds = 0;
    dem.stabsPerRound = m;
    std::map<std::pair<int, int>, bool> lighter_obs;
    for (int a = 0; a < m; ++a) {
        DemEdge boundary;
        boundary.a = a;
        boundary.n1 = 1;
        dem.edges.push_back(boundary);
        for (int b = a + 1; b < m; ++b) {
            DemEdge plain;
            plain.a = a;
            plain.b = b;
            plain.n1 = 1 + (7 * a + b) % 3;
            DemEdge flip = plain;
            flip.obsFlip = true;
            flip.n1 = 1 + (5 * a + 3 * b) % 3;
            // Either edge may be found first.
            const bool flip_first = (a + b) % 2 == 0;
            dem.edges.push_back(flip_first ? flip : plain);
            dem.edges.push_back(flip_first ? plain : flip);
            // Equal weights tie on (w, obs): obs 0 wins.
            lighter_obs[{a, b}] = flip.n1 > plain.n1;
        }
    }
    DecoderOptions options;
    options.neighborLimit = m;   // keep every pair
    MwpmDecoder decoder(dem, 1e-2, options);

    std::vector<int> defects(m);
    for (int i = 0; i < m; ++i)
        defects[i] = i;
    DecodeWorkspace ws;
    decodeAgainstDoubledOracle(decoder, ws, defects);

    ASSERT_EQ(ws.mwCands.size(), lighter_obs.size());
    auto it = lighter_obs.begin();
    for (const auto &cand : ws.mwCands) {
        EXPECT_EQ(std::make_pair(cand.i, cand.j), it->first);
        EXPECT_EQ(cand.obs != 0, it->second)
            << "pair " << cand.i << "," << cand.j;
        ++it;
    }
}

} // namespace
} // namespace qec
