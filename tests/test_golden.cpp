/**
 * @file
 * Checked-in verdict corpus, three slices under tests/golden/:
 *
 *  - mwpm_verdicts.json pins the verdict fingerprint, logical-error
 *    count, speculation counters (tp/fp/tn/fn), LRC count and a hash
 *    of the per-round leakage population sums of surface d in {3,5,7}
 *    x {SwapLrc, Dqlr} x {Z, X} x five policies x {MWPM, UF} x W in
 *    {64, 256}. The UF rows are controls: a decoder change may move
 *    only the MWPM verdict fields, while the LPR hash moves only with
 *    the simulated noise.
 *  - repetition_verdicts.json holds the same row format for the
 *    repetition-code memory family (d in {3,5}, Never, p = 1e-2).
 *  - decode_stage_verdicts.json pins the decode stages to one another:
 *    each "stages" row must be reproduced by the default pipeline,
 *    dedup off and the per-shot decode loop; each "widths" row by
 *    the d=11 UF ERASER
 *    experiment at W = 64, 256 and 512.
 *  - postselection_verdicts.json pins runPostSelectedExperiment's
 *    tallies (shots, kept, logical errors overall and among kept
 *    shots) at d in {3,5} x p in {2e-3, 1e-2} x eventThreshold in
 *    {2,3,4} x W in {64, 256, 512}, two worker threads.
 *
 * Run `test_golden --regen` to rewrite the files from the current
 * build (the stage slice is written only when every variant agrees);
 * a change that does so declares the re-baseline in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include "code/rotated_surface_code.h"
#include "exp/memory_experiment.h"
#include "exp/postselection.h"
#include "exp/sweep_plan.h"

namespace qec
{
namespace
{

bool gRegen = false;

const char *const kSurfacePath =
    QEC_TESTS_DIR "/golden/mwpm_verdicts.json";
const char *const kRepetitionPath =
    QEC_TESTS_DIR "/golden/repetition_verdicts.json";
const char *const kStagePath =
    QEC_TESTS_DIR "/golden/decode_stage_verdicts.json";
const char *const kPostSelectPath =
    QEC_TESTS_DIR "/golden/postselection_verdicts.json";

constexpr uint64_t kShots = 577;   ///< Ragged: 9 full blocks + 1 lane.
constexpr double kP = 2e-3;
/** The small repetition codes see no logical error in 577 shots at
 *  kP, which would leave their verdict pins constant. */
constexpr double kRepetitionP = 1e-2;

/** splitmix64 chain over the bit patterns of the per-round data and
 *  parity LPR sums: pins the leakage trajectory, not just verdicts. */
uint64_t
lprHash(const ExperimentResult &r)
{
    uint64_t h = r.lprDataSum.size();
    const auto mix = [&h](double v) {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        h = (h ^ bits) + 0x9e3779b97f4a7c15ull;
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
        h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
        h ^= h >> 31;
    };
    for (size_t i = 0; i < r.lprDataSum.size(); ++i) {
        mix(r.lprDataSum[i]);
        mix(r.lprParitySum[i]);
    }
    return h;
}

/** One corpus row: a policy's result under one configuration. */
std::string
verdictRow(int d, const ExperimentConfig &cfg,
           const ExperimentResult &r)
{
    char line[512];
    std::snprintf(
        line, sizeof line,
        "{\"d\": %d, \"protocol\": \"%s\", \"basis\": \"%s\", "
        "\"decoder\": \"%s\", \"width\": %u, \"policy\": \"%s\", "
        "\"verdictFingerprint\": \"0x%016" PRIx64 "\", "
        "\"logicalErrors\": %" PRIu64 ", \"tp\": %" PRIu64
        ", \"fp\": %" PRIu64 ", \"tn\": %" PRIu64 ", \"fn\": %" PRIu64
        ", \"lrcsScheduled\": %" PRIu64 ", \"lprHash\": \"0x%016" PRIx64
        "\"}",
        d, cfg.protocol == RemovalProtocol::SwapLrc ? "swap" : "dqlr",
        cfg.basis == Basis::Z ? "Z" : "X",
        cfg.decoderKind == DecoderKind::Mwpm ? "mwpm" : "uf",
        cfg.batchWidth, r.policy.c_str(), r.verdictFingerprint,
        r.logicalErrors, r.tp, r.fp, r.tn, r.fn, r.lrcsScheduled,
        lprHash(r));
    return line;
}

/** Rows of `family` at distances `ds` and error rate `p` under
 *  `policies`, in a fixed order; the protocol and basis axes apply to
 *  surface memory only. */
std::vector<std::string>
familyRows(CircuitFamily family, std::initializer_list<int> ds, double p,
           std::initializer_list<PolicyKind> policies)
{
    const bool surface = family == CircuitFamily::SurfaceMemory;
    std::vector<RemovalProtocol> protocols = {RemovalProtocol::SwapLrc};
    std::vector<Basis> bases = {Basis::Z};
    if (surface) {
        protocols.push_back(RemovalProtocol::Dqlr);
        bases.push_back(Basis::X);
    }
    std::vector<std::string> rows;
    for (int d : ds) {
        RotatedSurfaceCode code(d);
        for (RemovalProtocol protocol : protocols)
            for (Basis basis : bases)
                for (DecoderKind decoder :
                     {DecoderKind::Mwpm, DecoderKind::UnionFind})
                    for (unsigned width : {64u, 256u}) {
                        ExperimentConfig cfg;
                        cfg.family = family;
                        cfg.rounds = d;
                        cfg.basis = basis;
                        cfg.em = ErrorModel::standard(p);
                        cfg.protocol = protocol;
                        cfg.shots = kShots;
                        cfg.seed = 4242 + (uint64_t)d;
                        cfg.decoderKind = decoder;
                        cfg.threads = 1;
                        cfg.batchWidth = width;
                        cfg.trackLpr = true;
                        MemoryExperiment exp(code, cfg);
                        for (PolicyKind kind : policies)
                            rows.push_back(
                                verdictRow(d, cfg, exp.run(kind)));
                    }
    }
    return rows;
}

/** Decode-stage row: the verdicts of one sweep point. */
std::string
stageRow(const char *check, const SweepPoint &point,
         const ExperimentResult &r)
{
    char line[320];
    std::snprintf(
        line, sizeof line,
        "{\"check\": \"%s\", \"d\": %d, \"p\": %.0e, \"rounds\": %d, "
        "\"decoder\": \"%s\", \"shots\": %" PRIu64 ", \"seed\": \"0x%016"
        PRIx64 "\", \"verdictFingerprint\": \"0x%016" PRIx64 "\", "
        "\"logicalErrors\": %" PRIu64 "}",
        check, point.distance, point.p, point.rounds,
        decoderKindName(point.decoderKind), point.shots, point.seed,
        r.verdictFingerprint, r.logicalErrors);
    return line;
}

/** One way of decoding a point, and the row it produced. */
struct StageVariant
{
    std::string name;
    std::string row;
};

/** Every variant that must reproduce one checked-in row; the first is
 *  the one --regen writes. */
using StagePoint = std::vector<StageVariant>;

/** ERASER decoded experiments, d = 7/9/11, 3d rounds, both decoders,
 *  each point run three ways. */
void
addStagePoints(std::vector<StagePoint> &out)
{
    SweepPlan plan;
    plan.name = "decode_stage_verdicts";
    plan.distances = {7, 9, 11};
    plan.ps = {1e-3, 1e-4};
    plan.rounds = {SweepRounds::cycles(3)};
    plan.decoders = {DecoderKind::Mwpm, DecoderKind::UnionFind};
    plan.base.batchWidth = 64;
    plan.shotsFor = [](int d, double) -> uint64_t {
        return d >= 11 ? 192 : (d >= 9 ? 320 : 512);
    };
    for (const SweepPoint &point : plan.points()) {
        RotatedSurfaceCode code(point.distance);
        const auto run = [&](const char *name, ExperimentConfig cfg) {
            const ExperimentResult r =
                MemoryExperiment(code, cfg).run(PolicyKind::Eraser);
            return StageVariant{name, stageRow("stages", point, r)};
        };
        ExperimentConfig uncached = point.config;
        uncached.syndromeCache.enabled = false;
        ExperimentConfig per_shot = point.config;
        per_shot.batchDecode = false;

        out.push_back({run("default pipeline", point.config),
                       run("dedup off", uncached),
                       run("per-shot decode", per_shot)});
    }
}

/** d = 11 UF ERASER, 3d rounds, one worker, at W = 64/256/512: the
 *  width axis stays out of the derived seed, so every width decodes
 *  the same shots. */
void
addWidthPoints(std::vector<StagePoint> &out)
{
    SweepPlan plan;
    plan.name = "decode_width_verdicts";
    plan.distances = {11};
    plan.ps = {1e-3, 1e-4};
    plan.rounds = {SweepRounds::cycles(3)};
    plan.widths = {64, 256, 512};
    plan.base.decoderKind = DecoderKind::UnionFind;
    plan.base.threads = 1;
    plan.shotsFor = [](int, double p) -> uint64_t {
        return p < 5e-4 ? 3072 : 1536;
    };
    RotatedSurfaceCode code(11);
    StagePoint *sp = nullptr;
    for (const SweepPoint &point : plan.points()) {
        if (point.batchWidth == 64) {
            out.emplace_back();
            sp = &out.back();
        }
        const ExperimentResult r =
            MemoryExperiment(code, point.config).run(PolicyKind::Eraser);
        sp->push_back(
            {"W=" + std::to_string(point.batchWidth),
             stageRow("widths", point, r)});
    }
}

/** Post-selection rows: d = 3/5, 3d rounds, p = 2e-3/1e-2,
 *  eventThreshold 2/3/4 and W = 64/256/512 on two workers. Every
 *  width cuts the same 64-lane blocks, so the width axis also pins
 *  cross-width identity. */
std::vector<std::string>
postSelectRows()
{
    std::vector<std::string> rows;
    for (int d : {3, 5}) {
        RotatedSurfaceCode code(d);
        for (double p : {2e-3, 1e-2})
            for (int threshold : {2, 3, 4})
                for (unsigned width : {64u, 256u, 512u}) {
                    ExperimentConfig cfg;
                    cfg.rounds = 3 * d;
                    cfg.em = ErrorModel::standard(p);
                    cfg.shots = 2 * kShots - 1;
                    cfg.seed = 4242 + (uint64_t)d;
                    cfg.threads = 2;
                    cfg.batchWidth = width;
                    PostSelectOptions opts;
                    opts.eventThreshold = threshold;
                    const PostSelectResult r =
                        runPostSelectedExperiment(code, cfg, opts);
                    char line[320];
                    std::snprintf(
                        line, sizeof line,
                        "{\"d\": %d, \"p\": %.0e, \"rounds\": %d, "
                        "\"eventThreshold\": %d, \"width\": %u, "
                        "\"shots\": %" PRIu64 ", \"kept\": %" PRIu64
                        ", \"logicalErrorsAll\": %" PRIu64
                        ", \"logicalErrorsKept\": %" PRIu64 "}",
                        d, p, cfg.rounds, threshold, width, r.shots,
                        r.kept, r.logicalErrorsAll,
                        r.logicalErrorsKept);
                    rows.push_back(line);
                }
    }
    return rows;
}

std::string
render(const std::vector<std::string> &rows)
{
    std::string out = "[\n";
    for (size_t i = 0; i < rows.size(); ++i)
        out += " " + rows[i] + (i + 1 < rows.size() ? ",\n" : "\n");
    return out + "]\n";
}

/** Under --regen, writes `rows` to `path` and returns them; otherwise
 *  returns the rows checked in at `path`. */
std::vector<std::string>
goldenRows(const char *path, const std::vector<std::string> &rows)
{
    if (gRegen) {
        std::ofstream(path) << render(rows);
        std::printf("wrote %zu rows to %s\n", rows.size(), path);
        return rows;
    }
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "missing " << path
                           << " (run test_golden --regen)";
    std::vector<std::string> golden;
    std::string line;
    while (std::getline(in, line)) {
        if (line == "[" || line == "]")
            continue;
        if (!line.empty() && line.back() == ',')
            line.pop_back();
        golden.push_back(line.substr(line.find('{')));
    }
    return golden;
}

void
expectSliceMatches(const char *path, const std::vector<std::string> &rows)
{
    const std::vector<std::string> golden = goldenRows(path, rows);
    ASSERT_EQ(golden.size(), rows.size()) << path;
    for (size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i], golden[i]) << "row " << i;
}

TEST(GoldenVerdicts, MwpmSliceMatchesCheckedIn)
{
    const std::vector<std::string> rows = familyRows(
        CircuitFamily::SurfaceMemory, {3, 5, 7}, kP,
        {PolicyKind::Never, PolicyKind::Always, PolicyKind::Eraser,
         PolicyKind::EraserM, PolicyKind::Optimal});
    ASSERT_EQ(rows.size(), 3u * 2 * 2 * 2 * 2 * 5);
    expectSliceMatches(kSurfacePath, rows);
}

TEST(GoldenVerdicts, RepetitionSliceMatchesCheckedIn)
{
    // Never only: the repetition program has no LRC scheduling, and
    // every other policy names surface-code stabilizers.
    const std::vector<std::string> rows = familyRows(
        CircuitFamily::RepetitionMemory, {3, 5}, kRepetitionP,
        {PolicyKind::Never});
    ASSERT_EQ(rows.size(), 2u * 2 * 2);
    expectSliceMatches(kRepetitionPath, rows);
}

TEST(GoldenVerdicts, DecodeStageSliceMatchesCheckedIn)
{
    std::vector<StagePoint> points;
    addStagePoints(points);
    addWidthPoints(points);
    ASSERT_EQ(points.size(), 12u + 2);
    std::vector<std::string> rows;
    for (const StagePoint &variants : points) {
        if (gRegen) {
            for (const StageVariant &v : variants)
                ASSERT_EQ(v.row, variants.front().row)
                    << v.name << " disagrees; not writing";
        }
        rows.push_back(variants.front().row);
    }
    const std::vector<std::string> golden = goldenRows(kStagePath, rows);
    ASSERT_EQ(golden.size(), points.size());
    for (size_t i = 0; i < points.size(); ++i)
        for (const StageVariant &v : points[i])
            EXPECT_EQ(v.row, golden[i]) << "row " << i << ", " << v.name;
}

TEST(GoldenVerdicts, PostSelectionSliceMatchesCheckedIn)
{
    const std::vector<std::string> rows = postSelectRows();
    ASSERT_EQ(rows.size(), 2u * 2 * 3 * 3);
    expectSliceMatches(kPostSelectPath, rows);
}

} // namespace
} // namespace qec

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--regen") == 0)
            qec::gRegen = true;
    return RUN_ALL_TESTS();
}
