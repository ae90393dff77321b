/**
 * @file
 * Sweep & session API tests: ExperimentResult::merge algebra, chunked
 * ExperimentSession bit-identity against one-shot runs at every
 * width, early-stop determinism, per-point seed derivation, plan
 * expansion, runner cache accounting, and the unified JSON schema.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "exp/experiment_session.h"
#include "exp/sweep_exec.h"
#include "exp/sweep_plan.h"
#include "exp/sweep_runner.h"

namespace qec
{
namespace
{

ExperimentConfig
smallConfig(int rounds, uint64_t shots, unsigned width)
{
    ExperimentConfig cfg;
    cfg.rounds = rounds;
    cfg.shots = shots;
    cfg.seed = 77;
    cfg.em = ErrorModel::standard(1e-3);
    cfg.trackLpr = true;
    cfg.batchWidth = width;
    cfg.threads = 1;
    return cfg;
}

void
expectIdentical(const ExperimentResult &a, const ExperimentResult &b)
{
    EXPECT_EQ(a.shots, b.shots);
    EXPECT_EQ(a.logicalErrors, b.logicalErrors);
    EXPECT_EQ(a.verdictFingerprint, b.verdictFingerprint);
    EXPECT_EQ(a.tp, b.tp);
    EXPECT_EQ(a.fp, b.fp);
    EXPECT_EQ(a.tn, b.tn);
    EXPECT_EQ(a.fn, b.fn);
    EXPECT_EQ(a.lrcsScheduled, b.lrcsScheduled);
    EXPECT_EQ(a.roundsTotal, b.roundsTotal);
    EXPECT_EQ(a.decodedShots + a.zeroDefectShots +
                  a.syndromeCacheHits,
              b.decodedShots + b.zeroDefectShots +
                  b.syndromeCacheHits);
    ASSERT_EQ(a.lprDataSum.size(), b.lprDataSum.size());
    for (size_t r = 0; r < a.lprDataSum.size(); ++r) {
        // LPR sums are integer-valued counts stored in doubles, so
        // chunked accumulation must be exact, not just close.
        EXPECT_EQ(a.lprDataSum[r], b.lprDataSum[r]) << "round " << r;
        EXPECT_EQ(a.lprParitySum[r], b.lprParitySum[r])
            << "round " << r;
    }
}

TEST(Merge, CountersLprAndFingerprintAreOrderIndependent)
{
    ExperimentResult a;
    a.policy = "A";
    a.shots = 10;
    a.logicalErrors = 2;
    a.verdictFingerprint = 0xdeadbeefull;
    a.tp = 1;
    a.fp = 2;
    a.tn = 3;
    a.fn = 4;
    a.lrcsScheduled = 5;
    a.roundsTotal = 60;
    a.decodedShots = 6;
    a.zeroDefectShots = 3;
    a.syndromeCacheHits = 1;
    a.lprDataSum = {1.0, 2.0};
    a.lprParitySum = {3.0, 4.0};
    a.numDataQubits = 9;
    a.numParityQubits = 8;

    ExperimentResult b;
    b.policy = "A";
    b.shots = 4;
    b.logicalErrors = 1;
    b.verdictFingerprint = 0x1234ull;
    b.tp = 10;
    b.fp = 20;
    b.tn = 30;
    b.fn = 40;
    b.lrcsScheduled = 50;
    b.roundsTotal = 24;
    b.decodedShots = 2;
    // b has a longer LPR series: merge widens the shorter operand.
    b.lprDataSum = {10.0, 20.0, 30.0};
    b.lprParitySum = {1.0, 1.0, 1.0};

    ExperimentResult ab = a;
    ab.merge(b);
    ExperimentResult ba = b;
    ba.merge(a);

    expectIdentical(ab, ba);
    EXPECT_EQ(ab.shots, 14u);
    EXPECT_EQ(ab.verdictFingerprint, 0xdeadbeefull ^ 0x1234ull);
    ASSERT_EQ(ab.lprDataSum.size(), 3u);
    EXPECT_EQ(ab.lprDataSum[0], 11.0);
    EXPECT_EQ(ab.lprDataSum[2], 30.0);
    // Both orders adopt the lattice dimensions of whichever operand
    // carried them.
    EXPECT_EQ(ba.numDataQubits, 9);
    EXPECT_EQ(ba.numParityQubits, 8);
    EXPECT_EQ(ba.policy, "A");
}

TEST(Merge, SessionPartialsMergeToTheFullResult)
{
    RotatedSurfaceCode code(3);
    const auto cfg = smallConfig(6, 300, 64);
    MemoryExperiment exp(code, cfg);
    const ExperimentResult whole =
        exp.run(PolicyKind::Eraser);

    ExperimentSession session(exp, PolicyKind::Eraser);
    std::vector<ExperimentResult> partials;
    while (!session.done())
        partials.push_back(session.runChunk(70));

    // Merge the partials back-to-front: order must not matter.
    ExperimentResult reversed;
    for (auto it = partials.rbegin(); it != partials.rend(); ++it)
        reversed.merge(*it);
    expectIdentical(reversed, whole);
    EXPECT_EQ(reversed.policy, whole.policy);
}

TEST(Session, ChunkedRunsAreBitIdenticalAtEveryWidth)
{
    RotatedSurfaceCode code(3);
    for (unsigned width : {64u, 256u, 512u}) {
        const auto cfg = smallConfig(6, 1100, width);
        MemoryExperiment exp(code, cfg);
        const ExperimentResult whole =
            exp.run(makePolicyFactory(PolicyKind::Eraser, code,
                                      exp.lookup(), false),
                    "ERASER");
        for (uint64_t chunk : {1ull, 7ull, 64ull, 512ull}) {
            ExperimentSession session(exp, PolicyKind::Eraser);
            while (!session.done())
                session.runChunk(chunk);
            expectIdentical(session.result(), whole);
            EXPECT_EQ(session.result().verdictFingerprint,
                      whole.verdictFingerprint)
                << "width " << width << " chunk " << chunk;
        }
    }
}

TEST(Session, Width1ChunksAreBitIdentical)
{
    RotatedSurfaceCode code(3);
    const auto cfg = smallConfig(6, 101, 1);
    MemoryExperiment exp(code, cfg);
    const ExperimentResult whole = exp.run(PolicyKind::Eraser);

    ExperimentSession session(exp, PolicyKind::Eraser);
    while (!session.done())
        session.runChunk(7);
    expectIdentical(session.result(), whole);
}

TEST(Session, ChunkRoundsUpToWordGroups)
{
    RotatedSurfaceCode code(3);
    const auto cfg = smallConfig(4, 200, 64);
    MemoryExperiment exp(code, cfg);
    ExperimentSession session(exp, PolicyKind::Never);
    const ExperimentResult first = session.runChunk(1);
    EXPECT_EQ(first.shots, 64u);   // one word-group minimum
    EXPECT_EQ(session.shotsRun(), 64u);
    const ExperimentResult rest = session.runChunk(1000);
    EXPECT_EQ(rest.shots, 136u);
    EXPECT_TRUE(session.done());
    EXPECT_FALSE(session.stoppedEarly());
    EXPECT_EQ(session.runChunk(64).shots, 0u);
}

TEST(Session, EarlyStopIsDeterministic)
{
    RotatedSurfaceCode code(3);
    auto cfg = smallConfig(30, 20000, 64);
    cfg.em = ErrorModel::standard(3e-3);

    SessionOptions options;
    options.earlyStop.targetRelPrecision = 0.5;
    options.earlyStop.minErrors = 4;

    uint64_t stops[2];
    for (int i = 0; i < 2; ++i) {
        MemoryExperiment exp(code, cfg);
        ExperimentSession session(exp, PolicyKind::Never, options);
        session.runToCompletion();
        EXPECT_TRUE(session.stoppedEarly());
        EXPECT_LT(session.shotsRun(), cfg.shots);
        EXPECT_GE(session.result().logicalErrors, 4u);
        stops[i] = session.shotsRun();
    }
    EXPECT_EQ(stops[0], stops[1]);

    // Thread count must not move the stop point: the rule sees the
    // same cumulative counters at the same chunk boundaries.
    cfg.threads = 4;
    MemoryExperiment exp(code, cfg);
    ExperimentSession session(exp, PolicyKind::Never, options);
    session.runToCompletion();
    EXPECT_EQ(session.shotsRun(), stops[0]);
}

TEST(Session, MaxShotsCapStopsTheSession)
{
    RotatedSurfaceCode code(3);
    const auto cfg = smallConfig(4, 4096, 64);
    MemoryExperiment exp(code, cfg);
    SessionOptions options;
    options.earlyStop.maxShots = 100;
    ExperimentSession session(exp, PolicyKind::Never, options);
    session.runToCompletion();
    EXPECT_TRUE(session.done());
    EXPECT_TRUE(session.stoppedEarly());
    EXPECT_EQ(session.shotsPlanned(), 100u);
    // Rounded up to the chunk that crossed the cap, never the whole
    // plan.
    EXPECT_GE(session.shotsRun(), 100u);
    EXPECT_LT(session.shotsRun(), cfg.shots);
}

TEST(Session, WilsonRelHalfWidthShrinksWithShots)
{
    const double loose = wilsonRelHalfWidth(10, 100, 1.96);
    const double tight = wilsonRelHalfWidth(1000, 10000, 1.96);
    EXPECT_GT(loose, tight);
    EXPECT_GT(tight, 0.0);
    EXPECT_GT(wilsonRelHalfWidth(0, 0, 1.96), 1e300);
}

TEST(SweepPlan, SeedDerivationIsStableAndPhysicsOnly)
{
    const ErrorModel em = ErrorModel::standard(1e-3);
    const uint64_t seed = sweepPointSeed(
        5, 50, Basis::Z, RemovalProtocol::SwapLrc, em);
    EXPECT_EQ(seed,
              sweepPointSeed(5, 50, Basis::Z,
                             RemovalProtocol::SwapLrc, em));
    // Every physical axis moves the seed...
    EXPECT_NE(seed,
              sweepPointSeed(7, 50, Basis::Z,
                             RemovalProtocol::SwapLrc, em));
    EXPECT_NE(seed,
              sweepPointSeed(5, 51, Basis::Z,
                             RemovalProtocol::SwapLrc, em));
    EXPECT_NE(seed,
              sweepPointSeed(5, 50, Basis::X,
                             RemovalProtocol::SwapLrc, em));
    EXPECT_NE(seed,
              sweepPointSeed(5, 50, Basis::Z, RemovalProtocol::Dqlr,
                             em));
    ErrorModel other = em;
    other.p = 1e-4;
    EXPECT_NE(seed, sweepPointSeed(5, 50, Basis::Z,
                                   RemovalProtocol::SwapLrc, other));
    other = em;
    other.transport = TransportModel::Exchange;
    EXPECT_NE(seed, sweepPointSeed(5, 50, Basis::Z,
                                   RemovalProtocol::SwapLrc, other));
}

TEST(SweepPlan, PointsShareSeedsAcrossDecoderAndWidthAxes)
{
    SweepPlan plan;
    plan.distances = {3};
    plan.ps = {1e-3};
    plan.rounds = {SweepRounds::cycles(10)};
    plan.decoders = {DecoderKind::Mwpm, DecoderKind::UnionFind};
    plan.widths = {64, 512};
    plan.policies = {PolicyKind::Eraser};

    const auto points = plan.points();
    ASSERT_EQ(points.size(), 4u);
    for (const SweepPoint &point : points) {
        EXPECT_EQ(point.seed, points[0].seed)
            << "decoder kind and batch width must not change the "
               "physical scenario seed";
        EXPECT_EQ(point.rounds, 30);
        EXPECT_EQ(point.config.seed, point.seed);
        EXPECT_EQ(point.config.rounds, point.rounds);
    }
    EXPECT_NE(points[0].seed, 0u);
}

TEST(SweepPlan, ExpansionResolvesAxesAndShots)
{
    SweepPlan plan;
    plan.distances = {3, 5};
    plan.ps = {1e-3, 1e-4};
    plan.rounds = {SweepRounds::cycles(10),
                   SweepRounds::exactly(7)};
    plan.base.decode = false;
    plan.base.trackLpr = true;
    plan.shotsFor = [](int d, double p) {
        return (uint64_t)(d * 100 + (p < 5e-4 ? 1 : 0));
    };
    const auto points = plan.points();
    ASSERT_EQ(points.size(), 8u);
    EXPECT_EQ(points[0].distance, 3);
    EXPECT_EQ(points[0].rounds, 30);
    EXPECT_EQ(points[1].distance, 5);
    EXPECT_EQ(points[1].rounds, 50);
    EXPECT_EQ(points[2].rounds, 7);   // exactly(7), d=3
    EXPECT_EQ(points[0].shots, 300u);
    EXPECT_EQ(points[4].shots, 301u); // second p block
    EXPECT_DOUBLE_EQ(points[4].p, 1e-4);
    EXPECT_FALSE(points[0].config.decode);
    EXPECT_TRUE(points[0].config.trackLpr);
    for (size_t i = 0; i < points.size(); ++i)
        EXPECT_EQ(points[i].index, i);
}

TEST(SweepPlan, EmptyAxisYieldsNoPointsAndValidateRefusesIt)
{
    // points() expands whatever grid it is given: an empty axis is an
    // empty product, not an abort. validate() is where such a plan is
    // refused.
    auto expect_empty = [](const SweepPlan &plan) {
        EXPECT_TRUE(plan.points().empty());
        EXPECT_EQ(plan.validate().code(), StatusCode::InvalidArgument);
    };
    SweepPlan no_d;
    no_d.distances.clear();
    expect_empty(no_d);
    SweepPlan no_p;
    no_p.ps.clear();
    expect_empty(no_p);
    SweepPlan no_rounds;
    no_rounds.rounds.clear();
    expect_empty(no_rounds);

    // The policy set is not a grid axis: the points stand, and
    // validate() still refuses the plan.
    SweepPlan no_policies;
    no_policies.distances = {3, 5};
    no_policies.policies.clear();
    EXPECT_EQ(no_policies.points().size(), 2u);
    EXPECT_EQ(no_policies.validate().code(),
              StatusCode::InvalidArgument);
}

TEST(SweepRunner, CachesComponentsAndMatchesDirectRuns)
{
    SweepPlan plan;
    plan.name = "runner-test";
    plan.distances = {3};
    plan.ps = {1e-3, 2e-3};
    plan.rounds = {SweepRounds::exactly(6)};
    plan.policies = {PolicyKind::Always, PolicyKind::Eraser};
    plan.base.shots = 192;
    plan.base.batchWidth = 64;
    plan.base.threads = 1;

    SweepRunner runner(plan);
    CollectSink collect;
    runner.addSink(collect);
    const SweepSummary summary = runner.run();

    EXPECT_EQ(summary.points, 2u);
    EXPECT_EQ(summary.shotsRun, 2u * 2u * 192u);
    // One distance: the lattice is built once and reused; the
    // detector model is shared across the p axis; each p needs its
    // own (reweighted) decoder.
    EXPECT_EQ(summary.codesBuilt, 1u);
    EXPECT_EQ(summary.codesReused, 1u);
    EXPECT_EQ(summary.demsBuilt, 1u);
    EXPECT_EQ(summary.demsReused, 1u);
    EXPECT_EQ(summary.decodersBuilt, 2u);
    EXPECT_EQ(summary.decodersReused, 0u);

    ASSERT_EQ(collect.points.size(), 2u);
    for (const PointResult &pr : collect.points) {
        ASSERT_EQ(pr.results.size(), 2u);
        EXPECT_EQ(pr.results[0].policy, "Always-LRCs");
        // The runner's cached-component path must be bit-identical to
        // a standalone MemoryExperiment on the same resolved config.
        RotatedSurfaceCode code(pr.point.distance);
        MemoryExperiment direct(code, pr.point.config);
        const ExperimentResult ref = direct.run(PolicyKind::Eraser);
        EXPECT_EQ(pr.results[1].verdictFingerprint,
                  ref.verdictFingerprint);
        EXPECT_EQ(pr.results[1].logicalErrors, ref.logicalErrors);
        EXPECT_EQ(pr.results[1].lrcsScheduled, ref.lrcsScheduled);
    }
    EXPECT_NE(collect.points[0].point.seed,
              collect.points[1].point.seed);
}

SweepPlan
repetitionPlan(std::vector<SweepPolicy> policies)
{
    SweepPlan plan;
    plan.name = "repetition";
    plan.distances = {3};
    plan.rounds = {SweepRounds::exactly(4)};
    plan.policies = std::move(policies);
    plan.base.family = CircuitFamily::RepetitionMemory;
    plan.base.decoderKind = DecoderKind::UnionFind;
    plan.base.shots = 128;
    plan.base.batchWidth = 64;
    plan.base.threads = 1;
    return plan;
}

TEST(SweepRunner, RepetitionFamilyRefusesLrcPoliciesWithoutAborting)
{
    // The built-in LRC policies schedule surface-code pairs: the plan
    // is refused up front, and the runner reports it in its summary.
    for (PolicyKind kind : {PolicyKind::Always, PolicyKind::Eraser}) {
        const SweepPolicy policy(kind);
        const std::string name =
            policy.displayName(RemovalProtocol::SwapLrc);
        SCOPED_TRACE(name);
        const SweepPlan plan = repetitionPlan(
            kind == PolicyKind::Always
                ? std::vector<SweepPolicy>{PolicyKind::Never, policy}
                : std::vector<SweepPolicy>{policy});
        const Status st = plan.validate();
        EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
        EXPECT_NE(st.message().find("policy " + name), std::string::npos)
            << st.toString();
        EXPECT_NE(st.message().find("point 0"), std::string::npos)
            << st.toString();

        SweepRunner runner(plan);
        const SweepSummary summary = runner.run();
        EXPECT_EQ(summary.status.code(), StatusCode::InvalidArgument);
        EXPECT_EQ(summary.shotsRun, 0u);
    }

    SweepRunner never(repetitionPlan({PolicyKind::Never}));
    CollectSink collect;
    never.addSink(collect);
    const SweepSummary summary = never.run();
    EXPECT_TRUE(summary.status.isOk()) << summary.status.toString();
    EXPECT_EQ(summary.shotsRun, 128u);
    ASSERT_EQ(collect.points.size(), 1u);
    EXPECT_EQ(collect.points[0].results.size(), 1u);
}

TEST(ExperimentConfig, RepetitionFamilyRunsOnlyNever)
{
    // The family rule's one home: built-in policies other than Never
    // need the surface-memory family.
    ExperimentConfig rep = smallConfig(4, 64, 64);
    rep.family = CircuitFamily::RepetitionMemory;
    ExperimentConfig surface = smallConfig(4, 64, 64);
    for (PolicyKind kind : {PolicyKind::Always, PolicyKind::Eraser,
                            PolicyKind::EraserM, PolicyKind::Optimal}) {
        SCOPED_TRACE(policyKindName(kind));
        const Status st = validateExperimentConfig(rep, kind);
        EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
        EXPECT_NE(st.message().find("policy " + policyKindName(kind)),
                  std::string::npos)
            << st.toString();
        EXPECT_TRUE(validateExperimentConfig(surface, kind).isOk());
    }
    EXPECT_TRUE(validateExperimentConfig(rep, PolicyKind::Never).isOk());

    // Both policy-kind entry points hold it as their precondition and
    // refuse up front, naming the rule.
    RotatedSurfaceCode code(3);
    MemoryExperiment exp(code, rep);
    EXPECT_DEATH({ exp.run(PolicyKind::Always); },
                 "needs the surface_memory family");
    EXPECT_DEATH({ ExperimentSession session(exp, PolicyKind::Eraser); },
                 "needs the surface_memory family");
    EXPECT_EQ(exp.run(PolicyKind::Never).shots, 64u);

    // The config checks still come first.
    rep.rounds = 0;
    EXPECT_EQ(validateExperimentConfig(rep, PolicyKind::Never).code(),
              StatusCode::InvalidArgument);
}

TEST(SweepBuildCache, PointsOfOneDistanceShareOneLookupTable)
{
    SweepPlan plan;
    plan.distances = {3, 5};
    plan.ps = {1e-3, 2e-3};
    plan.rounds = {SweepRounds::exactly(4)};
    plan.policies = {PolicyKind::Eraser};
    plan.base.decode = false;
    plan.base.shots = 64;
    plan.base.batchWidth = 64;
    plan.base.threads = 1;
    const std::vector<SweepPoint> points = plan.points();
    ASSERT_EQ(points.size(), 4u);

    SweepBuildCache cache;
    SweepSummary summary;
    std::vector<SweepBuildCache::Components> built;
    for (const SweepPoint &point : points) {
        StatusOr<SweepBuildCache::Components> comp =
            cache.build(point, plan.base.decoderOptions, summary);
        ASSERT_TRUE(comp.ok()) << comp.status().toString();
        ASSERT_NE(comp.value().lookup, nullptr);
        built.push_back(comp.value());
    }
    for (size_t i = 0; i < points.size(); ++i) {
        for (size_t j = i + 1; j < points.size(); ++j) {
            EXPECT_EQ(built[i].lookup == built[j].lookup,
                      points[i].distance == points[j].distance)
                << "points " << i << " and " << j;
        }
    }

    // Experiments built from the components use the shared table; the
    // constructor without one still builds its own.
    const SweepBuildCache::Components &c = built[0];
    MemoryExperiment shared(*c.code, points[0].config, c.dem, c.decoder,
                            c.program, c.lookup);
    EXPECT_EQ(&shared.lookup(), c.lookup.get());
    MemoryExperiment own(*c.code, points[0].config, c.dem, c.decoder,
                         c.program);
    EXPECT_NE(&own.lookup(), c.lookup.get());
    const ExperimentResult a = shared.run(PolicyKind::Eraser);
    const ExperimentResult b = own.run(PolicyKind::Eraser);
    EXPECT_EQ(a.lrcsScheduled, b.lrcsScheduled);
    EXPECT_EQ(a.tp, b.tp);
}

TEST(SweepRunner, JsonSinkEmitsTheUnifiedSchema)
{
    SweepPlan plan;
    plan.name = "json-test";
    plan.distances = {3};
    plan.rounds = {SweepRounds::exactly(4)};
    plan.policies = {PolicyKind::Eraser};
    plan.base.shots = 64;
    plan.base.batchWidth = 64;
    plan.base.threads = 1;

    const std::string path = ::testing::TempDir() + "sweep_test.json";
    {
        SweepRunner runner(plan);
        JsonSink json(path);
        ASSERT_TRUE(json.ok());
        runner.addSink(json);
        runner.run();
    }

    FILE *in = std::fopen(path.c_str(), "r");
    ASSERT_NE(in, nullptr);
    std::string content;
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), in)) > 0)
        content.append(buf, n);
    std::fclose(in);
    std::remove(path.c_str());

    for (const char *key :
         {"\"schema\": \"qec.sweep.v1\"", "\"sweep\": \"json-test\"",
          "\"seed\": ", "\"shots\": 64", "\"ler\": ",
          "\"fingerprint\": \"0x", "\"policy\": \"ERASER\"",
          "\"stopped_early\": false", "\"summary\": ",
          "\"decoders_built\": 1"}) {
        EXPECT_NE(content.find(key), std::string::npos)
            << "missing " << key << " in:\n"
            << content;
    }
}

TEST(SweepRunner, TableSinkPrintsARowPerPoint)
{
    SweepPlan plan;
    plan.distances = {3};
    plan.ps = {1e-3, 2e-3};
    plan.rounds = {SweepRounds::exactly(4)};
    plan.policies = {PolicyKind::Always, PolicyKind::Eraser};
    plan.base.shots = 64;
    plan.base.batchWidth = 64;
    plan.base.decode = false;
    plan.base.threads = 1;

    FILE *tmp = std::tmpfile();
    ASSERT_NE(tmp, nullptr);
    TableSink::Options options;
    options.metric = TableSink::Metric::LrcsPerRound;
    options.out = tmp;
    TableSink table(options);
    SweepRunner runner(plan);
    runner.addSink(table);
    runner.run();

    std::fflush(tmp);
    std::rewind(tmp);
    std::string content;
    char line[512];
    int lines = 0;
    while (std::fgets(line, sizeof(line), tmp)) {
        content += line;
        ++lines;
    }
    std::fclose(tmp);
    EXPECT_EQ(lines, 4);   // header + 2 points + summary line
    EXPECT_NE(content.find("Always-LRCs"), std::string::npos);
    EXPECT_NE(content.find("[sweep] 2 points"), std::string::npos);
}

} // namespace
} // namespace qec
