/**
 * @file
 * Tests for the extension features built on the paper's future-work
 * directions: evidence-accumulating speculation (lower FNR than base
 * ERASER on single-flip leakage) and post-processing rejection (the
 * prior-work contrast of Section 7.1).
 */

#include <gtest/gtest.h>

#include <cmath>

#include "core/evidence_policy.h"
#include "exp/postselection.h"
#include "scalar_reference.h"

namespace qec
{
namespace
{

RoundObservation
quiet(const RotatedSurfaceCode &code, int round)
{
    RoundObservation obs;
    obs.round = round;
    obs.events.assign(code.numStabilizers(), 0);
    obs.leakedLabels.assign(code.numStabilizers(), 0);
    obs.hadLrc.assign(code.numData(), 0);
    obs.trueLeakedData.assign(code.numData(), 0);
    return obs;
}

class EvidenceFixture : public ::testing::Test
{
  protected:
    EvidenceFixture() : code_(5), lookup_(code_) {}

    RotatedSurfaceCode code_;
    SwapLookupTable lookup_;
};

TEST_F(EvidenceFixture, QuietStaysIdle)
{
    EvidenceEraserPolicy policy(code_, lookup_);
    for (int r = 0; r < 6; ++r)
        EXPECT_TRUE(policy.nextRound(quiet(code_, r)).empty());
}

TEST_F(EvidenceFixture, DoubleFlipFiresImmediately)
{
    EvidenceEraserPolicy policy(code_, lookup_);
    const int q = code_.dataId(2, 2);
    auto obs = quiet(code_, 0);
    obs.events[code_.stabilizersOfData(q)[0]] = 1;
    obs.events[code_.stabilizersOfData(q)[1]] = 1;
    auto lrcs = policy.nextRound(obs);
    bool found = false;
    for (const auto &pair : lrcs)
        found |= pair.data == q;
    EXPECT_TRUE(found);
}

TEST_F(EvidenceFixture, SingleFlipsAccumulateAcrossRounds)
{
    // The case base ERASER can never catch (Section 6.4.2): one
    // neighbouring check flipping per round.
    EvidenceEraserPolicy policy(code_, lookup_);
    const int q = code_.dataId(2, 2);
    const int s = code_.stabilizersOfData(q)[0];

    auto obs = quiet(code_, 0);
    obs.events[s] = 1;
    EXPECT_EQ(policy.nextRound(obs).size(), 0u);
    EXPECT_EQ(policy.evidence(q), 1);

    auto obs2 = quiet(code_, 1);
    obs2.events[s] = 1;
    auto lrcs = policy.nextRound(obs2);
    bool found = false;
    for (const auto &pair : lrcs)
        found |= pair.data == q;
    EXPECT_TRUE(found);
    EXPECT_EQ(policy.evidence(q), 0);   // reset once scheduled
}

TEST_F(EvidenceFixture, EvidenceDecaysWhenQuiet)
{
    EvidenceEraserPolicy policy(code_, lookup_);
    const int q = code_.dataId(2, 2);
    auto obs = quiet(code_, 0);
    obs.events[code_.stabilizersOfData(q)[0]] = 1;
    policy.nextRound(obs);
    EXPECT_EQ(policy.evidence(q), 1);
    policy.nextRound(quiet(code_, 1));
    EXPECT_EQ(policy.evidence(q), 0);
    // A later single flip no longer fires.
    auto obs2 = quiet(code_, 2);
    obs2.events[code_.stabilizersOfData(q)[0]] = 1;
    EXPECT_TRUE(policy.nextRound(obs2).empty());
}

TEST_F(EvidenceFixture, LrcResetsEvidence)
{
    EvidenceEraserPolicy policy(code_, lookup_);
    const int q = code_.dataId(2, 2);
    auto obs = quiet(code_, 0);
    obs.events[code_.stabilizersOfData(q)[0]] = 1;
    policy.nextRound(obs);

    auto obs2 = quiet(code_, 1);
    obs2.hadLrc[q] = 1;
    obs2.events[code_.stabilizersOfData(q)[0]] = 1;   // echo
    // The echo may legitimately implicate the stabilizer's *other*
    // data qubits; the freshly cleaned one must not fire.
    for (const auto &pair : policy.nextRound(obs2))
        EXPECT_NE(pair.data, q);
    EXPECT_EQ(policy.evidence(q), 0);
}

TEST_F(EvidenceFixture, SaturationBounded)
{
    EvidenceOptions options;
    options.saturate = 3;
    options.fireThreshold = 10;   // never fire, to watch the counter
    EvidenceEraserPolicy policy(code_, lookup_, options);
    const int q = code_.dataId(2, 2);
    for (int r = 0; r < 6; ++r) {
        auto obs = quiet(code_, r);
        for (int s : code_.stabilizersOfData(q))
            obs.events[s] = 1;
        policy.nextRound(obs);
    }
    EXPECT_EQ(policy.evidence(q), 3);
}

TEST_F(EvidenceFixture, LowersFalseNegativesVsBaseEraser)
{
    ExperimentConfig cfg;
    cfg.rounds = 30;
    cfg.shots = 600;
    cfg.seed = 91;
    cfg.decode = false;
    MemoryExperiment exp(code_, cfg);

    auto base = exp.run(PolicyKind::Eraser);
    auto evidence = exp.run(
        [this]() {
            return std::make_unique<EvidenceEraserPolicy>(code_,
                                                          lookup_);
        },
        "ERASER+EV");
    EXPECT_LT(evidence.falseNegativeRate(), base.falseNegativeRate());
    // The price: somewhat more LRCs, but nowhere near Always-LRCs.
    EXPECT_LT(evidence.avgLrcsPerRound(),
              code_.numStabilizers() / 4.0);
}

TEST(PostSelection, CleanRunsKeepEverything)
{
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 8;
    cfg.shots = 300;
    cfg.seed = 92;
    cfg.em = ErrorModel::noiseless();
    auto result = runPostSelectedExperiment(code, cfg);
    EXPECT_EQ(result.kept, result.shots);
    EXPECT_EQ(result.logicalErrorsAll, 0u);
}

TEST(PostSelection, DiscardsLeakyShotsAndImprovesLer)
{
    RotatedSurfaceCode code(5);
    ExperimentConfig cfg;
    cfg.rounds = 30;
    cfg.shots = 1200;
    cfg.seed = 93;
    cfg.em = ErrorModel::standard(1e-3);
    auto result = runPostSelectedExperiment(code, cfg);
    EXPECT_LT(result.kept, result.shots);   // something was rejected
    EXPECT_GT(result.keptFraction(), 0.1);  // but not everything
    EXPECT_LT(result.lerKept(), result.lerAll());
}

TEST(PostSelection, BatchedW64AgreesStatistically)
{
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 15;
    cfg.shots = 1500;
    cfg.seed = 96;
    cfg.em = ErrorModel::standard(2e-3);

    auto scalar = scalar_reference::runPostSelected(code, cfg);
    cfg.batchWidth = 64;
    auto batched = runPostSelectedExperiment(code, cfg);

    EXPECT_EQ(batched.shots, scalar.shots);
    EXPECT_NEAR(batched.keptFraction(), scalar.keptFraction(), 0.06);
    EXPECT_NEAR(batched.lerAll(), scalar.lerAll(),
                5.0 * std::sqrt(scalar.lerAll() *
                                (1.0 - scalar.lerAll()) /
                                (double)cfg.shots) +
                    1e-3);
}

TEST(PostSelection, ThresholdControlsRejectionRate)
{
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 20;
    cfg.shots = 500;
    cfg.seed = 94;

    PostSelectOptions strict;
    strict.eventThreshold = 2;
    PostSelectOptions loose;
    loose.eventThreshold = 4;
    auto strict_r = runPostSelectedExperiment(code, cfg, strict);
    auto loose_r = runPostSelectedExperiment(code, cfg, loose);
    EXPECT_LE(strict_r.kept, loose_r.kept);
}

} // namespace
} // namespace qec
