/**
 * @file
 * Fault-tolerance suite: Status/StatusOr semantics, crash-safe file
 * emission (CRC + atomic rename), the deterministic fault-injection
 * harness, recoverable config validation, session progress/restore,
 * checkpoint artifact integrity (corrupt / truncated / version-skewed
 * files rejected with a clear Status), retry/quarantine/deadline
 * behavior of SweepRunner, and the centerpiece: a sweep killed at
 * EVERY chunk boundary in turn (simulated process death), resumed
 * from its checkpoint, and pinned bit-identical — fingerprints,
 * counters, shots — to an uninterrupted run, at widths 64/256/512.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include <unistd.h>

#include "base/atomic_file.h"
#include "base/fault_injection.h"
#include "base/status.h"
#include "exp/checkpoint.h"
#include "exp/experiment_session.h"
#include "exp/sweep_runner.h"

namespace qec
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "qec_ft_" +
           std::to_string((unsigned long)::getpid()) + "_" + name;
}

ExperimentConfig
smallConfig(int rounds, uint64_t shots, unsigned width)
{
    ExperimentConfig cfg;
    cfg.rounds = rounds;
    cfg.shots = shots;
    cfg.seed = 77;
    cfg.em = ErrorModel::standard(2e-3);
    cfg.batchWidth = width;
    cfg.threads = 1;
    return cfg;
}

/** Small decoded plan with deterministic multi-chunk execution:
 *  maxShots == shots enables the early-stop machinery (so the runner
 *  chunks at checkEvery boundaries) without changing any result. */
SweepPlan
smallPlan(unsigned width, uint64_t shots, std::vector<double> ps)
{
    SweepPlan plan;
    plan.name = "ft_test_w" + std::to_string(width);
    plan.distances = {3};
    plan.ps = std::move(ps);
    plan.rounds = {SweepRounds::exactly(6)};
    plan.policies = {SweepPolicy(PolicyKind::Always),
                     SweepPolicy(PolicyKind::Eraser)};
    plan.base.shots = shots;
    plan.base.batchWidth = width;
    plan.base.threads = 1;
    plan.earlyStop.maxShots = shots;
    plan.earlyStop.checkEvery = 128;
    return plan;
}

void
expectResultIdentical(const ExperimentResult &a,
                      const ExperimentResult &b)
{
    EXPECT_EQ(a.policy, b.policy);
    EXPECT_EQ(a.shots, b.shots);
    EXPECT_EQ(a.logicalErrors, b.logicalErrors);
    EXPECT_EQ(a.verdictFingerprint, b.verdictFingerprint);
    EXPECT_EQ(a.tp, b.tp);
    EXPECT_EQ(a.fp, b.fp);
    EXPECT_EQ(a.tn, b.tn);
    EXPECT_EQ(a.fn, b.fn);
    EXPECT_EQ(a.lrcsScheduled, b.lrcsScheduled);
    EXPECT_EQ(a.roundsTotal, b.roundsTotal);
}

void
expectPointsIdentical(const std::vector<PointResult> &a,
                      const std::vector<PointResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].point.index, b[i].point.index);
        EXPECT_EQ(a[i].point.seed, b[i].point.seed);
        ASSERT_EQ(a[i].results.size(), b[i].results.size());
        for (size_t j = 0; j < a[i].results.size(); ++j)
            expectResultIdentical(a[i].results[j], b[i].results[j]);
    }
}

/** Every test leaves the harness disarmed, whatever happened. */
class FaultTolerance : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        fault::reset();
    }
    void
    TearDown() override
    {
        fault::reset();
    }
};

// ---------------------------------------------------------- Status

TEST_F(FaultTolerance, StatusDefaultsToOk)
{
    Status st;
    EXPECT_TRUE(st.isOk());
    EXPECT_EQ(st.code(), StatusCode::Ok);
    EXPECT_EQ(st.toString(), "ok");
    EXPECT_FALSE(st.isRetryable());
}

TEST_F(FaultTolerance, StatusFactoriesCarryCodeAndMessage)
{
    const Status st = invalidArgument("bad width");
    EXPECT_FALSE(st.isOk());
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
    EXPECT_EQ(st.message(), "bad width");
    EXPECT_EQ(st.toString(), "invalid_argument: bad width");
}

TEST_F(FaultTolerance, OnlyTransientCodesAreRetryable)
{
    EXPECT_TRUE(unavailableError("io").isRetryable());
    EXPECT_TRUE(resourceExhaustedError("oom").isRetryable());
    EXPECT_FALSE(invalidArgument("x").isRetryable());
    EXPECT_FALSE(dataLossError("x").isRetryable());
    EXPECT_FALSE(failedPrecondition("x").isRetryable());
    EXPECT_FALSE(notFoundError("x").isRetryable());
    EXPECT_FALSE(deadlineExceededError("x").isRetryable());
    EXPECT_FALSE(internalError("x").isRetryable());
}

TEST_F(FaultTolerance, StatusOrHoldsValueOrStatus)
{
    StatusOr<int> good(42);
    EXPECT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 42);

    StatusOr<int> bad(notFoundError("missing"));
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::NotFound);
}

// ----------------------------------------------- crash-safe files

TEST_F(FaultTolerance, Crc32MatchesKnownVector)
{
    // The canonical IEEE 802.3 check value.
    EXPECT_EQ(crc32("123456789", 9), 0xCBF43926u);
    // Incremental == one-shot.
    const uint32_t part = crc32("12345", 5);
    EXPECT_EQ(crc32("6789", 4, part), 0xCBF43926u);
}

TEST_F(FaultTolerance, WriteFileAtomicRoundTrips)
{
    const std::string path = tempPath("roundtrip.bin");
    const std::string payload("alpha\0beta", 10);
    ASSERT_TRUE(
        writeFileAtomic(path, payload.data(), payload.size()).isOk());
    std::string back;
    ASSERT_TRUE(readFile(path, back).isOk());
    EXPECT_EQ(back, payload);

    // Overwrite is also atomic and complete.
    ASSERT_TRUE(writeFileAtomic(path, "x", 1).isOk());
    ASSERT_TRUE(readFile(path, back).isOk());
    EXPECT_EQ(back, "x");
    std::remove(path.c_str());
}

TEST_F(FaultTolerance, ReadFileReportsNotFound)
{
    std::string out;
    const Status st = readFile(tempPath("never-written"), out);
    EXPECT_EQ(st.code(), StatusCode::NotFound);
}

TEST_F(FaultTolerance, AbandonedWriterLeavesNothingBehind)
{
    const std::string path = tempPath("abandoned.bin");
    {
        AtomicFileWriter writer;
        ASSERT_TRUE(writer.open(path).isOk());
        ASSERT_TRUE(writer.write("partial", 7).isOk());
        // No commit: destructor must clean up the temp file.
    }
    std::string out;
    EXPECT_EQ(readFile(path, out).code(), StatusCode::NotFound);
}

// ------------------------------------------------ fault injection

TEST_F(FaultTolerance, FaultPointFiresAtExactCountdown)
{
    fault::arm("ft.site", 3, fault::Kind::ReturnError);
    EXPECT_FALSE(QEC_FAULT_POINT("ft.site"));
    EXPECT_FALSE(QEC_FAULT_POINT("ft.site"));
    EXPECT_TRUE(QEC_FAULT_POINT("ft.site"));
    // One-shot: disarms after firing.
    EXPECT_FALSE(QEC_FAULT_POINT("ft.site"));
    EXPECT_EQ(fault::hits("ft.site"), 4u);
}

TEST_F(FaultTolerance, RepeatingFaultKeepsFiring)
{
    fault::arm("ft.repeat", 2, fault::Kind::ReturnError,
               /*repeat=*/true);
    EXPECT_FALSE(QEC_FAULT_POINT("ft.repeat"));
    EXPECT_TRUE(QEC_FAULT_POINT("ft.repeat"));
    EXPECT_TRUE(QEC_FAULT_POINT("ft.repeat"));
    fault::disarm("ft.repeat");
    EXPECT_FALSE(QEC_FAULT_POINT("ft.repeat"));
}

TEST_F(FaultTolerance, CrashKindThrowsSimulatedCrash)
{
    fault::arm("ft.crash", 1, fault::Kind::Crash);
    EXPECT_THROW((void)QEC_FAULT_POINT("ft.crash"), SimulatedCrash);
}

TEST_F(FaultTolerance, HitCountingWorksUnarmed)
{
    fault::countHits();
    EXPECT_FALSE(QEC_FAULT_POINT("ft.counted"));
    EXPECT_FALSE(QEC_FAULT_POINT("ft.counted"));
    EXPECT_EQ(fault::hits("ft.counted"), 2u);
    fault::reset();
    EXPECT_EQ(fault::hits("ft.counted"), 0u);
}

// ------------------------------------------- config validation

TEST_F(FaultTolerance, ConfigValidationRejectsBadRoundsWidthAndP)
{
    ExperimentConfig cfg = smallConfig(0, 64, 64);
    EXPECT_EQ(validateExperimentConfig(cfg).code(),
              StatusCode::InvalidArgument);

    cfg = smallConfig(6, 64, 1024);  // > kMaxBatchLanes
    EXPECT_EQ(validateExperimentConfig(cfg).code(),
              StatusCode::InvalidArgument);

    cfg = smallConfig(6, 64, 64);
    cfg.em.p = -0.5;
    EXPECT_EQ(validateExperimentConfig(cfg).code(),
              StatusCode::InvalidArgument);
}

TEST_F(FaultTolerance, PlanValidationNamesTheOffendingPoint)
{
    SweepPlan plan = smallPlan(64, 128, {1e-3});
    EXPECT_TRUE(plan.validate().isOk());

    plan.distances = {3, 4};  // even distance is not a valid code
    const Status st = plan.validate();
    EXPECT_EQ(st.code(), StatusCode::InvalidArgument);
    EXPECT_NE(st.message().find("d=4"), std::string::npos);

    // The runner surfaces this instead of dying.
    SweepRunner runner(plan);
    const SweepSummary summary = runner.run();
    EXPECT_EQ(summary.status.code(), StatusCode::InvalidArgument);
    EXPECT_EQ(summary.points, 0u);

    // A point with no shots has no LER to report.
    plan.distances = {3, 5};
    plan.shotsFor = [](int d, double) -> uint64_t {
        return d == 5 ? 0 : 64;
    };
    const Status zero = plan.validate();
    EXPECT_EQ(zero.code(), StatusCode::InvalidArgument);
    EXPECT_NE(zero.message().find("point 1 (d=5)"), std::string::npos);
    EXPECT_NE(zero.message().find("shot count is 0"), std::string::npos);
    EXPECT_EQ(ExperimentResult{}.lerString(), "n/a");
}

TEST_F(FaultTolerance, RotatedSurfaceCodeValidatesDistance)
{
    EXPECT_TRUE(RotatedSurfaceCode::validateDistance(3).isOk());
    EXPECT_TRUE(RotatedSurfaceCode::validateDistance(11).isOk());
    EXPECT_EQ(RotatedSurfaceCode::validateDistance(4).code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(RotatedSurfaceCode::validateDistance(1).code(),
              StatusCode::InvalidArgument);
    EXPECT_EQ(RotatedSurfaceCode::validateDistance(-3).code(),
              StatusCode::InvalidArgument);
}

// -------------------------------------- session progress/restore

TEST_F(FaultTolerance, SessionRestoreResumesBitIdenticallyBatched)
{
    RotatedSurfaceCode code(3);
    const ExperimentConfig cfg = smallConfig(6, 384, 64);
    MemoryExperiment exp(code, cfg);

    ExperimentSession reference(exp, PolicyKind::Eraser);
    reference.runToCompletion();

    // Run half the chunks, snapshot, resume in a fresh session.
    ExperimentSession first(exp, PolicyKind::Eraser);
    first.runChunk(128);
    ASSERT_FALSE(first.done());
    const SessionProgress snapshot = first.progress();

    ExperimentSession second(exp, PolicyKind::Eraser);
    ASSERT_TRUE(second.restore(snapshot).isOk());
    second.runToCompletion();
    expectResultIdentical(second.result(), reference.result());
}

TEST_F(FaultTolerance, SessionRestoreResumesBitIdenticallyWidth1)
{
    RotatedSurfaceCode code(3);
    const ExperimentConfig cfg = smallConfig(6, 200, 1);
    MemoryExperiment exp(code, cfg);

    ExperimentSession reference(exp, PolicyKind::Eraser);
    reference.runToCompletion();

    // Width 1: every shot is its own word-group, so the cursor counts
    // shots.
    ExperimentSession first(exp, PolicyKind::Eraser);
    first.runChunk(70);
    const SessionProgress snapshot = first.progress();
    EXPECT_EQ(snapshot.nextSpan, 70u);

    ExperimentSession second(exp, PolicyKind::Eraser);
    ASSERT_TRUE(second.restore(snapshot).isOk());
    second.runToCompletion();
    expectResultIdentical(second.result(), reference.result());
}

TEST_F(FaultTolerance, SessionRestoreRejectsUsedAndInconsistent)
{
    RotatedSurfaceCode code(3);
    const ExperimentConfig cfg = smallConfig(6, 384, 64);
    MemoryExperiment exp(code, cfg);

    ExperimentSession donor(exp, PolicyKind::Eraser);
    donor.runChunk(128);
    const SessionProgress snapshot = donor.progress();

    // Restore into a session that already ran: FailedPrecondition.
    ExperimentSession used(exp, PolicyKind::Eraser);
    used.runChunk(64);
    EXPECT_EQ(used.restore(snapshot).code(),
              StatusCode::FailedPrecondition);

    // A cursor/shots mismatch (foreign decomposition): DataLoss.
    SessionProgress doctored = snapshot;
    doctored.total.shots += 1;
    ExperimentSession fresh(exp, PolicyKind::Eraser);
    EXPECT_EQ(fresh.restore(doctored).code(), StatusCode::DataLoss);

    // A span cursor beyond the plan: DataLoss.
    doctored = snapshot;
    doctored.nextSpan = 10000;
    ExperimentSession fresh2(exp, PolicyKind::Eraser);
    EXPECT_EQ(fresh2.restore(doctored).code(), StatusCode::DataLoss);
}

// -------------------------------------- checkpoint artifact

TEST_F(FaultTolerance, CheckpointSerializationRoundTrips)
{
    SweepCheckpoint ckpt;
    ckpt.planFingerprint = 0xfeedfacecafebeefull;
    PointCheckpoint point;
    point.pointIndex = 2;
    point.seed = 12345;
    point.finished = false;
    PolicyCheckpoint policy;
    policy.progress.total.policy = "ERASER";
    policy.progress.total.shots = 128;
    policy.progress.total.logicalErrors = 3;
    policy.progress.total.verdictFingerprint = 0xabcdefull;
    policy.progress.total.lprDataSum = {1.5, 2.5};
    policy.progress.nextSpan = 2;
    policy.seconds = 0.25;
    point.policies.push_back(policy);
    ckpt.points.emplace(2, point);

    const std::string path = tempPath("roundtrip.ckpt");
    ASSERT_TRUE(ckpt.save(path).isOk());
    StatusOr<SweepCheckpoint> loaded = SweepCheckpoint::load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();

    const SweepCheckpoint &back = loaded.value();
    EXPECT_EQ(back.planFingerprint, ckpt.planFingerprint);
    ASSERT_EQ(back.points.size(), 1u);
    const PointCheckpoint &p = back.points.at(2);
    EXPECT_EQ(p.seed, 12345u);
    EXPECT_FALSE(p.finished);
    ASSERT_EQ(p.policies.size(), 1u);
    EXPECT_EQ(p.policies[0].progress.total.policy, "ERASER");
    EXPECT_EQ(p.policies[0].progress.total.shots, 128u);
    EXPECT_EQ(p.policies[0].progress.total.logicalErrors, 3u);
    EXPECT_EQ(p.policies[0].progress.total.verdictFingerprint,
              0xabcdefull);
    EXPECT_EQ(p.policies[0].progress.total.lprDataSum,
              (std::vector<double>{1.5, 2.5}));
    EXPECT_EQ(p.policies[0].progress.nextSpan, 2u);
    EXPECT_DOUBLE_EQ(p.policies[0].seconds, 0.25);
    std::remove(path.c_str());
}

TEST_F(FaultTolerance, CheckpointLoadReportsNotFound)
{
    StatusOr<SweepCheckpoint> loaded =
        SweepCheckpoint::load(tempPath("no-such.ckpt"));
    EXPECT_EQ(loaded.status().code(), StatusCode::NotFound);
}

TEST_F(FaultTolerance, CorruptCheckpointsAreRejectedWithDataLoss)
{
    SweepCheckpoint ckpt;
    ckpt.planFingerprint = 7;
    PointCheckpoint point;
    point.pointIndex = 0;
    point.seed = 9;
    point.finished = true;
    point.policies.resize(2);
    ckpt.points.emplace(0, point);
    const std::string bytes = ckpt.serialize();
    ASSERT_TRUE(SweepCheckpoint::deserialize(bytes).ok());

    // Flip one payload byte: the CRC must catch it.
    {
        std::string bad = bytes;
        bad[bad.size() - 1] ^= 0x40;
        const Status st = SweepCheckpoint::deserialize(bad).status();
        EXPECT_EQ(st.code(), StatusCode::DataLoss);
        EXPECT_NE(st.message().find("CRC"), std::string::npos);
    }
    // Truncated tail (a torn non-atomic write).
    {
        const Status st =
            SweepCheckpoint::deserialize(
                bytes.substr(0, bytes.size() - 5))
                .status();
        EXPECT_EQ(st.code(), StatusCode::DataLoss);
    }
    // Shorter than the header.
    {
        const Status st =
            SweepCheckpoint::deserialize(bytes.substr(0, 10))
                .status();
        EXPECT_EQ(st.code(), StatusCode::DataLoss);
    }
    // Version skew: a future format must not half-parse.
    {
        std::string skew = bytes;
        skew[8] = 99;
        const Status st = SweepCheckpoint::deserialize(skew).status();
        EXPECT_EQ(st.code(), StatusCode::DataLoss);
        EXPECT_NE(st.message().find("version"), std::string::npos);
    }
    // Foreign bytes entirely.
    {
        const Status st =
            SweepCheckpoint::deserialize("this is not a checkpoint")
                .status();
        EXPECT_EQ(st.code(), StatusCode::DataLoss);
        EXPECT_NE(st.message().find("magic"), std::string::npos);
    }
}

TEST_F(FaultTolerance, CheckpointRefusesLegacyScalarCursor)
{
    // qec.ckpt.v1 keeps a u64 slot right after each policy's span
    // cursor for the cursor of the retired scalar per-shot engine. The
    // writer stores 0 there; a nonzero slot is progress no engine can
    // resume, so the reader must refuse it instead of restoring it
    // onto the batch engine.
    SweepCheckpoint ckpt;
    ckpt.planFingerprint = 11;
    PointCheckpoint point;
    point.pointIndex = 0;
    point.seed = 5;
    PolicyCheckpoint policy;
    policy.progress.total.shots = 70;
    const uint64_t marker = 0x1122334455667788ull;
    policy.progress.nextSpan = marker;
    point.policies.push_back(policy);
    ckpt.points.emplace(0, point);
    std::string bytes = ckpt.serialize();

    constexpr size_t kHeader = 8 + 4 + 4 + 8;
    std::string span_bytes(8, '\0');
    for (int i = 0; i < 8; ++i)
        span_bytes[i] = (char)(marker >> (8 * i));
    const size_t span_at = bytes.find(span_bytes, kHeader);
    ASSERT_NE(span_at, std::string::npos);
    const size_t slot_at = span_at + 8;
    EXPECT_EQ(bytes.substr(slot_at, 8), std::string(8, '\0'));
    ASSERT_TRUE(SweepCheckpoint::deserialize(bytes).ok());

    // A per-shot cursor of 70 in the legacy slot, with a valid CRC.
    bytes[slot_at] = 70;
    const uint32_t crc =
        crc32(bytes.data() + kHeader, bytes.size() - kHeader);
    for (int i = 0; i < 4; ++i)
        bytes[12 + i] = (char)(crc >> (8 * i));
    const Status st = SweepCheckpoint::deserialize(bytes).status();
    EXPECT_EQ(st.code(), StatusCode::DataLoss);
    EXPECT_NE(st.message().find("per-shot"), std::string::npos)
        << st.toString();
}

TEST_F(FaultTolerance, RunnerRefusesCorruptCheckpoint)
{
    const std::string path = tempPath("corrupt.ckpt");
    ASSERT_TRUE(writeFileAtomic(path, "garbage bytes", 13).isOk());

    SweepPlan plan = smallPlan(64, 128, {1e-3});
    SweepRunner runner(plan);
    SweepRunOptions options;
    options.checkpoint.path = path;
    const SweepSummary summary = runner.run(options);
    EXPECT_EQ(summary.status.code(), StatusCode::DataLoss);
    EXPECT_EQ(summary.resumeStatus.code(), StatusCode::DataLoss);
    EXPECT_EQ(summary.points, 0u);
    std::remove(path.c_str());
}

TEST_F(FaultTolerance, RunnerRefusesCheckpointFromDifferentPlan)
{
    const std::string path = tempPath("foreign.ckpt");
    SweepPlan plan_a = smallPlan(64, 128, {1e-3});
    {
        SweepRunner runner(plan_a);
        SweepRunOptions options;
        options.checkpoint.path = path;
        ASSERT_TRUE(runner.run(options).status.isOk());
    }
    // Same path, different shot count: a different plan identity.
    SweepPlan plan_b = smallPlan(64, 256, {1e-3});
    plan_b.earlyStop.maxShots = 256;
    SweepRunner runner(plan_b);
    SweepRunOptions options;
    options.checkpoint.path = path;
    const SweepSummary summary = runner.run(options);
    EXPECT_EQ(summary.status.code(), StatusCode::FailedPrecondition);
    EXPECT_NE(summary.status.message().find("fingerprint"),
              std::string::npos);
    std::remove(path.c_str());
}

TEST_F(FaultTolerance, PlanFingerprintMatchesEarlierCheckpoints)
{
    // Recorded while ExperimentConfig still had settable window
    // lengths, which the fingerprint chained as 0: checkpoints written
    // then must keep resuming.
    const SweepPlan plan = smallPlan(64, 128, {1e-3});
    EXPECT_EQ(SweepCheckpoint::fingerprintPlan(plan, plan.points(), 2),
              0xe781e4864557ee4dULL);
}

TEST_F(FaultTolerance, ResumeRefusesCheckpointFromOtherNoiseContract)
{
    // A checkpoint written under an earlier draw contract carries a
    // plan fingerprint folded with that contract: resuming it under
    // this engine must be refused, never merged with the new streams.
    const std::string path = tempPath("stale_contract.ckpt");
    SweepPlan plan = smallPlan(64, 128, {1e-3});
    const std::vector<SweepPoint> points = plan.points();
    const uint64_t current =
        SweepCheckpoint::fingerprintPlan(plan, points);
    EXPECT_EQ(current, SweepCheckpoint::fingerprintPlan(plan, points,
                                                        kNoiseContract));
    const uint64_t stale = SweepCheckpoint::fingerprintPlan(
        plan, points, kNoiseContract - 1);
    ASSERT_NE(stale, current);
    {
        SweepRunner runner(plan);
        SweepRunOptions options;
        options.checkpoint.path = path;
        ASSERT_TRUE(runner.run(options).status.isOk());
    }
    StatusOr<SweepCheckpoint> written = SweepCheckpoint::load(path);
    ASSERT_TRUE(written.ok()) << written.status().toString();
    ASSERT_EQ(written.value().planFingerprint, current);
    SweepCheckpoint ckpt = std::move(written).value();
    ckpt.planFingerprint = stale;
    ASSERT_TRUE(ckpt.save(path).isOk());

    SweepRunOptions options;
    options.checkpoint.path = path;
    SweepRunner runner(plan);
    const SweepSummary summary = runner.run(options);
    EXPECT_EQ(summary.status.code(), StatusCode::FailedPrecondition);
    EXPECT_EQ(summary.resumeStatus.code(),
              StatusCode::FailedPrecondition);
    EXPECT_NE(summary.status.message().find("noise contract"),
              std::string::npos);
    EXPECT_EQ(summary.points, 0u);
    // The scheduled executor checks the same identity.
    options.schedule = true;
    EXPECT_EQ(runner.run(options).status.code(),
              StatusCode::FailedPrecondition);
    std::remove(path.c_str());
}

// ------------------------------------------------ JsonSink safety

TEST_F(FaultTolerance, JsonSinkPublishesOnlyAtEndSweep)
{
    const std::string path = tempPath("sweep.json");
    SweepPlan plan = smallPlan(64, 128, {1e-3});
    {
        JsonSink sink(path);
        ASSERT_TRUE(sink.ok());
        sink.beginSweep(plan, plan.points());
        // Killed before endSweep: no artifact may exist.
    }
    std::string out;
    EXPECT_EQ(readFile(path, out).code(), StatusCode::NotFound);

    JsonSink sink(path);
    ASSERT_TRUE(sink.ok());
    SweepRunner runner(plan);
    runner.addSink(sink);
    ASSERT_TRUE(runner.run().status.isOk());
    EXPECT_TRUE(sink.status().isOk());
    ASSERT_TRUE(readFile(path, out).isOk());
    EXPECT_NE(out.find("\"qec.sweep.v1\""), std::string::npos);
    EXPECT_NE(out.find("\"truncated\": false"), std::string::npos);
    std::remove(path.c_str());
}

TEST_F(FaultTolerance, JsonSinkReportsUnwritableDestination)
{
    JsonSink sink(tempPath("no-such-dir") + "/sweep.json");
    EXPECT_FALSE(sink.ok());
    EXPECT_FALSE(sink.status().isOk());
}

// --------------------------------------- retry and quarantine

TEST_F(FaultTolerance, TransientChunkFailureIsRetriedBitIdentically)
{
    SweepPlan plan = smallPlan(64, 384, {1e-3});

    CollectSink reference;
    {
        SweepRunner runner(plan);
        runner.addSink(reference);
        ASSERT_TRUE(runner.run().status.isOk());
    }

    fault::arm("sweep.chunk", 2, fault::Kind::ReturnError);
    CollectSink retried;
    SweepRunner runner(plan);
    runner.addSink(retried);
    const SweepSummary summary = runner.run();
    EXPECT_TRUE(summary.status.isOk())
        << summary.status.toString();
    EXPECT_EQ(summary.retries, 1u);
    EXPECT_EQ(summary.pointsFailed, 0u);
    // The retry resumed from the in-memory partial at the failed
    // boundary, so the outcome is exactly the uninterrupted one.
    expectPointsIdentical(retried.points, reference.points);
}

TEST_F(FaultTolerance, AllocationFailureIsRetriedBitIdentically)
{
    SweepPlan plan = smallPlan(64, 384, {1e-3});

    CollectSink reference;
    {
        SweepRunner runner(plan);
        runner.addSink(reference);
        ASSERT_TRUE(runner.run().status.isOk());
    }

    // First SyndromeCache construction throws bad_alloc; the runner
    // maps it to ResourceExhausted and retries the point.
    fault::arm("cache.alloc", 1, fault::Kind::ThrowBadAlloc);
    CollectSink retried;
    SweepRunner runner(plan);
    runner.addSink(retried);
    const SweepSummary summary = runner.run();
    EXPECT_TRUE(summary.status.isOk())
        << summary.status.toString();
    EXPECT_EQ(summary.retries, 1u);
    expectPointsIdentical(retried.points, reference.points);
}

TEST_F(FaultTolerance, PersistentFailureQuarantinesTheSweep)
{
    SweepPlan plan = smallPlan(64, 256, {1e-3, 2e-3});
    plan.earlyStop.maxShots = 256;

    fault::arm("sweep.chunk", 1, fault::Kind::ReturnError,
               /*repeat=*/true);
    CollectSink collected;
    SweepRunner runner(plan);
    runner.addSink(collected);
    SweepRunOptions options;
    options.maxPointAttempts = 2;
    options.retryBackoffSeconds = 0.0;
    const SweepSummary summary = runner.run(options);

    // Both points exhausted their attempts and were quarantined;
    // nothing was emitted, and with zero successes the sweep itself
    // reports the failure.
    EXPECT_EQ(summary.pointsFailed, 2u);
    EXPECT_EQ(summary.points, 0u);
    EXPECT_EQ(summary.retries, 2u);
    ASSERT_EQ(summary.errors.size(), 2u);
    EXPECT_EQ(summary.errors[0].status.code(),
              StatusCode::Unavailable);
    EXPECT_EQ(summary.errors[0].attempts, 2);
    EXPECT_FALSE(summary.status.isOk());
    EXPECT_TRUE(collected.points.empty());
}

TEST_F(FaultTolerance, CheckpointSaveFailureDoesNotKillTheSweep)
{
    SweepPlan plan = smallPlan(64, 256, {1e-3});
    plan.earlyStop.maxShots = 256;

    CollectSink reference;
    {
        SweepRunner runner(plan);
        runner.addSink(reference);
        ASSERT_TRUE(runner.run().status.isOk());
    }

    const std::string path = tempPath("unsavable.ckpt");
    fault::arm("checkpoint.save", 1, fault::Kind::ReturnError,
               /*repeat=*/true);
    CollectSink collected;
    SweepRunner runner(plan);
    runner.addSink(collected);
    SweepRunOptions options;
    options.checkpoint.path = path;
    const SweepSummary summary = runner.run(options);
    EXPECT_TRUE(summary.status.isOk());
    EXPECT_FALSE(summary.checkpointStatus.isOk());
    EXPECT_EQ(summary.checkpointSaves, 0u);
    expectPointsIdentical(collected.points, reference.points);
    std::remove(path.c_str());
}

// ------------------------------------------------------ deadlines

TEST_F(FaultTolerance, SessionDeadlineTruncatesResumably)
{
    RotatedSurfaceCode code(3);
    const ExperimentConfig cfg = smallConfig(6, 384, 64);
    MemoryExperiment exp(code, cfg);

    ExperimentSession reference(exp, PolicyKind::Eraser);
    reference.runToCompletion();

    SessionOptions options;
    options.deadlineSeconds = 1e-9;  // expires after the first chunk
    options.earlyStop.maxShots = 384;
    options.earlyStop.checkEvery = 64;
    ExperimentSession limited(exp, PolicyKind::Eraser, options);
    limited.runToCompletion();
    ASSERT_TRUE(limited.truncated());
    ASSERT_FALSE(limited.done());
    EXPECT_LT(limited.shotsRun(), limited.shotsPlanned());

    // The truncated partial resumes to the bit-identical full result.
    ExperimentSession resumed(exp, PolicyKind::Eraser);
    ASSERT_TRUE(resumed.restore(limited.progress()).isOk());
    resumed.runToCompletion();
    expectResultIdentical(resumed.result(), reference.result());
}

TEST_F(FaultTolerance, SweepDeadlineCheckpointsAndResumes)
{
    SweepPlan plan = smallPlan(64, 384, {1e-3});
    CollectSink reference;
    {
        SweepRunner runner(plan);
        runner.addSink(reference);
        ASSERT_TRUE(runner.run().status.isOk());
    }

    const std::string path = tempPath("deadline.ckpt");
    std::remove(path.c_str());
    {
        SweepRunner runner(plan);
        SweepRunOptions options;
        options.checkpoint.path = path;
        options.deadlineSeconds = 1e-9;
        const SweepSummary summary = runner.run(options);
        EXPECT_TRUE(summary.status.isOk());
        EXPECT_TRUE(summary.truncated);
        EXPECT_EQ(summary.points, 0u);
    }
    // Rerun without the deadline: picks up the checkpoint and
    // finishes bit-identically to the uninterrupted run.
    CollectSink resumed;
    SweepRunner runner(plan);
    runner.addSink(resumed);
    SweepRunOptions options;
    options.checkpoint.path = path;
    const SweepSummary summary = runner.run(options);
    EXPECT_TRUE(summary.status.isOk());
    EXPECT_FALSE(summary.truncated);
    expectPointsIdentical(resumed.points, reference.points);
    std::remove(path.c_str());
}

// ------------------------- the centerpiece: kill-and-resume sweep

/**
 * Kill the sweep (SimulatedCrash — an exception no layer catches,
 * the in-process stand-in for SIGKILL; CI additionally kills a real
 * process) at EVERY chunk boundary in turn, resume each time from
 * the checkpoint the dead run left behind, and require the final
 * results to be bit-identical to an uninterrupted run: equal verdict
 * fingerprints, counters, and shot counts, per policy and point.
 */
void
killAndResumeEverywhere(SweepPlan plan, const std::string &tag)
{
    const std::string path = tempPath("kill_" + tag + ".ckpt");
    std::remove(path.c_str());

    CollectSink reference;
    {
        SweepRunner runner(plan);
        runner.addSink(reference);
        ASSERT_TRUE(runner.run().status.isOk());
    }

    // Count the chunk boundaries of a clean checkpointed run (and
    // pin that checkpointing itself does not perturb results).
    fault::reset();
    fault::countHits();
    {
        CollectSink counted;
        SweepRunner runner(plan);
        runner.addSink(counted);
        SweepRunOptions options;
        options.checkpoint.path = path;
        ASSERT_TRUE(runner.run(options).status.isOk());
        expectPointsIdentical(counted.points, reference.points);
    }
    const uint64_t boundaries = fault::hits("sweep.chunk");
    ASSERT_GE(boundaries, 2u) << "plan too small to chunk";
    fault::reset();

    for (uint64_t k = 1; k <= boundaries; ++k) {
        std::remove(path.c_str());

        fault::arm("sweep.chunk", k, fault::Kind::Crash);
        bool died = false;
        try {
            SweepRunner runner(plan);
            SweepRunOptions options;
            options.checkpoint.path = path;
            (void)runner.run(options);
        } catch (const SimulatedCrash &crash) {
            died = true;
            EXPECT_STREQ(crash.site, "sweep.chunk");
        }
        ASSERT_TRUE(died) << "crash " << k << " did not fire";
        fault::reset();

        CollectSink resumed;
        SweepRunner runner(plan);
        runner.addSink(resumed);
        SweepRunOptions options;
        options.checkpoint.path = path;
        const SweepSummary summary = runner.run(options);
        ASSERT_TRUE(summary.status.isOk())
            << "resume after crash " << k << ": "
            << summary.status.toString();
        // Crashes after the first boundary left progress behind.
        if (k > 1) {
            EXPECT_TRUE(summary.resumed) << "crash " << k;
        }
        SCOPED_TRACE("crash at boundary " + std::to_string(k));
        expectPointsIdentical(resumed.points, reference.points);
    }
    std::remove(path.c_str());
}

TEST_F(FaultTolerance, KillAndResumeEverywhereWidth64)
{
    // Two points so crashes also land around the finished-point
    // skip-and-reemit path.
    killAndResumeEverywhere(smallPlan(64, 384, {1e-3, 2e-3}), "w64");
}

TEST_F(FaultTolerance, KillAndResumeEverywhereWidth256)
{
    killAndResumeEverywhere(smallPlan(256, 384, {2e-3}), "w256");
}

TEST_F(FaultTolerance, KillAndResumeEverywhereWidth512)
{
    killAndResumeEverywhere(smallPlan(512, 640, {2e-3}), "w512");
}

} // namespace
} // namespace qec
