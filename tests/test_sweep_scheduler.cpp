/**
 * @file
 * Sweep window tests: the cross-point window (SweepRunOptions::
 * schedule) is bit-identical to the default one-point window, and
 * both to standalone sessions, at several worker counts and widths
 * (with and without early stopping); worker-count-invariant budget
 * truncation, and plan-order budget use in the one-point window;
 * multi-point checkpoint crash/resume (including a checkpoint of one
 * window resumed under the other); and retry/quarantine of a faulting
 * point while the other points keep running.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <unistd.h>

#include "base/fault_injection.h"
#include "code/rotated_surface_code.h"
#include "exp/checkpoint.h"
#include "exp/experiment_session.h"
#include "exp/memory_experiment.h"
#include "exp/sweep_runner.h"

namespace qec
{
namespace
{

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "qec_sched_" +
           std::to_string((unsigned long)::getpid()) + "_" + name;
}

/** Multi-point decoded plan whose sessions stop early at a Wilson
 *  precision target — the adaptive-allocation regime. */
SweepPlan
precisionPlan(unsigned width)
{
    SweepPlan plan;
    plan.name = "sched_precision_w" + std::to_string(width);
    plan.distances = {3};
    plan.ps = {2e-3, 3e-3, 4e-3};
    plan.rounds = {SweepRounds::exactly(6)};
    plan.policies = {SweepPolicy(PolicyKind::Always),
                     SweepPolicy(PolicyKind::Eraser)};
    plan.base.shots = 6000;
    plan.base.batchWidth = width;
    plan.base.threads = 1;
    plan.earlyStop.targetRelPrecision = 0.5;
    plan.earlyStop.minErrors = 4;
    plan.earlyStop.checkEvery = 256;
    return plan;
}

/** Fixed-shot plan chunked at checkEvery boundaries (maxShots ==
 *  shots enables the chunking machinery without changing results). */
SweepPlan
fixedPlan(unsigned width, uint64_t shots)
{
    SweepPlan plan;
    plan.name = "sched_fixed_w" + std::to_string(width);
    plan.distances = {3};
    plan.ps = {2e-3, 3e-3, 4e-3};
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
    // Slot assignment (and so the cache-hit / decoded split) is
    // execution-order dependent; the total decode disposition is not.
    EXPECT_EQ(a.decodedShots + a.zeroDefectShots + a.syndromeCacheHits,
              b.decodedShots + b.zeroDefectShots +
                  b.syndromeCacheHits);
    ASSERT_EQ(a.lprDataSum.size(), b.lprDataSum.size());
    for (size_t r = 0; r < a.lprDataSum.size(); ++r) {
        EXPECT_EQ(a.lprDataSum[r], b.lprDataSum[r]) << "round " << r;
        EXPECT_EQ(a.lprParitySum[r], b.lprParitySum[r])
            << "round " << r;
    }
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
        ASSERT_EQ(a[i].stoppedEarly.size(), b[i].stoppedEarly.size());
        for (size_t j = 0; j < a[i].results.size(); ++j) {
            expectResultIdentical(a[i].results[j], b[i].results[j]);
            EXPECT_EQ(a[i].stoppedEarly[j], b[i].stoppedEarly[j])
                << "point " << i << " policy " << j;
        }
    }
}

class SweepSchedulerTest : public ::testing::Test
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

TEST_F(SweepSchedulerTest,
       EarlyStopResultsAreBitIdenticalToSequentialAtAnyWorkerCount)
{
    for (unsigned width : {64u, 256u, 512u}) {
        const SweepPlan plan = precisionPlan(width);

        SweepRunner seq_runner(plan);
        CollectSink seq;
        seq_runner.addSink(seq);
        const SweepSummary seq_summary =
            seq_runner.run(SweepRunOptions());
        ASSERT_TRUE(seq_summary.status.isOk());
        ASSERT_EQ(seq.points.size(), 3u);

        // The default window runs the sweep's own loop, so also pin
        // it against a standalone session's runChunk loop.
        for (const PointResult &pr : seq.points) {
            RotatedSurfaceCode code(pr.point.distance);
            MemoryExperiment exp(code, pr.point.config);
            SessionOptions session_options;
            session_options.earlyStop = plan.earlyStop;
            ASSERT_EQ(pr.results.size(), plan.policies.size());
            for (size_t j = 0; j < plan.policies.size(); ++j) {
                ExperimentSession session(exp, plan.policies[j].kind,
                                          session_options);
                SCOPED_TRACE("width " + std::to_string(width) +
                             " point " + std::to_string(pr.point.index) +
                             " policy " + std::to_string(j));
                expectResultIdentical(session.runToCompletion(),
                                      pr.results[j]);
                EXPECT_EQ(session.stoppedEarly(), pr.stoppedEarly[j]);
            }
        }

        for (unsigned workers : {1u, 2u, 8u}) {
            SweepRunOptions options;
            options.schedule = true;
            options.workers = workers;
            SweepRunner runner(plan);
            CollectSink sched;
            runner.addSink(sched);
            const SweepSummary summary = runner.run(options);
            ASSERT_TRUE(summary.status.isOk())
                << summary.status.toString();
            EXPECT_TRUE(summary.scheduled);
            EXPECT_EQ(summary.workersUsed, workers);
            EXPECT_GT(summary.schedulerRounds, 0u);
            EXPECT_GT(summary.chunksDispatched, 0u);
            EXPECT_EQ(summary.shotsRun, seq_summary.shotsRun)
                << "width " << width << " workers " << workers;
            expectPointsIdentical(sched.points, seq.points);
        }
    }
}

TEST_F(SweepSchedulerTest, FixedShotResultsMatchSequential)
{
    const SweepPlan plan = fixedPlan(64, 1024);

    SweepRunner seq_runner(plan);
    CollectSink seq;
    seq_runner.addSink(seq);
    const SweepSummary seq_summary = seq_runner.run(SweepRunOptions());
    ASSERT_TRUE(seq_summary.status.isOk());

    // The commit-order chunk poll must see exactly the chunk sequence
    // the sequential runner executes — count it on both sides.
    fault::reset();
    fault::countHits();
    {
        SweepRunner r(plan);
        CollectSink c;
        r.addSink(c);
        r.run(SweepRunOptions());
    }
    const uint64_t seq_polls = fault::hits("sweep.chunk");
    fault::reset();
    fault::countHits();

    SweepRunOptions options;
    options.schedule = true;
    options.workers = 2;
    SweepRunner runner(plan);
    CollectSink sched;
    runner.addSink(sched);
    const SweepSummary summary = runner.run(options);
    ASSERT_TRUE(summary.status.isOk());
    EXPECT_EQ(fault::hits("sweep.chunk"), seq_polls);
    EXPECT_EQ(summary.shotsRun, seq_summary.shotsRun);
    EXPECT_EQ(summary.shotsDiscarded, 0u);
    expectPointsIdentical(sched.points, seq.points);
}

TEST_F(SweepSchedulerTest, NarrowAdmissionWindowDoesNotChangeResults)
{
    const SweepPlan plan = precisionPlan(64);
    SweepRunner seq_runner(plan);
    CollectSink seq;
    seq_runner.addSink(seq);
    seq_runner.run(SweepRunOptions());

    SweepRunOptions options;
    options.schedule = true;
    options.workers = 2;
    options.maxLivePoints = 1;
    SweepRunner runner(plan);
    CollectSink sched;
    runner.addSink(sched);
    const SweepSummary summary = runner.run(options);
    ASSERT_TRUE(summary.status.isOk());
    expectPointsIdentical(sched.points, seq.points);
}

TEST_F(SweepSchedulerTest,
       BudgetTruncationIsIdenticalAcrossWorkerCounts)
{
    const SweepPlan plan = fixedPlan(64, 2048);

    std::vector<PointResult> reference;
    SweepSummary ref_summary;
    for (unsigned workers : {1u, 2u, 8u}) {
        SweepRunOptions options;
        options.schedule = true;
        options.workers = workers;
        options.maxTotalShots = 4000;   // < 3 * 2 * 2048 planned
        SweepRunner runner(plan);
        CollectSink sched;
        runner.addSink(sched);
        const SweepSummary summary = runner.run(options);
        ASSERT_TRUE(summary.status.isOk());
        EXPECT_TRUE(summary.truncated);
        EXPECT_TRUE(summary.budgetExhausted);
        if (workers == 1u) {
            reference = sched.points;
            ref_summary = summary;
            // Budget accounting is committed shots: the overshoot is
            // bounded by the chunks of one allocation round.
            EXPECT_GE(summary.shotsRun + 1, 1u);
        } else {
            EXPECT_EQ(summary.shotsRun, ref_summary.shotsRun);
            EXPECT_EQ(summary.points, ref_summary.points);
            expectPointsIdentical(sched.points, reference);
        }
    }
}

TEST_F(SweepSchedulerTest, SequentialBudgetTruncatesDeterministically)
{
    const SweepPlan plan = fixedPlan(64, 2048);
    const std::string path = tempPath("budget_order.ckpt");
    SweepRunOptions options;
    options.maxTotalShots = 3000;
    options.checkpoint.path = path;
    options.checkpoint.resume = false;
    uint64_t shots[2];
    for (int i = 0; i < 2; ++i) {
        SweepRunner runner(plan);
        CollectSink sink;
        runner.addSink(sink);
        const SweepSummary summary = runner.run(options);
        ASSERT_TRUE(summary.status.isOk());
        EXPECT_TRUE(summary.truncated);
        EXPECT_TRUE(summary.budgetExhausted);
        // Committed shots overshoot the budget by at most one chunk.
        EXPECT_LT(summary.shotsRun,
                  options.maxTotalShots + plan.earlyStop.checkEvery +
                      plan.base.batchWidth);
        shots[i] = summary.shotsRun;
    }
    EXPECT_EQ(shots[0], shots[1]);

    // The one-point window spends the budget in plan order: point 0
    // alone is live, and each of its policies finishes before the
    // next one commits a shot.
    StatusOr<SweepCheckpoint> loaded = SweepCheckpoint::load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    ASSERT_EQ(loaded.value().points.size(), 1u);
    const PointCheckpoint &point = loaded.value().points.begin()->second;
    EXPECT_EQ(point.pointIndex, 0u);
    EXPECT_FALSE(point.finished);
    ASSERT_EQ(point.policies.size(), 2u);
    EXPECT_TRUE(point.policies[0].finished);
    EXPECT_EQ(point.policies[0].progress.total.shots, 2048u);
    EXPECT_GT(point.policies[1].progress.total.shots, 0u);
    EXPECT_FALSE(point.policies[1].finished);
    EXPECT_TRUE(point.policies[1].truncated);
    std::remove(path.c_str());
}

TEST_F(SweepSchedulerTest, CrashLeavesMultiPointCheckpointAndResumes)
{
    const SweepPlan plan = fixedPlan(64, 1024);

    SweepRunner clean_runner(plan);
    CollectSink clean;
    clean_runner.addSink(clean);
    clean_runner.run(SweepRunOptions());

    // Learn the committed-chunk count, then crash mid-sweep.
    fault::countHits();
    {
        SweepRunOptions options;
        options.schedule = true;
        options.workers = 2;
        SweepRunner r(plan);
        CollectSink c;
        r.addSink(c);
        r.run(options);
    }
    const uint64_t total_chunks = fault::hits("sweep.chunk");
    ASSERT_GT(total_chunks, 4u);
    fault::reset();

    for (unsigned resume_workers : {2u, 8u}) {
        const std::string path = tempPath(
            "crash_resume_" + std::to_string(resume_workers) +
            ".ckpt");
        std::remove(path.c_str());

        SweepRunOptions options;
        options.schedule = true;
        options.workers = 2;
        options.checkpoint.path = path;

        fault::arm("sweep.chunk", total_chunks / 2, fault::Kind::Crash);
        bool crashed = false;
        try {
            SweepRunner r(plan);
            CollectSink c;
            r.addSink(c);
            r.run(options);
        } catch (const SimulatedCrash &) {
            crashed = true;
        }
        fault::reset();
        ASSERT_TRUE(crashed);

        // The mid-sweep checkpoint carries a SET of in-flight points.
        StatusOr<SweepCheckpoint> loaded = SweepCheckpoint::load(path);
        ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
        size_t unfinished = 0;
        for (const auto &kv : loaded.value().points)
            if (!kv.second.finished)
                ++unfinished;
        EXPECT_GE(unfinished, 2u)
            << "expected multiple in-flight points at the crash";

        SweepRunOptions resume = options;
        resume.workers = resume_workers;
        SweepRunner r(plan);
        CollectSink resumed;
        r.addSink(resumed);
        const SweepSummary summary = r.run(resume);
        ASSERT_TRUE(summary.status.isOk());
        EXPECT_TRUE(summary.resumed);
        expectPointsIdentical(resumed.points, clean.points);
        std::remove(path.c_str());
    }
}

TEST_F(SweepSchedulerTest, CheckpointsResumeAcrossExecutionModes)
{
    const SweepPlan plan = fixedPlan(64, 1024);

    SweepRunner clean_runner(plan);
    CollectSink clean;
    clean_runner.addSink(clean);
    clean_runner.run(SweepRunOptions());

    fault::countHits();
    {
        SweepRunner r(plan);
        CollectSink c;
        r.addSink(c);
        r.run(SweepRunOptions());
    }
    const uint64_t total_chunks = fault::hits("sweep.chunk");
    fault::reset();

    // Crash a SCHEDULED run, resume SEQUENTIALLY — and the reverse.
    for (int sched_first = 0; sched_first < 2; ++sched_first) {
        const std::string path = tempPath(
            "cross_mode_" + std::to_string(sched_first) + ".ckpt");
        std::remove(path.c_str());

        SweepRunOptions crash_options;
        crash_options.checkpoint.path = path;
        crash_options.schedule = sched_first == 0;
        crash_options.workers = 2;

        fault::arm("sweep.chunk", total_chunks / 2, fault::Kind::Crash);
        bool crashed = false;
        try {
            SweepRunner r(plan);
            CollectSink c;
            r.addSink(c);
            r.run(crash_options);
        } catch (const SimulatedCrash &) {
            crashed = true;
        }
        fault::reset();
        ASSERT_TRUE(crashed);

        SweepRunOptions resume_options;
        resume_options.checkpoint.path = path;
        resume_options.schedule = sched_first != 0;
        resume_options.workers = 2;
        SweepRunner r(plan);
        CollectSink resumed;
        r.addSink(resumed);
        const SweepSummary summary = r.run(resume_options);
        ASSERT_TRUE(summary.status.isOk());
        EXPECT_TRUE(summary.resumed);
        expectPointsIdentical(resumed.points, clean.points);
        std::remove(path.c_str());
    }
}

TEST_F(SweepSchedulerTest, FaultingPointRetriesWithoutChangingResults)
{
    const SweepPlan plan = fixedPlan(64, 1024);

    SweepRunner clean_runner(plan);
    CollectSink clean;
    clean_runner.addSink(clean);
    clean_runner.run(SweepRunOptions());

    SweepRunOptions options;
    options.schedule = true;
    options.workers = 2;
    options.maxPointAttempts = 2;
    options.retryBackoffSeconds = 0.0;

    fault::arm("sweep.chunk", 1, fault::Kind::ReturnError);
    SweepRunner runner(plan);
    CollectSink sched;
    runner.addSink(sched);
    const SweepSummary summary = runner.run(options);
    ASSERT_TRUE(summary.status.isOk());
    EXPECT_EQ(summary.retries, 1u);
    EXPECT_EQ(summary.pointsFailed, 0u);
    expectPointsIdentical(sched.points, clean.points);
}

TEST_F(SweepSchedulerTest, UnitFaultIsRetriedWhileOthersKeepRunning)
{
    const SweepPlan plan = fixedPlan(64, 1024);

    SweepRunner clean_runner(plan);
    CollectSink clean;
    clean_runner.addSink(clean);
    clean_runner.run(SweepRunOptions());

    SweepRunOptions options;
    options.schedule = true;
    options.workers = 2;
    options.maxPointAttempts = 3;
    options.retryBackoffSeconds = 0.0;

    // An allocation failure inside a worker task: the pool never sees
    // the exception; the owning point retries from committed state.
    fault::arm("sweep.unit", 3, fault::Kind::ThrowBadAlloc);
    SweepRunner runner(plan);
    CollectSink sched;
    runner.addSink(sched);
    const SweepSummary summary = runner.run(options);
    ASSERT_TRUE(summary.status.isOk());
    EXPECT_EQ(summary.retries, 1u);
    EXPECT_EQ(summary.pointsFailed, 0u);
    expectPointsIdentical(sched.points, clean.points);
}

TEST_F(SweepSchedulerTest, QuarantinedPointDoesNotStopTheOthers)
{
    const SweepPlan plan = fixedPlan(64, 1024);

    SweepRunner clean_runner(plan);
    CollectSink clean;
    clean_runner.addSink(clean);
    clean_runner.run(SweepRunOptions());
    ASSERT_EQ(clean.points.size(), 3u);

    SweepRunOptions options;
    options.schedule = true;
    options.workers = 2;
    options.maxPointAttempts = 1;
    options.retryBackoffSeconds = 0.0;

    // The first committed chunk belongs to the lowest-index live
    // point: quarantine it and keep sweeping.
    fault::arm("sweep.chunk", 1, fault::Kind::ReturnError);
    SweepRunner runner(plan);
    CollectSink sched;
    runner.addSink(sched);
    const SweepSummary summary = runner.run(options);
    ASSERT_TRUE(summary.status.isOk());
    EXPECT_EQ(summary.pointsFailed, 1u);
    EXPECT_EQ(summary.retries, 0u);
    ASSERT_EQ(summary.errors.size(), 1u);
    EXPECT_EQ(summary.errors[0].pointIndex, 0u);
    EXPECT_EQ(summary.errors[0].attempts, 1);
    ASSERT_EQ(sched.points.size(), 2u);
    for (const PointResult &pr : sched.points) {
        ASSERT_LT(pr.point.index, clean.points.size());
        const PointResult &ref = clean.points[pr.point.index];
        ASSERT_EQ(pr.results.size(), ref.results.size());
        for (size_t j = 0; j < pr.results.size(); ++j)
            expectResultIdentical(pr.results[j], ref.results[j]);
    }
}

TEST_F(SweepSchedulerTest, SummaryJsonCarriesSchedulerStats)
{
    const SweepPlan plan = fixedPlan(64, 512);
    const std::string path = tempPath("sched_stats.json");

    SweepRunOptions options;
    options.schedule = true;
    options.workers = 2;
    {
        SweepRunner runner(plan);
        JsonSink json(path);
        ASSERT_TRUE(json.ok());
        runner.addSink(json);
        const SweepSummary summary = runner.run(options);
        ASSERT_TRUE(summary.status.isOk());
        EXPECT_GE(summary.poolUtilization, 0.0);
        EXPECT_LE(summary.poolUtilization, 1.0);
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
         {"\"scheduled\": true", "\"workers\": 2",
          "\"scheduler_rounds\": ", "\"chunks_dispatched\": ",
          "\"shots_reallocated\": ", "\"shots_discarded\": ",
          "\"pool_utilization\": ", "\"budget_exhausted\": false",
          "\"wall_seconds\": "}) {
        EXPECT_NE(content.find(key), std::string::npos)
            << "missing " << key << " in:\n"
            << content;
    }
}

} // namespace
} // namespace qec
