/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--smoke]
 *
 * One process runs one workload, so the peak RSS it reports is that
 * workload's. Every time is steady_clock wall time (a CPU-time divisor
 * overstates the rate of a run that waits or sleeps).
 *
 * --trace 0 measures the end-to-end metrics with no instrumentation:
 * the set-up (every component the workload's points need, built
 * through the sweep's own build cache and MemoryExperiment
 * constructor, repeated and reported as a median) and repeated
 * SweepRunner::run calls for S seconds (shots per wall second of each
 * run, median over runs). Every repeat must reproduce the first run's
 * counters and verdict fingerprints exactly.
 *
 * --trace 1 runs the workload once untraced as the reference, then
 * replays the same (point, policy) work — each point at the shot count
 * the reference committed — for S seconds through the benchmark's
 * traced word-group driver (replay.h) and prints the per-layer
 * metrics. The gate requires every replay, and one sequential library
 * session per (point, policy), to reproduce the reference's counters
 * exactly.
 *
 * The last stdout line is one JSON object: correct, attempted, failed
 * and metrics. `attempted` counts (point, policy) runs; `failed` counts
 * the ones quarantined, truncated, or refused by the correctness check.
 * Any failure makes the exit code non-zero.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "exp/sweep_exec.h"
#include "exp/sweep_runner.h"
#include "replay.h"

using namespace qec;
using namespace perfbench;

namespace
{

// Workload sizes. One SweepRunner::run of each workload takes one to
// five seconds on a 4-core x86-64 host, so an S-second measurement
// holds several runs to take the median of.
constexpr uint64_t kFig14ShotsTimesD2 = 12800;
constexpr uint64_t kFig15Shots = 4096;
constexpr uint64_t kAdaptiveMaxShotsTimesD2 = 589824;
constexpr double kAdaptivePrecision = 0.05;

// Set-up builds take this share of the sweeps' measured time (and at
// least kMinSetupReps builds), so a millisecond-scale set-up is a
// median over thousands of builds and a second-scale one over several.
constexpr double kSetupShare = 0.2;
constexpr size_t kMinSetupReps = 3;
constexpr size_t kMinSweepReps = 3;

struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny shot counts, for the smoke test. */
    bool smoke = false;
};

struct Workload
{
    SweepPlan plan;
    SweepRunOptions options;
};

struct Metric
{
    std::string name;
    double value;
    const char *unit;
};

struct Report
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<Metric> metrics;
};

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const bool has_value = i + 1 < argc;
        if (a == "--smoke") {
            args.smoke = true;
        } else if (a == "--workload" && has_value) {
            args.workload = argv[++i];
        } else if (a == "--seed" && has_value) {
            args.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (a == "--seconds" && has_value) {
            args.seconds = std::atof(argv[++i]);
        } else if (a == "--trace" && has_value) {
            args.trace = std::strcmp(argv[++i], "0") != 0;
        } else {
            return false;
        }
    }
    return !args.workload.empty() && args.seconds >= 0.0;
}

/** Per-point shot count `scale / d^2` (at least one shot). */
std::function<uint64_t(int, double)>
shotsOverD2(uint64_t scale)
{
    return [scale](int d, double) {
        return std::max<uint64_t>(scale / (uint64_t)(d * d), 1);
    };
}

/**
 * The workloads. Each is surface memory; the point seed of every
 * point is derived from the workload seed (SweepPlan::fixedSeed), so
 * the same --seed always replays the same shots.
 */
bool
makeWorkload(const std::string &name, uint64_t seed, bool smoke,
             Workload &w)
{
    SweepPlan &plan = w.plan;
    plan.name = name;
    plan.fixedSeed = splitmix64(seed);
    plan.base.threads = 1;
    plan.policies = {PolicyKind::Always, PolicyKind::Eraser,
                     PolicyKind::EraserM, PolicyKind::Optimal};
    if (name == "fig14-mwpm") {
        // Fig. 14 at p=1e-3: decode-dominated, DEM-dominated set-up.
        plan.distances = {3, 5, 7, 9, 11};
        plan.ps = {1e-3};
        plan.rounds = {SweepRounds::cycles(10)};
        plan.base.decoderKind = DecoderKind::Mwpm;
        plan.base.batchWidth = 64;
        plan.shotsFor = shotsOverD2(smoke ? 64 * 9 : kFig14ShotsTimesD2);
    } else if (name == "fig15-lpr") {
        // Fig. 15: decode-free LPR tracking on the wide-word engine.
        plan.distances = {11};
        plan.ps = {1e-3};
        plan.rounds = {SweepRounds::exactly(110)};
        plan.base.decode = false;
        plan.base.trackLpr = true;
        plan.base.batchWidth = 256;
        plan.base.shots = smoke ? 256 : kFig15Shots;
    } else if (name == "sweep-uf-adaptive") {
        // Early-stopped UF grid on the scheduler with 2 workers.
        plan.distances = {3, 5, 7};
        plan.ps = {1e-3, 2e-3, 4e-3};
        plan.rounds = {SweepRounds::cycles(3)};
        plan.protocols = {RemovalProtocol::SwapLrc, RemovalProtocol::Dqlr};
        plan.policies = {PolicyKind::Always, PolicyKind::Eraser};
        plan.base.decoderKind = DecoderKind::UnionFind;
        plan.base.batchWidth = 64;
        // The max-shots cap scales as 1/d^2 like fig14's shot counts,
        // which gives the small distances (whose syndromes repeat) the
        // bulk of the shots: the workload that loads the dedup cache.
        plan.shotsFor =
            shotsOverD2(smoke ? 64 * 9 : kAdaptiveMaxShotsTimesD2);
        plan.earlyStop.targetRelPrecision = kAdaptivePrecision;
        w.options.schedule = true;
        w.options.workers = 2;
    } else {
        return false;
    }
    return true;
}

struct SweepRun
{
    std::vector<PointResult> points;
    SweepSummary summary;
    double wall = 0.0;
};

SweepRun
runSweep(const Workload &w)
{
    SweepRunner runner(w.plan);
    CollectSink sink;
    runner.addSink(sink);
    SweepRun run;
    const auto start = Clock::now();
    run.summary = runner.run(w.options);
    run.wall = secondsSince(start);
    run.points = std::move(sink.points);
    return run;
}

/** Wall seconds to build every component the workload's points need,
 *  through the same builders SweepRunner uses. Tear-down is not
 *  timed. */
double
setupOnce(const Workload &w)
{
    SweepBuildCache cache;
    SweepSummary scratch;
    std::vector<std::unique_ptr<MemoryExperiment>> experiments;
    const auto start = Clock::now();
    for (const SweepPoint &point : w.plan.points()) {
        StatusOr<SweepBuildCache::Components> built =
            cache.build(point, w.plan.base.decoderOptions, scratch);
        if (!built.ok())
            throw std::runtime_error(built.status().toString());
        const SweepBuildCache::Components &c = built.value();
        experiments.push_back(std::make_unique<MemoryExperiment>(
            *c.code, point.config, c.dem, c.decoder, c.program));
    }
    return secondsSince(start);
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

bool
sameCounters(const ExperimentResult &a, const ExperimentResult &b)
{
    return a.shots == b.shots && a.logicalErrors == b.logicalErrors &&
           a.verdictFingerprint == b.verdictFingerprint && a.tp == b.tp &&
           a.fp == b.fp && a.tn == b.tn && a.fn == b.fn &&
           a.lrcsScheduled == b.lrcsScheduled &&
           a.lprDataSum == b.lprDataSum &&
           a.lprParitySum == b.lprParitySum;
}

/** Internal consistency of one (point, policy) result; empty when
 *  consistent, else what is wrong. */
std::string
checkResult(const Workload &w, const SweepPoint &point,
            const ExperimentResult &r)
{
    const ExperimentConfig &cfg = point.config;
    if (r.shots == 0 || r.shots > point.shots)
        return "shot count outside (0, planned]";
    if (!w.plan.earlyStop.enabled() && r.shots != point.shots)
        return "fixed-shot point ran a different shot count";
    if (r.roundsTotal != r.shots * (uint64_t)cfg.rounds)
        return "roundsTotal != shots * rounds";
    if (r.tp + r.fp + r.tn + r.fn !=
        r.roundsTotal * (uint64_t)r.numDataQubits)
        return "tp+fp+tn+fn != shot-rounds * data qubits";
    if (r.logicalErrors > r.shots)
        return "more logical errors than shots";
    if (cfg.decode) {
        if (r.decodedShots + r.zeroDefectShots + r.syndromeCacheHits !=
            r.shots)
            return "decode pipeline did not account for every shot";
    } else if (r.logicalErrors != 0 || r.verdictFingerprint != 0) {
        return "decode-free point reports verdicts";
    }
    if (cfg.trackLpr && (r.lprDataSum.size() != (size_t)cfg.rounds ||
                         r.lprParitySum.size() != (size_t)cfg.rounds))
        return "LPR series length != rounds";
    return "";
}

/**
 * Count the (point, policy) runs of one sweep and the ones that
 * failed: quarantined points, truncated policies, inconsistent
 * results, and — when `reference` is given — results that differ
 * from the reference run.
 */
void
auditSweep(const Workload &w, const SweepRun &run,
           const SweepRun *reference, Report &rep)
{
    const uint64_t policies = w.plan.policies.size();
    const uint64_t planned = w.plan.points().size() * policies;
    rep.attempted += planned;
    if (!run.summary.status.isOk()) {
        std::fprintf(stderr, "sweep failed: %s\n",
                     run.summary.status.toString().c_str());
        rep.failed += planned;
        return;
    }
    const uint64_t missing = planned - run.points.size() * policies;
    rep.failed += missing;
    if (missing)
        std::fprintf(stderr, "%" PRIu64 " (point, policy) runs "
                     "quarantined or not emitted\n", missing);
    for (size_t pi = 0; pi < run.points.size(); ++pi) {
        const PointResult &pr = run.points[pi];
        for (size_t i = 0; i < pr.results.size(); ++i) {
            std::string why = checkResult(w, pr.point, pr.results[i]);
            if (why.empty() && pr.truncated[i])
                why = "truncated";
            if (why.empty() && reference &&
                (pi >= reference->points.size() ||
                 !sameCounters(pr.results[i],
                               reference->points[pi].results[i])))
                why = "differs from the first run";
            if (!why.empty()) {
                ++rep.failed;
                std::fprintf(stderr, "point %zu d=%d %s: %s\n",
                             pr.point.index, pr.point.distance,
                             pr.results[i].policy.c_str(), why.c_str());
            }
        }
    }
}

double
peakRssMb()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return (double)ru.ru_maxrss / 1024.0;
}

Report
runUntraced(const Workload &w, const Args &args)
{
    Report rep;
    // The first sweep runs before anything else, as in a process that
    // runs the workload once: the peak RSS is read right after it, so
    // it does not grow with the number of repeats that follow.
    std::vector<double> rates;
    double sweep_seconds = 0.0;
    const SweepRun first = runSweep(w);
    auditSweep(w, first, nullptr, rep);
    const double rss_mb = peakRssMb();
    const auto addRate = [&](const SweepRun &run) {
        sweep_seconds += run.wall;
        rates.push_back(run.wall > 0.0
                            ? (double)run.summary.shotsRun / run.wall
                            : 0.0);
    };
    addRate(first);

    // Set-up builds run in the gaps between sweeps, taking about
    // kSetupShare of the sweeps' time, so a burst of machine noise
    // lands on a few samples of each instead of on all of one.
    std::vector<double> setups;
    double setup_seconds = 0.0;
    while (true) {
        while (setup_seconds < kSetupShare * sweep_seconds ||
               (setups.size() < kMinSetupReps &&
                rates.size() >= kMinSweepReps)) {
            setups.push_back(setupOnce(w));
            setup_seconds += setups.back();
        }
        if (rates.size() >= kMinSweepReps && sweep_seconds >= args.seconds)
            break;
        const SweepRun run = runSweep(w);
        auditSweep(w, run, &first, rep);
        addRate(run);
    }

    std::printf("set-up: %zu builds, sweep: %zu runs\n", setups.size(),
                rates.size());
    rep.metrics = {
        {"setup_s", median(setups), "s"},
        {"shots_per_s", median(rates), "1/s"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
    return rep;
}

/**
 * Run one (point, policy) through the library's own sequential
 * single-thread session at exactly `shots` shots, untraced; returns
 * the wall seconds of the session's execution.
 */
double
runLibrarySession(const Workload &w, const SweepBuildCache::Components &c,
                  const SweepPoint &point, size_t policy_index,
                  uint64_t shots, ExperimentResult &result)
{
    ExperimentConfig cfg = point.config;
    cfg.shots = shots;
    MemoryExperiment exp(*c.code, cfg, c.dem, c.decoder, c.program);
    const SweepPolicy &policy = w.plan.policies[policy_index];
    ExperimentSession session(
        exp,
        makePolicyFactory(policy.kind, *c.code, exp.lookup(),
                          cfg.protocol == RemovalProtocol::Dqlr),
        policy.displayName(cfg.protocol));
    const auto start = Clock::now();
    result = session.runToCompletion();
    return secondsSince(start);
}

Report
runTraced(const Workload &w, const Args &args)
{
    Report rep;
    const SweepRun ref = runSweep(w);
    auditSweep(w, ref, nullptr, rep);

    LayerTrace tr;
    ReplayBuilder builder;
    SweepBuildCache cache;
    SweepSummary scratch;
    std::vector<ReplayPoint> points;
    std::vector<SweepBuildCache::Components> components;
    for (const PointResult &pr : ref.points) {
        points.push_back(
            builder.build(pr.point, w.plan.base.decoderOptions, tr));
        StatusOr<SweepBuildCache::Components> built =
            cache.build(pr.point, w.plan.base.decoderOptions, scratch);
        if (!built.ok())
            throw std::runtime_error(built.status().toString());
        components.push_back(std::move(built).value());
    }

    // The first pass runs each (point, policy) untraced through the
    // library's sequential session and traced through the replay, back
    // to back, so the tracing overhead compares the two under the same
    // machine conditions. Later passes only replay, to collect more
    // spans.
    double untraced_s = 0.0, traced_s = 0.0;
    size_t passes = 0;
    const auto measure_start = Clock::now();
    do {
        for (size_t pi = 0; pi < points.size(); ++pi) {
            const PointResult &pr = ref.points[pi];
            for (size_t i = 0; i < pr.results.size(); ++i) {
                const ExperimentResult &want = pr.results[i];
                const auto runLibrary = [&] {
                    ExperimentResult lib;
                    untraced_s += runLibrarySession(
                        w, components[pi], pr.point, i, want.shots, lib);
                    ++rep.attempted;
                    if (!sameCounters(lib, want)) {
                        ++rep.failed;
                        std::fprintf(stderr,
                                     "point %zu %s: a sequential session "
                                     "differs from the sweep's result\n",
                                     pr.point.index, want.policy.c_str());
                    }
                };
                const auto runReplay = [&] {
                    const auto start = Clock::now();
                    const ReplayResult got = replayPolicy(
                        points[pi], w.plan.policies[i], want.shots, tr);
                    if (passes == 0)
                        traced_s += secondsSince(start);
                    ++rep.attempted;
                    const std::string diff = compareResult(got, want);
                    if (!diff.empty()) {
                        ++rep.failed;
                        std::fprintf(stderr,
                                     "gate: point %zu d=%d %s: traced "
                                     "replay differs in %s\n",
                                     pr.point.index, pr.point.distance,
                                     want.policy.c_str(), diff.c_str());
                    }
                };
                // First pass: alternate which of the two runs first, so
                // warm-cache and allocator effects favour neither.
                const bool library_first = (pi + i) % 2 == 0;
                if (passes == 0 && library_first)
                    runLibrary();
                runReplay();
                if (passes == 0 && !library_first)
                    runLibrary();
            }
        }
        ++passes;
    } while (secondsSince(measure_start) < args.seconds);
    std::printf("traced replay: %zu passes over %zu points\n", passes,
                points.size());

    const double shots = (double)std::max<uint64_t>(tr.shots, 1);
    const auto usPerShot = [&](double s) { return s / shots * 1e6; };
    const auto ratio = [](double num, double den) {
        return den > 0.0 ? num / den : 0.0;
    };
    const SweepSummary &s = ref.summary;
    const double dispatched = (double)(s.shotsRun + s.shotsDiscarded);
    rep.metrics = {
        {"code.compile_s", tr.compileS, "s"},
        {"decoder.dem_build_s", tr.demBuildS, "s"},
        {"decoder.dem_edges", (double)tr.demEdges, "count"},
        {"decoder.decoder_build_s", tr.decoderBuildS, "s"},
        {"decoder.component_graph_s", tr.componentGraphS, "s"},
        {"sim.round_us_per_shot", usPerShot(tr.simRoundS), "us/shot"},
        {"sim.final_us_per_shot", usPerShot(tr.simFinalS), "us/shot"},
        {"core.controller_us_per_shot", usPerShot(tr.controllerS),
         "us/shot"},
        {"exp.group_self_us_per_shot",
         usPerShot(tr.groupS - tr.simRoundS - tr.simFinalS -
                   tr.controllerS - tr.extractS - tr.decodeBatchS),
         "us/shot"},
        {"decoder.extract_us_per_shot", usPerShot(tr.extractS),
         "us/shot"},
        {"decoder.pipeline_self_us_per_shot",
         usPerShot(tr.decodeBatchS - tr.decodeSparseS), "us/shot"},
        {"decoder.decode_us_per_shot", usPerShot(tr.decodeSparseS),
         "us/shot"},
        {"decoder.decode_us_per_call",
         ratio(tr.decodeSparseS * 1e6, (double)tr.decodeCalls), "us"},
        {"sim.tails_per_round",
         ratio((double)tr.tails, (double)tr.blockRounds), "count"},
        {"core.lrcs_per_round",
         ratio((double)tr.lrcs, (double)tr.shotRounds), "count"},
        {"decoder.defects_per_decode",
         ratio((double)tr.decodeDefects, (double)tr.decodeCalls),
         "count"},
        {"decoder.zero_defect_frac",
         ratio((double)tr.zeroDefectLanes, (double)tr.pipelineLanes),
         "frac"},
        {"decoder.dedup_hit_rate",
         ratio((double)tr.cacheHits,
               (double)(tr.cacheHits + tr.decodedLanes)),
         "frac"},
        {"exp.sched.useful_frac", ratio((double)s.shotsRun, dispatched),
         "frac"},
        {"exp.sched.pool_util", s.poolUtilization, "frac"},
        {"exp.sched.chunks", (double)s.chunksDispatched, "count"},
        {"exp.sched.realloc_frac",
         ratio((double)s.shotsReallocated, dispatched), "frac"},
        {"trace.overhead_frac", ratio(traced_s, untraced_s) - 1.0, "frac"},
    };
    return rep;
}

void
printReport(const Report &rep)
{
    std::printf("failed_frac: %.6f (%" PRIu64 " of %" PRIu64
                " (point, policy) runs)\n",
                rep.attempted ? (double)rep.failed / rep.attempted : 0.0,
                rep.failed, rep.attempted);
    for (const Metric &m : rep.metrics)
        std::printf("  %-36s %16.9g %s\n", m.name.c_str(), m.value,
                    m.unit);
    std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                rep.failed == 0 ? "true" : "false", rep.attempted,
                rep.failed);
    for (size_t i = 0; i < rep.metrics.size(); ++i)
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", rep.metrics[i].name.c_str(),
                    rep.metrics[i].value, rep.metrics[i].unit);
    std::printf("}}\n");
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: perfbench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--smoke]\n");
        return 2;
    }
    Workload w;
    if (!makeWorkload(args.workload, args.seed, args.smoke, w)) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    Report rep;
    try {
        rep = args.trace ? runTraced(w, args) : runUntraced(w, args);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    std::printf("perfbench %s seed=%" PRIu64 " trace=%d\n",
                args.workload.c_str(), args.seed, args.trace ? 1 : 0);
    printReport(rep);
    return rep.failed == 0 ? 0 : 1;
}
