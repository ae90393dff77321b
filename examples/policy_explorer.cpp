/**
 * @file
 * Policy explorer: a small sweep CLI over the experiment harness for
 * interactive what-if studies, e.g.
 *
 *   policy_explorer --distance 3,5,7 --p 1e-3,1e-4 \
 *                   --policy eraser --transport exchange \
 *                   --json sweep.json
 *
 * Axis options take comma-separated lists and expand into a full
 * SweepPlan grid; each point gets a deterministic seed derived from
 * its physical axis tuple (override with --seed).
 *
 * Options:
 *   --distance D[,D...]  odd code distances (default 5)
 *   --rounds R           syndrome extraction rounds (default 10*D)
 *   --p P[,P...]         physical error rates (default 1e-3)
 *   --shots N            shots per point (default 2000)
 *   --policy NAME        never|always|eraser|eraser_m|optimal|all
 *                        (or a comma-separated subset)
 *   --protocol NAME      swap|dqlr (default swap)
 *   --transport NAME     conservative|exchange (default conservative)
 *   --width W            simulator word-group width (default 64)
 *   --decoder NAME       mwpm|uf (default mwpm, the paper's decoder)
 *   --no-decode          skip decoding: leakage/LRC statistics only
 *                        (LER is not measured)
 *   --no-leakage         disable leakage entirely
 *   --seed S             fixed RNG seed override for every point
 *   --precision F        early-stop at Wilson rel. precision F
 *   --json PATH          also write the unified sweep JSON artifact
 *   --checkpoint PATH    checkpoint to PATH and resume from it when
 *                        it exists (kill-safe; results bit-identical
 *                        to an uninterrupted run)
 *   --checkpoint-every N save every N session chunks (default 1)
 *   --deadline SECONDS   stop cleanly after this wall-clock budget,
 *                        checkpointing the in-flight point
 *   --schedule           widen the sweep window from one point to
 *                        --max-live-points points: chunks from many
 *                        live points share the workers, shots flow
 *                        to the widest Wilson intervals. Same loop as
 *                        the default one-point window, so results are
 *                        bit-identical either way
 *   --workers N          worker count of either window: the
 *                        cross-point window's workers with
 *                        --schedule, the plan's per-point thread
 *                        count without it — so the two windows
 *                        compare fairly at equal N (default: hardware
 *                        concurrency)
 *   --max-total-shots N  global shot budget across all points;
 *                        truncates deterministically on exhaustion
 *   --max-live-points N  cross-point window size with --schedule
 *                        (default max(8, workers))
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "exp/sweep_runner.h"

using namespace qec;

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--distance D[,D..]] [--rounds R]"
                 " [--p P[,P..]]\n"
                 "          [--shots N] [--policy NAME[,NAME..]]"
                 " [--protocol swap|dqlr]\n"
                 "          [--transport conservative|exchange]"
                 " [--width W] [--no-leakage]\n"
                 "          [--decoder mwpm|uf] [--no-decode]\n"
                 "          [--seed S] [--precision F] [--json PATH]\n"
                 "          [--checkpoint PATH] [--checkpoint-every N]"
                 " [--deadline SECS]\n"
                 "          [--schedule] [--workers N]"
                 " [--max-total-shots N] [--max-live-points N]\n",
                 argv0);
    std::exit(2);
}

std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> out;
    size_t begin = 0;
    while (begin <= arg.size()) {
        const size_t comma = arg.find(',', begin);
        if (comma == std::string::npos) {
            out.push_back(arg.substr(begin));
            break;
        }
        out.push_back(arg.substr(begin, comma - begin));
        begin = comma + 1;
    }
    return out;
}

void
report(const ExperimentResult &r, int rounds, bool decoded)
{
    std::printf("%-12s  LER %-12s  LRCs/round %-8.3f  acc %5.1f%%"
                "  FPR %6.2f%%  FNR %5.1f%%  LPR(end) %.5f\n",
                r.policy.c_str(),
                decoded ? r.lerString().c_str() : "(no decode)",
                r.avgLrcsPerRound(),
                r.speculationAccuracy() * 100.0,
                r.falsePositiveRate() * 100.0,
                r.falseNegativeRate() * 100.0,
                r.lprTotal(rounds - 1));
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<int> distances = {5};
    std::vector<double> ps = {1e-3};
    int rounds = -1;
    uint64_t shots = 2000;
    std::string policy = "all";
    std::string json_path;
    RemovalProtocol protocol = RemovalProtocol::SwapLrc;
    TransportModel transport = TransportModel::Conservative;
    unsigned width = 64;
    DecoderKind decoder = DecoderKind::Mwpm;
    bool decode = true;
    bool leakage = true;
    bool seed_override = false;
    uint64_t seed = 0;
    double precision = 0.0;
    std::string checkpoint_path;
    uint64_t checkpoint_every = 1;
    double deadline = 0.0;
    bool schedule = false;
    unsigned workers = 0;
    uint64_t max_total_shots = 0;
    size_t max_live_points = 0;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            if (i + 1 >= argc)
                usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--distance") {
            distances.clear();
            for (const std::string &v : splitList(next()))
                distances.push_back(std::atoi(v.c_str()));
        } else if (arg == "--rounds") {
            rounds = std::atoi(next());
        } else if (arg == "--p") {
            ps.clear();
            for (const std::string &v : splitList(next()))
                ps.push_back(std::atof(v.c_str()));
        } else if (arg == "--shots") {
            shots = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--seed") {
            seed = std::strtoull(next(), nullptr, 10);
            seed_override = true;
        } else if (arg == "--policy") {
            policy = next();
        } else if (arg == "--precision") {
            precision = std::atof(next());
        } else if (arg == "--json") {
            json_path = next();
        } else if (arg == "--checkpoint") {
            checkpoint_path = next();
        } else if (arg == "--checkpoint-every") {
            checkpoint_every = std::strtoull(next(), nullptr, 10);
            if (checkpoint_every == 0)
                usage(argv[0]);
        } else if (arg == "--deadline") {
            deadline = std::atof(next());
        } else if (arg == "--schedule") {
            schedule = true;
        } else if (arg == "--workers") {
            workers = (unsigned)std::atoi(next());
        } else if (arg == "--max-total-shots") {
            max_total_shots = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--max-live-points") {
            max_live_points = (size_t)std::strtoull(next(), nullptr, 10);
        } else if (arg == "--width") {
            width = (unsigned)std::atoi(next());
        } else if (arg == "--protocol") {
            const std::string v = next();
            if (v == "dqlr")
                protocol = RemovalProtocol::Dqlr;
            else if (v != "swap")
                usage(argv[0]);
        } else if (arg == "--transport") {
            const std::string v = next();
            if (v == "exchange")
                transport = TransportModel::Exchange;
            else if (v != "conservative")
                usage(argv[0]);
        } else if (arg == "--decoder") {
            const std::string v = next();
            if (v == "uf")
                decoder = DecoderKind::UnionFind;
            else if (v != "mwpm")
                usage(argv[0]);
        } else if (arg == "--no-decode") {
            decode = false;
        } else if (arg == "--no-leakage") {
            leakage = false;
        } else {
            usage(argv[0]);
        }
    }

    SweepPlan plan;
    plan.name = "policy_explorer";
    plan.distances = distances;
    plan.ps = ps;
    plan.rounds = {rounds > 0 ? SweepRounds::exactly(rounds)
                              : SweepRounds::cycles(10)};
    plan.base.shots = shots;
    plan.base.protocol = protocol;
    plan.base.trackLpr = true;
    plan.base.batchWidth = width;
    plan.base.decoderKind = decoder;
    plan.base.decode = decode;
    plan.base.em =
        leakage ? ErrorModel::standard(1e-3)
                : ErrorModel::withoutLeakage(1e-3);
    plan.base.em.transport = transport;
    if (seed_override)
        plan.fixedSeed = seed;
    if (precision > 0.0)
        plan.earlyStop.targetRelPrecision = precision;
    // Same worker budget either way: the one-point window runs on
    // the plan's thread count, the cross-point window on `workers`.
    if (workers > 0 && !schedule)
        plan.base.threads = workers;

    const std::vector<std::pair<std::string, PolicyKind>> kinds = {
        {"never", PolicyKind::Never},     {"always", PolicyKind::Always},
        {"eraser", PolicyKind::Eraser},   {"eraser_m", PolicyKind::EraserM},
        {"optimal", PolicyKind::Optimal},
    };
    plan.policies.clear();
    for (const std::string &wanted : splitList(policy)) {
        bool matched = false;
        for (const auto &[name, kind] : kinds) {
            if (wanted == "all" || wanted == name) {
                plan.policies.push_back(SweepPolicy(kind));
                matched = true;
            }
        }
        if (!matched)
            usage(argv[0]);
    }

    SweepRunner runner(plan);
    CollectSink results;
    runner.addSink(results);
    std::unique_ptr<JsonSink> json;
    if (!json_path.empty()) {
        json = std::make_unique<JsonSink>(json_path);
        if (!json->ok())
            return 1;
        runner.addSink(*json);
    }

    SweepRunOptions run_options;
    run_options.checkpoint.path = checkpoint_path;
    run_options.checkpoint.everyChunks = checkpoint_every;
    run_options.deadlineSeconds = deadline;
    run_options.schedule = schedule;
    run_options.workers = workers;
    run_options.maxTotalShots = max_total_shots;
    run_options.maxLivePoints = max_live_points;
    const SweepSummary summary = runner.run(run_options);
    if (!summary.status.isOk()) {
        std::fprintf(stderr, "sweep failed: %s\n",
                     summary.status.toString().c_str());
        return 1;
    }
    if (summary.resumed)
        std::printf("[resumed from %s: %zu point(s) already "
                    "complete]\n\n",
                    checkpoint_path.c_str(), summary.pointsResumed);

    for (const PointResult &point : results.points) {
        std::printf("d=%d rounds=%d p=%g shots=%llu protocol=%s"
                    " transport=%s leakage=%s decoder=%s seed=%llu"
                    " wall=%.2fs\n",
                    point.point.distance, point.point.rounds,
                    point.point.p,
                    (unsigned long long)point.results[0].shots,
                    protocolName(point.point.protocol),
                    transport == TransportModel::Exchange
                        ? "exchange" : "conservative",
                    leakage ? "on" : "off",
                    decode ? decoderKindName(decoder) : "off",
                    (unsigned long long)point.point.seed,
                    point.wallSeconds);
        for (size_t i = 0; i < point.results.size(); ++i) {
            report(point.results[i], point.point.rounds, decode);
            if (point.stoppedEarly[i])
                std::printf("%-12s  (stopped early at %llu shots)\n",
                            "", (unsigned long long)
                                point.results[i].shots);
        }
        std::printf("\n");
    }
    for (const SweepPointError &err : summary.errors)
        std::fprintf(stderr,
                     "point %llu (d=%d, p=%g) failed after %d "
                     "attempt(s): %s\n",
                     (unsigned long long)err.pointIndex, err.distance,
                     err.p, err.attempts,
                     err.status.toString().c_str());
    if (summary.scheduled)
        std::printf("[scheduler: %u workers, %llu rounds, %llu chunks"
                    " dispatched, %llu shots reallocated, %llu"
                    " discarded, pool %.0f%% busy]\n",
                    summary.workersUsed,
                    (unsigned long long)summary.schedulerRounds,
                    (unsigned long long)summary.chunksDispatched,
                    (unsigned long long)summary.shotsReallocated,
                    (unsigned long long)summary.shotsDiscarded,
                    summary.poolUtilization * 100.0);
    std::printf("[%zu point(s), %llu shots in %.2fs]\n",
                summary.points,
                (unsigned long long)summary.shotsRun,
                summary.seconds);
    if (summary.truncated)
        std::printf("[%s after %.1fs; progress saved"
                    "%s%s — rerun to continue]\n",
                    summary.budgetExhausted ? "shot budget exhausted"
                                            : "deadline reached",
                    summary.seconds,
                    checkpoint_path.empty() ? "" : " to ",
                    checkpoint_path.c_str());
    if (json)
        std::printf("wrote %s\n", json_path.c_str());
    return summary.pointsFailed > 0 ? 1 : 0;
}
