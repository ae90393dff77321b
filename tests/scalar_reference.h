/**
 * @file
 * Test-only scalar reference for the paper's Fig. 9 closed loop.
 *
 * One FrameSimulator per shot, seeded Rng::forShot(seed, shot), driven
 * round by round from QecScheduleGenerator schedules: run a round,
 * hand its syndrome to the policy, let the policy adapt the next
 * round's LRCs, and decode the whole shot at the end. It shares no
 * code with the batch driver (MemoryExperiment::runGroupT), which is
 * what makes it worth keeping: the statistical W=64-vs-scalar LER/LPR
 * tests compare the library against it. The post-selection study has
 * a scalar reference here for the same reason.
 *
 * Draw streams differ from the batch engine's (per-shot instead of
 * per-64-lane-block), so agreement is statistical, never bit-exact.
 */

#ifndef QEC_TESTS_SCALAR_REFERENCE_H
#define QEC_TESTS_SCALAR_REFERENCE_H

#include <cstdint>
#include <string>
#include <vector>

#include "code/builder.h"
#include "decoder/mwpm_decoder.h"
#include "defects.h"
#include "exp/memory_experiment.h"
#include "exp/postselection.h"
#include "frame_simulator.h"
#include "memory_circuit.h"
#include "qsg.h"

namespace qec
{
namespace scalar_reference
{

/** Per-shot counters, merged into an ExperimentResult by run(). */
struct ShotStats
{
    uint64_t logicalErrors = 0;
    uint64_t tp = 0, fp = 0, tn = 0, fn = 0;
    uint64_t lrcsScheduled = 0;
    std::vector<double> lprData;
    std::vector<double> lprParity;
};

/**
 * Execute one round, honoring ERASER+M's in-round rule: if an LRC'd
 * data qubit reads out as |L>, squash the MOV-back and reset the
 * parity qubit instead (Section 4.6.2).
 */
inline void
executeRound(FrameSimulator &sim, const RoundSchedule &sched,
             bool multi_level)
{
    const auto &ops = sched.ops;
    if (!multi_level || sched.lrcs.empty()) {
        sim.executeRange(ops.data(), ops.data() + ops.size());
        return;
    }

    size_t await_measure = 0;
    size_t await_mov = 0;
    std::vector<uint8_t> leaked_label(sched.lrcs.size(), 0);
    for (size_t i = 0; i < ops.size(); ++i) {
        if (await_mov < sched.lrcs.size() &&
            i == sched.lrcs[await_mov].movBegin) {
            const auto &span = sched.lrcs[await_mov];
            if (leaked_label[await_mov]) {
                Op reset;
                reset.type = OpType::Reset;
                reset.q0 = span.parity;
                sim.execute(reset);
                i = span.movEnd - 1;
                ++await_mov;
                continue;
            }
            ++await_mov;
        }
        sim.execute(ops[i]);
        if (await_measure < sched.lrcs.size() &&
            i == sched.lrcs[await_measure].measureIndex) {
            leaked_label[await_measure] =
                sim.record().back().leakedLabel ? 1 : 0;
            ++await_measure;
        }
    }
}

/** One shot of the closed loop on the surface-memory lattice. */
inline void
runShot(const MemoryExperiment &exp, uint64_t shot,
        const PolicyFactory &factory, ShotStats &stats)
{
    const RotatedSurfaceCode &code_ = exp.code();
    const ExperimentConfig &config_ = exp.config();
    const int n_stabs = code_.numStabilizers();
    const int n_data = code_.numData();
    const StabType primary = protectingStabType(config_.basis);

    FrameSimulator sim(code_.numQubits(), config_.em,
                       Rng::forShot(config_.seed, shot));
    // Every round yields one check bit per stabilizer (plain or LRC'd)
    // and the shot ends with the transversal data measurement.
    sim.reserveRecord((size_t)config_.rounds * n_stabs + n_data);
    QecScheduleGenerator qsg(code_, config_.protocol);
    auto policy = factory();

    std::vector<LrcPair> lrcs = policy->firstRound();
    std::vector<uint8_t> prev_flips(n_stabs, 0);
    RoundObservation obs;
    obs.events.resize(n_stabs);
    obs.leakedLabels.resize(n_stabs);
    obs.hadLrc.resize(n_data);
    obs.trueLeakedData.resize(n_data);

    std::vector<uint8_t> flips(n_stabs);

    for (int r = 0; r < config_.rounds; ++r) {
        // Account the scheduling decision against the ground truth at
        // decision time (end of the previous round).
        for (const auto &pair : lrcs)
            obs.hadLrc[pair.data] = 2;   // temp tag: scheduled
        for (int q = 0; q < n_data; ++q) {
            const bool scheduled = obs.hadLrc[q] == 2;
            const bool is_leaked = sim.leaked(q);
            if (scheduled && is_leaked)
                ++stats.tp;
            else if (scheduled && !is_leaked)
                ++stats.fp;
            else if (!scheduled && is_leaked)
                ++stats.fn;
            else
                ++stats.tn;
        }
        stats.lrcsScheduled += lrcs.size();

        const size_t record_mark = sim.record().size();
        RoundSchedule sched = qsg.generate(r, lrcs);
        executeRound(sim, sched, policy->usesMultiLevelReadout());

        // Gather this round's syndrome.
        std::fill(flips.begin(), flips.end(), 0);
        std::fill(obs.leakedLabels.begin(), obs.leakedLabels.end(), 0);
        for (size_t i = record_mark; i < sim.record().size(); ++i) {
            const auto &rec = sim.record()[i];
            if (rec.stab < 0)
                continue;
            flips[rec.stab] = rec.flip ? 1 : 0;
            // |L> labels on normal parity readout feed ERASER+M's LSB;
            // LRC'd data readouts are consumed in-round instead.
            if (!rec.lrcData)
                obs.leakedLabels[rec.stab] =
                    rec.leakedLabel ? 1 : 0;
        }

        if (config_.trackLpr) {
            stats.lprData[r] += sim.countLeaked(0, n_data);
            stats.lprParity[r] +=
                sim.countLeaked(n_data, code_.numQubits());
        }

        // Detection events for the speculation logic.
        for (int s = 0; s < n_stabs; ++s) {
            if (r == 0) {
                // Only the protected-basis checks are deterministic in
                // the first round; the other basis starts random.
                obs.events[s] =
                    code_.stabilizer(s).type == primary ? flips[s]
                                                        : 0;
            } else {
                obs.events[s] = flips[s] ^ prev_flips[s];
            }
        }
        prev_flips = flips;

        obs.round = r;
        std::fill(obs.hadLrc.begin(), obs.hadLrc.end(), 0);
        for (const auto &pair : lrcs)
            obs.hadLrc[pair.data] = 1;
        for (int q = 0; q < n_data; ++q)
            obs.trueLeakedData[q] = sim.leaked(q) ? 1 : 0;

        lrcs = policy->nextRound(obs);
    }

    if (!config_.decode)
        return;

    auto final_ops =
        buildFinalMeasurement(code_, config_.rounds, config_.basis);
    sim.executeRange(final_ops.data(),
                     final_ops.data() + final_ops.size());

    ShotOutcome outcome = extractDefects(code_, config_.basis,
                                         config_.rounds, sim.record());
    const bool predicted = exp.decoder()->decode(outcome.defects);
    const bool error = predicted != outcome.observableFlip;
    stats.logicalErrors += error ? 1 : 0;
}

/** Every shot of `exp` under `kind`, one at a time. Surface-memory
 *  family only (the schedule generator walks the lattice). */
inline ExperimentResult
run(const MemoryExperiment &exp, PolicyKind kind)
{
    const ExperimentConfig &cfg = exp.config();
    const bool every_round = cfg.protocol == RemovalProtocol::Dqlr;
    const PolicyFactory factory =
        makePolicyFactory(kind, exp.code(), exp.lookup(), every_round);

    ShotStats stats;
    if (cfg.trackLpr) {
        stats.lprData.assign(cfg.rounds, 0.0);
        stats.lprParity.assign(cfg.rounds, 0.0);
    }
    for (uint64_t shot = 0; shot < cfg.shots; ++shot)
        runShot(exp, shot, factory, stats);

    ExperimentResult result;
    result.policy = policyKindName(kind, every_round);
    result.shots = cfg.shots;
    result.numDataQubits = exp.code().numData();
    result.numParityQubits = exp.code().numStabilizers();
    result.roundsTotal = cfg.shots * (uint64_t)cfg.rounds;
    result.logicalErrors = stats.logicalErrors;
    result.tp = stats.tp;
    result.fp = stats.fp;
    result.tn = stats.tn;
    result.fn = stats.fn;
    result.lrcsScheduled = stats.lrcsScheduled;
    result.lprDataSum = std::move(stats.lprData);
    result.lprParitySum = std::move(stats.lprParity);
    return result;
}

/**
 * Offline leakage flagging on one shot's record: any stabilizer
 * accumulating `eventThreshold` detection events within a
 * `window`-round span marks the shot.
 */
inline bool
shotIsSuspect(const RotatedSurfaceCode &code, int rounds,
              const std::vector<MeasureRecord> &record,
              const PostSelectOptions &options)
{
    const int n_stabs = code.numStabilizers();
    std::vector<uint8_t> flips((size_t)n_stabs * rounds, 0);
    for (const auto &rec : record) {
        if (rec.stab >= 0 && !rec.finalData)
            flips[(size_t)rec.round * n_stabs + rec.stab] =
                rec.flip ? 1 : 0;
    }
    for (int s = 0; s < n_stabs; ++s) {
        int window_events = 0;
        for (int r = 0; r < rounds; ++r) {
            const uint8_t prev =
                r == 0 ? 0 : flips[(size_t)(r - 1) * n_stabs + s];
            const uint8_t event =
                flips[(size_t)r * n_stabs + s] ^ prev;
            window_events += event;
            if (r >= options.window) {
                const uint8_t old_prev =
                    r - options.window == 0
                        ? 0
                        : flips[(size_t)(r - options.window - 1) *
                                    n_stabs + s];
                window_events -=
                    flips[(size_t)(r - options.window) * n_stabs + s] ^
                    old_prev;
            }
            if (window_events >= options.eventThreshold)
                return true;
        }
    }
    return false;
}

/** The post-selected No-LRC memory study, one scalar shot at a time. */
inline PostSelectResult
runPostSelected(const RotatedSurfaceCode &code,
                const ExperimentConfig &config,
                const PostSelectOptions &options = {})
{
    DetectorModel dem =
        buildDetectorModel(code, config.rounds, config.basis);
    MwpmDecoder decoder(dem, config.em.p, config.decoderOptions);
    Circuit circuit =
        buildMemoryCircuit(code, config.rounds, config.basis);

    PostSelectResult result;
    result.shots = config.shots;
    for (uint64_t shot = 0; shot < config.shots; ++shot) {
        FrameSimulator sim(code.numQubits(), config.em,
                           Rng::forShot(config.seed, shot));
        sim.run(circuit);
        const bool suspect =
            shotIsSuspect(code, config.rounds, sim.record(), options);
        ShotOutcome outcome = extractDefects(code, config.basis,
                                             config.rounds, sim.record());
        const bool error =
            decoder.decode(outcome.defects) != outcome.observableFlip;
        result.logicalErrorsAll += error ? 1 : 0;
        if (!suspect) {
            ++result.kept;
            result.logicalErrorsKept += error ? 1 : 0;
        }
    }
    return result;
}

} // namespace scalar_reference
} // namespace qec

#endif // QEC_TESTS_SCALAR_REFERENCE_H
