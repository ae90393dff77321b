/**
 * @file
 * Word-parallel adaptive-controller differentials, in three tiers:
 *
 *  1. LSB unit level: speculateWords over random event/label/had-LRC
 *     bit planes reproduces the per-lane speculate byte-array scan for
 *     every threshold rule (including HalfNeighbors on weight-2
 *     boundary qubits) and for ERASER+M label marking, at every plane
 *     depth (uint64_t / WordVec<4> / WordVec<8>).
 *  2. Controller unit level: BatchEraserController's per-lane LRC
 *     schedule streams are bit-identical to dedicated per-lane
 *     EraserPolicy instances across rounds — LTT marks, PUTT
 *     cooldowns and DLI allocation order included — for both
 *     allocators and with the PUTT-cooldown ablation; its oracle
 *     round matches per-lane OptimalLrcPolicy instances the same
 *     way; the lane-major exact-matching DLI matches the reference
 *     matching; and steady-state rounds allocate nothing.
 *  3. Experiment level: the word-parallel engine path produces
 *     bit-identical results (verdicts, speculation quadrants, LRC
 *     counts, LPR traces) to the per-lane fallback path at W = 64,
 *     256 and 512 for every lane-parallelizable policy, including
 *     ragged word-groups.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "base/rng.h"
#include "core/policies.h"
#include "exp/memory_experiment.h"

// ---------------------------------------------------------------------
// Global allocation counter: every operator new in this binary bumps
// it, so tests can assert a code region allocates nothing. The
// replacement operators pair malloc with free, which GCC's
// new/delete-mismatch heuristic cannot see through.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
static std::atomic<uint64_t> g_allocations{0};

void *
operator new(std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    ++g_allocations;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace qec
{
namespace
{

/** Random lane-set plane with density p over the low `lanes` lanes. */
template <typename Lane>
Lane
randomPlane(Rng &rng, int lanes, double p)
{
    Lane out{};
    for (int l = 0; l < lanes; ++l) {
        if (rng.bernoulli(p))
            setLane(out, l);
    }
    return out;
}

/** Materialize lane l of a plane array as the byte array the per-lane
 *  reference consumes. */
template <typename Lane>
std::vector<uint8_t>
laneSlice(const std::vector<Lane> &planes, int lane)
{
    std::vector<uint8_t> out(planes.size(), 0);
    for (size_t i = 0; i < planes.size(); ++i)
        out[i] = testLane(planes[i], lane) ? 1 : 0;
    return out;
}

// ------------------------------------------------------ LSB unit tier

template <typename Lane>
void
speculateWordsMatchesPerLane(int d, LsbThreshold threshold,
                             bool multi_level, int lanes,
                             uint64_t seed)
{
    RotatedSurfaceCode code(d);
    LeakageSpeculationBlock lsb(code,
                                LsbOptions{threshold, multi_level});
    Rng rng(seed);
    const int n_stabs = code.numStabilizers();
    const int n_data = code.numData();

    std::vector<Lane> events(n_stabs, Lane{});
    std::vector<Lane> labels(n_stabs, Lane{});
    std::vector<Lane> had_lrc(n_data, Lane{});
    for (int s = 0; s < n_stabs; ++s) {
        events[s] = randomPlane<Lane>(rng, lanes, 0.2);
        labels[s] = randomPlane<Lane>(rng, lanes, 0.05);
    }
    for (int q = 0; q < n_data; ++q)
        had_lrc[q] = randomPlane<Lane>(rng, lanes, 0.1);

    // Pre-existing marks: speculation ORs into surviving state.
    BatchLeakageTrackingTable<Lane> batch(n_data);
    for (int q = 0; q < n_data; ++q)
        batch.mark(q, randomPlane<Lane>(rng, lanes, 0.03));

    std::vector<LeakageTrackingTable> ref;
    ref.reserve(lanes);
    for (int l = 0; l < lanes; ++l) {
        ref.emplace_back(n_data);
        for (int q = 0; q < n_data; ++q) {
            if (batch.marked(q, l))
                ref[l].mark(q);
        }
    }

    const Lane live = laneMaskOf<Lane>(lanes);
    lsb.speculateWords(events, labels, had_lrc, live, batch);

    for (int l = 0; l < lanes; ++l) {
        lsb.speculate(laneSlice(events, l), laneSlice(labels, l),
                      laneSlice(had_lrc, l), ref[l]);
        for (int q = 0; q < n_data; ++q) {
            ASSERT_EQ(batch.marked(q, l), ref[l].marked(q))
                << "lane " << l << " qubit " << q;
        }
    }
}

TEST(BatchLsb, WordSpeculationMatchesPerLaneAllThresholds)
{
    uint64_t seed = 100;
    for (LsbThreshold threshold :
         {LsbThreshold::AtLeastTwo, LsbThreshold::HalfNeighbors,
          LsbThreshold::AllNeighbors}) {
        for (bool multi_level : {false, true}) {
            speculateWordsMatchesPerLane<uint64_t>(
                5, threshold, multi_level, 64, ++seed);
            speculateWordsMatchesPerLane<uint64_t>(
                3, threshold, multi_level, 17, ++seed);
            speculateWordsMatchesPerLane<WordVec<4>>(
                5, threshold, multi_level, 256, ++seed);
            speculateWordsMatchesPerLane<WordVec<4>>(
                5, threshold, multi_level, 100, ++seed);
            speculateWordsMatchesPerLane<WordVec<8>>(
                3, threshold, multi_level, 512, ++seed);
        }
    }
}

TEST(BatchLsb, HalfNeighborsMarksWeightTwoBoundaryQubitOnOneFlip)
{
    // The paper-prose rule: ceil(n/2) flips suffice, so a single
    // flipped neighbor marks a weight-2 boundary data qubit — the
    // exact case where HalfNeighbors and AtLeastTwo diverge.
    RotatedSurfaceCode code(5);
    int boundary_q = -1;
    for (int q = 0; q < code.numData(); ++q) {
        if (code.stabilizersOfData(q).size() == 2) {
            boundary_q = q;
            break;
        }
    }
    ASSERT_GE(boundary_q, 0);
    const int stab = code.stabilizersOfData(boundary_q)[0];

    std::vector<uint64_t> events(code.numStabilizers(), 0);
    std::vector<uint64_t> labels(code.numStabilizers(), 0);
    std::vector<uint64_t> had_lrc(code.numData(), 0);
    events[stab] = ~uint64_t{0};
    const uint64_t live = ~uint64_t{0};

    LeakageSpeculationBlock half(
        code, LsbOptions{LsbThreshold::HalfNeighbors, false});
    BatchLeakageTrackingTable<uint64_t> half_ltt(code.numData());
    half.speculateWords(events, labels, had_lrc, live, half_ltt);
    EXPECT_EQ(half_ltt.word(boundary_q), ~uint64_t{0});

    LeakageSpeculationBlock two(
        code, LsbOptions{LsbThreshold::AtLeastTwo, false});
    BatchLeakageTrackingTable<uint64_t> two_ltt(code.numData());
    two.speculateWords(events, labels, had_lrc, live, two_ltt);
    EXPECT_EQ(two_ltt.word(boundary_q), 0u);

    // An LRC on the qubit in the same round suppresses the mark.
    had_lrc[boundary_q] = 0xFFFF0000FFFF0000ull;
    BatchLeakageTrackingTable<uint64_t> suppressed(code.numData());
    half.speculateWords(events, labels, had_lrc, live, suppressed);
    EXPECT_EQ(suppressed.word(boundary_q), ~0xFFFF0000FFFF0000ull);
}

// ----------------------------------------------- controller unit tier

template <typename Lane>
void
controllerMatchesPerLanePolicies(int d, const BatchPolicySpec &spec,
                                 int lanes, int rounds, uint64_t seed)
{
    RotatedSurfaceCode code(d);
    SwapLookupTable lookup(code);
    BatchEraserController<Lane> controller(code, lookup, spec);

    std::vector<std::unique_ptr<EraserPolicy>> ref;
    ref.reserve(lanes);
    for (int l = 0; l < lanes; ++l)
        ref.push_back(std::make_unique<EraserPolicy>(
            code, lookup, spec.multiLevel, spec.threshold,
            spec.allocator, spec.puttCooldown));

    const int n_stabs = code.numStabilizers();
    const int n_data = code.numData();
    const Lane live = laneMaskOf<Lane>(lanes);
    Rng rng(seed);

    std::vector<Lane> events(n_stabs, Lane{});
    std::vector<Lane> labels(n_stabs, Lane{});
    std::vector<Lane> had_lrc(n_data, Lane{});
    std::vector<std::vector<LrcPair>> lrcs(lanes);

    RoundObservation obs;
    obs.leakedLabels.assign(n_stabs, 0);

    for (int r = 0; r < rounds; ++r) {
        for (int s = 0; s < n_stabs; ++s) {
            events[s] = randomPlane<Lane>(rng, lanes, 0.15);
            labels[s] = spec.multiLevel
                ? randomPlane<Lane>(rng, lanes, 0.04) : Lane{};
        }
        // The round's executed LRCs are the previous decisions: that
        // is exactly the suppression plane the experiment layer hands
        // the controller.
        std::fill(had_lrc.begin(), had_lrc.end(), Lane{});
        for (int l = 0; l < lanes; ++l) {
            for (const auto &pair : lrcs[l])
                setLane(had_lrc[pair.data], l);
        }

        // Per-lane references first (lrcs still holds last round).
        std::vector<std::vector<LrcPair>> expected(lanes);
        for (int l = 0; l < lanes; ++l) {
            obs.round = r;
            obs.events = laneSlice(events, l);
            if (spec.multiLevel)
                obs.leakedLabels = laneSlice(labels, l);
            obs.hadLrc = laneSlice(had_lrc, l);
            expected[l] = ref[l]->nextRound(obs);
        }

        controller.nextRound(events, labels, had_lrc, live, lrcs);
        for (int l = 0; l < lanes; ++l) {
            ASSERT_EQ(lrcs[l], expected[l])
                << "round " << r << " lane " << l;
        }

        // The tracking tables must agree lane for lane, not just the
        // emitted schedules.
        for (int l = 0; l < lanes; ++l) {
            for (int q = 0; q < n_data; ++q) {
                ASSERT_EQ(controller.ltt().marked(q, l),
                          ref[l]->ltt().marked(q))
                    << "round " << r << " lane " << l << " q " << q;
            }
            for (int s = 0; s < n_stabs; ++s) {
                ASSERT_EQ(controller.putt().used(s, l),
                          ref[l]->putt().used(s))
                    << "round " << r << " lane " << l << " s " << s;
            }
        }
    }
}

TEST(BatchController, MatchesPerLaneEraserAcrossConfigs)
{
    uint64_t seed = 9000;
    for (bool multi_level : {false, true}) {
        for (LsbThreshold threshold :
             {LsbThreshold::AtLeastTwo,
              LsbThreshold::HalfNeighbors}) {
            BatchPolicySpec spec;
            spec.kind = BatchPolicyKind::Eraser;
            spec.multiLevel = multi_level;
            spec.threshold = threshold;
            controllerMatchesPerLanePolicies<uint64_t>(3, spec, 64,
                                                       8, ++seed);
            controllerMatchesPerLanePolicies<WordVec<4>>(3, spec, 256,
                                                         6, ++seed);
            controllerMatchesPerLanePolicies<WordVec<4>>(5, spec, 100,
                                                         5, ++seed);
            controllerMatchesPerLanePolicies<WordVec<8>>(3, spec, 512,
                                                         4, ++seed);
        }
    }
}

TEST(BatchController, MatchesPerLaneExactMatchingAndNoCooldown)
{
    BatchPolicySpec spec;
    spec.kind = BatchPolicyKind::Eraser;
    spec.allocator = DliAllocator::ExactMatching;
    controllerMatchesPerLanePolicies<uint64_t>(3, spec, 64, 6, 41);
    controllerMatchesPerLanePolicies<WordVec<4>>(3, spec, 130, 5, 42);

    spec.allocator = DliAllocator::LookupTable;
    spec.puttCooldown = false;
    controllerMatchesPerLanePolicies<uint64_t>(3, spec, 64, 6, 43);
    controllerMatchesPerLanePolicies<WordVec<8>>(3, spec, 320, 4, 44);
}

/**
 * Oracle round vs per-lane OptimalLrcPolicy: random true-leak planes
 * each round, schedules and the leftover oracle marks compared lane
 * for lane. Saturated rounds (more leaked qubits than any matching
 * serves) alternate with sparse ones, so marks wrongly carried into
 * the next round would change its schedule.
 */
template <typename Lane>
void
oracleMatchesPerLaneOptimal(int d, int lanes, int rounds,
                            uint64_t seed)
{
    RotatedSurfaceCode code(d);
    SwapLookupTable lookup(code);
    BatchEraserController<Lane> controller(
        code, lookup, OptimalLrcPolicy(code, lookup).batchSpec());

    std::vector<std::unique_ptr<OptimalLrcPolicy>> ref;
    ref.reserve(lanes);
    for (int l = 0; l < lanes; ++l)
        ref.push_back(std::make_unique<OptimalLrcPolicy>(code, lookup));

    const int n_data = code.numData();
    const Lane live = laneMaskOf<Lane>(lanes);
    Rng rng(seed);
    std::vector<Lane> leaked(n_data, Lane{});
    std::vector<std::vector<LrcPair>> lrcs(lanes);
    RoundObservation obs;

    for (int r = 0; r < rounds; ++r) {
        // Dead lanes carry leak bits too: the live mask must drop them.
        const double density = r % 2 ? 0.05 : 0.9;
        for (int q = 0; q < n_data; ++q)
            leaked[q] = randomPlane<Lane>(rng, lanes, density) |
                        andnot(randomPlane<Lane>(rng, (int)sizeof(Lane) * 8,
                                                 0.5),
                               live);
        controller.oracleRound(leaked, live, lrcs);
        for (int l = 0; l < lanes; ++l) {
            obs.round = r;
            obs.trueLeakedData = laneSlice(leaked, l);
            ASSERT_EQ(lrcs[l], ref[l]->nextRound(obs))
                << "round " << r << " lane " << l;
            for (int q = 0; q < n_data; ++q) {
                ASSERT_EQ(controller.ltt().marked(q, l),
                          ref[l]->ltt().marked(q))
                    << "round " << r << " lane " << l << " q " << q;
            }
        }
    }
}

TEST(BatchController, OracleRoundMatchesPerLaneOptimal)
{
    oracleMatchesPerLaneOptimal<uint64_t>(3, 64, 6, 51);
    oracleMatchesPerLaneOptimal<uint64_t>(5, 37, 6, 52);
    oracleMatchesPerLaneOptimal<WordVec<4>>(5, 256, 4, 53);
    oracleMatchesPerLaneOptimal<WordVec<4>>(3, 130, 6, 54);
    oracleMatchesPerLaneOptimal<WordVec<8>>(3, 512, 4, 55);
    oracleMatchesPerLaneOptimal<WordVec<8>>(5, 300, 4, 56);
}

/** The block-tail form of a word-group's per-lane schedules. */
template <typename Lane>
struct MergedSchedule
{
    std::vector<Lane> schedMask, lrcOnStab;
    std::vector<IrLrcTail> blockTails[BatchLrcSchedule<Lane>::kBlocks];
    uint64_t scheduled = 0;
};

/**
 * The experiment driver's lane-by-lane merge of per-lane schedules,
 * as it ran for the controller policies before the controller wrote
 * block tails: lanes ascending, each lane's pairs in order, a tail
 * appended to its block's list when first met and OR-ed into after.
 */
template <typename Lane>
MergedSchedule<Lane>
mergePerLane(const std::vector<std::vector<LrcPair>> &lrcs, int lanes,
             int n_data, int n_stabs)
{
    MergedSchedule<Lane> out;
    out.schedMask.assign(n_data, Lane{});
    out.lrcOnStab.assign(n_stabs, Lane{});
    std::vector<int> tail_at((size_t)n_stabs * n_data, -1);
    for (int l = 0; l < lanes; ++l) {
        const int b = l >> 6;
        const uint64_t bit = uint64_t{1} << (l & 63);
        std::vector<IrLrcTail> &tails = out.blockTails[b];
        for (const auto &pair : lrcs[l]) {
            setLane(out.schedMask[pair.data], l);
            setLane(out.lrcOnStab[pair.stab], l);
            int &at = tail_at[(size_t)pair.stab * n_data + pair.data];
            if (at < 0) {
                at = (int)tails.size();
                tails.push_back({pair.stab, pair.data, bit});
            } else {
                tails[at].mask |= bit;
            }
        }
        out.scheduled += lrcs[l].size();
        if ((l & 63) == 63 || l == lanes - 1) {
            for (const auto &tail : tails)
                tail_at[(size_t)tail.stab * n_data + tail.data] = -1;
        }
    }
    return out;
}

/**
 * Two controllers of one spec fed identical rounds: one writes block
 * tails, the other unpacks per-lane lists, which are then merged the
 * way the driver used to. Tails (order and masks), both planes and
 * the scheduled count must agree every round. The tail-writing
 * controller gets its own schedule's data plane as had_lrc, as the
 * experiment passes it.
 */
template <typename Lane>
void
blockTailsEqualPerLaneMerge(int d, const BatchPolicySpec &spec,
                            int lanes, uint64_t seed)
{
    RotatedSurfaceCode code(d);
    SwapLookupTable lookup(code);
    BatchEraserController<Lane> tails_ctl(code, lookup, spec);
    BatchEraserController<Lane> lanes_ctl(code, lookup, spec);
    const int n_stabs = code.numStabilizers();
    const int n_data = code.numData();
    const Lane live = laneMaskOf<Lane>(lanes);
    Rng rng(seed);

    BatchLrcSchedule<Lane> sched(n_data, n_stabs);
    std::vector<std::vector<LrcPair>> lrcs(lanes);
    std::vector<Lane> events(n_stabs), labels(n_stabs), leaked(n_data);
    std::vector<Lane> had_lrc(n_data, Lane{});
    const double densities[] = {0.02, 0.1, 0.3, 0.6, 0.05, 1.0, 0.15};
    int round = 0;
    for (double density : densities) {
        SCOPED_TRACE(::testing::Message()
                     << "round " << round++ << " density " << density);
        for (int s = 0; s < n_stabs; ++s) {
            events[s] = randomPlane<Lane>(rng, lanes, density);
            labels[s] = spec.multiLevel
                ? randomPlane<Lane>(rng, lanes, density / 4) : Lane{};
        }
        // Dead lanes carry leak bits too: the live mask must drop them.
        for (int q = 0; q < n_data; ++q)
            leaked[q] = randomPlane<Lane>(rng, lanes, density / 2) |
                        andnot(randomPlane<Lane>(
                                   rng, (int)sizeof(Lane) * 8, 0.5),
                               live);
        had_lrc = sched.schedMask;
        if (spec.oracle) {
            tails_ctl.oracleRound(leaked, live, sched);
            lanes_ctl.oracleRound(leaked, live, lrcs);
        } else {
            tails_ctl.nextRound(events, labels, sched.schedMask, live,
                                sched);
            lanes_ctl.nextRound(events, labels, had_lrc, live, lrcs);
        }

        const MergedSchedule<Lane> want =
            mergePerLane<Lane>(lrcs, lanes, n_data, n_stabs);
        EXPECT_EQ(sched.scheduled, want.scheduled);
        for (int b = 0; b < BatchLrcSchedule<Lane>::kBlocks; ++b) {
            const auto &got = sched.blockTails[b];
            const auto &exp = want.blockTails[b];
            ASSERT_EQ(got.size(), exp.size()) << "block " << b;
            for (size_t i = 0; i < got.size(); ++i) {
                ASSERT_EQ(got[i].stab, exp[i].stab)
                    << "block " << b << " tail " << i;
                ASSERT_EQ(got[i].data, exp[i].data)
                    << "block " << b << " tail " << i;
                ASSERT_EQ(got[i].mask, exp[i].mask)
                    << "block " << b << " tail " << i;
            }
        }
        for (int q = 0; q < n_data; ++q)
            ASSERT_TRUE(sched.schedMask[q] == want.schedMask[q])
                << "data " << q;
        for (int s = 0; s < n_stabs; ++s)
            ASSERT_TRUE(sched.lrcOnStab[s] == want.lrcOnStab[s])
                << "stab " << s;
    }
}

template <typename Lane>
void
blockTailsEqualPerLaneMergeAllSpecs(int d, int lanes, uint64_t seed)
{
    RotatedSurfaceCode code(d);
    SwapLookupTable lookup(code);
    BatchPolicySpec lookup_spec;
    lookup_spec.kind = BatchPolicyKind::Eraser;
    BatchPolicySpec no_cooldown = lookup_spec;
    no_cooldown.puttCooldown = false;
    BatchPolicySpec multi_level = lookup_spec;
    multi_level.multiLevel = true;
    BatchPolicySpec exact = lookup_spec;
    exact.allocator = DliAllocator::ExactMatching;
    struct Case
    {
        const char *name;
        BatchPolicySpec spec;
    };
    for (const Case &c :
         {Case{"lookup", lookup_spec}, Case{"lookup-no-cooldown",
                                            no_cooldown},
          Case{"lookup-multi-level", multi_level},
          Case{"exact", exact},
          Case{"oracle", OptimalLrcPolicy(code, lookup).batchSpec()}}) {
        SCOPED_TRACE(::testing::Message()
                     << c.name << " W=" << lanes << " d=" << d);
        blockTailsEqualPerLaneMerge<Lane>(d, c.spec, lanes, ++seed);
    }
}

TEST(BatchController, BlockTailsEqualPerLaneMerge)
{
    blockTailsEqualPerLaneMergeAllSpecs<uint64_t>(5, 37, 600);
    blockTailsEqualPerLaneMergeAllSpecs<uint64_t>(7, 64, 610);
    blockTailsEqualPerLaneMergeAllSpecs<WordVec<4>>(5, 256, 620);
    blockTailsEqualPerLaneMergeAllSpecs<WordVec<8>>(3, 257, 630);
    blockTailsEqualPerLaneMergeAllSpecs<WordVec<8>>(7, 512, 640);
}

TEST(BatchDli, ExactLaneMatchesReferenceMatching)
{
    // allocateLane(ExactMatching) on a lane's marks must equal the
    // reference maxBipartiteMatching over the same marks with the
    // lane's cooled-down stabs removed from the adjacency.
    using Lane = WordVec<4>;
    RotatedSurfaceCode code(5);
    SwapLookupTable lookup(code);
    DynamicLrcInsertion dli(code, lookup, DliAllocator::ExactMatching);
    const int n_data = code.numData();
    const int n_stabs = code.numStabilizers();
    Rng rng(2026);
    BipartiteMatcher matcher;   // reused across every trial
    std::vector<LrcPair> lrcs;

    for (int trial = 0; trial < 200; ++trial) {
        const double mark_p = 0.05 + 0.4 * rng.uniform();
        const double putt_p = 0.5 * rng.uniform();
        const int lane = (int)(rng.uniform() * 256);
        BatchLeakageTrackingTable<Lane> ltt(n_data);
        BatchParityUsageTable<Lane> putt(n_stabs);
        std::vector<int> marks;
        for (int q = 0; q < n_data; ++q) {
            if (rng.bernoulli(mark_p)) {
                Lane w{};
                setLane(w, lane);
                ltt.mark(q, w);
                marks.push_back(q);
            }
        }
        Lane lane_set{};
        setLane(lane_set, lane);
        for (int s = 0; s < n_stabs; ++s) {
            if (rng.bernoulli(putt_p))
                putt.markPending(s, lane_set);
        }
        putt.advanceRound();

        std::vector<std::vector<int>> adjacency(marks.size());
        for (size_t i = 0; i < marks.size(); ++i) {
            for (int s : code.stabilizersOfData(marks[i])) {
                if (!putt.used(s, lane))
                    adjacency[i].push_back(s);
            }
        }
        const auto match = maxBipartiteMatching((int)marks.size(),
                                                adjacency, n_stabs);
        std::vector<LrcPair> expected;
        for (size_t i = 0; i < marks.size(); ++i) {
            if (match[i] >= 0)
                expected.push_back({marks[i], match[i]});
        }

        dli.allocateLane(lane, marks.data(), (int)marks.size(), ltt,
                         putt, matcher, lrcs);
        ASSERT_EQ(lrcs, expected) << "trial " << trial;
        for (size_t i = 0; i < marks.size(); ++i) {
            EXPECT_EQ(ltt.marked(marks[i], lane), match[i] < 0)
                << "trial " << trial << " q " << marks[i];
        }
    }
}

TEST(BatchController, SteadyStateRoundsAllocateNothing)
{
    // Once saturated rounds have sized the lazily grown scratch
    // (matcher, block tails) and the caller's per-lane schedule
    // buffers hold their bound, a W=256 controller round allocates
    // nothing — for the lookup walk, the exact-matching walk and the
    // oracle round, writing block tails or per-lane lists.
    using Lane = WordVec<4>;
    const int lanes = 256;
    RotatedSurfaceCode code(7);
    SwapLookupTable lookup(code);
    const int n_stabs = code.numStabilizers();
    const int n_data = code.numData();
    const Lane live = laneMaskOf<Lane>(lanes);

    BatchPolicySpec eraser;
    eraser.kind = BatchPolicyKind::Eraser;
    BatchPolicySpec exact = eraser;
    exact.allocator = DliAllocator::ExactMatching;
    const BatchPolicySpec oracle =
        OptimalLrcPolicy(code, lookup).batchSpec();

    struct Case
    {
        const char *name;
        BatchPolicySpec spec;
    };
    for (const Case &c : {Case{"lookup", eraser}, Case{"exact", exact},
                          Case{"oracle", oracle}}) {
        for (bool block_tails : {true, false}) {
            SCOPED_TRACE(::testing::Message()
                         << c.name
                         << (block_tails ? " block tails" : " per lane"));
            BatchEraserController<Lane> controller(code, lookup, c.spec);
            BatchLrcSchedule<Lane> sched(n_data, n_stabs);
            std::vector<std::vector<LrcPair>> lrcs(lanes);
            for (auto &lane_lrcs : lrcs)
                lane_lrcs.reserve(n_stabs);
            std::vector<Lane> events(n_stabs), labels(n_stabs, Lane{});
            std::vector<Lane> had_lrc(n_data, Lane{}), leaked(n_data);
            Rng rng(7);
            auto round = [&](double density) {
                for (auto &plane : events)
                    plane = randomPlane<Lane>(rng, lanes, density);
                for (auto &plane : leaked)
                    plane = randomPlane<Lane>(rng, lanes, density);
                if (c.spec.oracle && block_tails)
                    controller.oracleRound(leaked, live, sched);
                else if (c.spec.oracle)
                    controller.oracleRound(leaked, live, lrcs);
                else if (block_tails)
                    controller.nextRound(events, labels, sched.schedMask,
                                         live, sched);
                else
                    controller.nextRound(events, labels, had_lrc, live,
                                         lrcs);
            };

            for (int warmup = 0; warmup < 3; ++warmup)
                round(1.0);
            const uint64_t before = g_allocations.load();
            for (int r = 0; r < 20; ++r)
                round(r % 4 == 0 ? 0.5 : 0.05);
            EXPECT_EQ(g_allocations.load(), before);
        }
    }
}

// -------------------------------------------------- experiment tier

/** Forced per-lane variants: identical policies whose batchSpec hides
 *  the lane-parallel form, driving the fallback path. */
struct PerLaneEraserPolicy : EraserPolicy
{
    using EraserPolicy::EraserPolicy;
    BatchPolicySpec batchSpec() const override { return {}; }
};
struct PerLaneAlwaysPolicy : AlwaysLrcPolicy
{
    using AlwaysLrcPolicy::AlwaysLrcPolicy;
    BatchPolicySpec batchSpec() const override { return {}; }
};
struct PerLaneNeverPolicy : NeverLrcPolicy
{
    BatchPolicySpec batchSpec() const override { return {}; }
};
struct PerLaneOptimalPolicy : OptimalLrcPolicy
{
    using OptimalLrcPolicy::OptimalLrcPolicy;
    BatchPolicySpec batchSpec() const override { return {}; }
};

void
expectResultsIdentical(const ExperimentResult &a,
                       const ExperimentResult &b, const char *what)
{
    EXPECT_EQ(a.logicalErrors, b.logicalErrors) << what;
    EXPECT_EQ(a.verdictFingerprint, b.verdictFingerprint) << what;
    EXPECT_EQ(a.tp, b.tp) << what;
    EXPECT_EQ(a.fp, b.fp) << what;
    EXPECT_EQ(a.tn, b.tn) << what;
    EXPECT_EQ(a.fn, b.fn) << what;
    EXPECT_EQ(a.lrcsScheduled, b.lrcsScheduled) << what;
    EXPECT_EQ(a.zeroDefectShots, b.zeroDefectShots) << what;
    ASSERT_EQ(a.lprDataSum.size(), b.lprDataSum.size()) << what;
    for (size_t r = 0; r < a.lprDataSum.size(); ++r) {
        EXPECT_DOUBLE_EQ(a.lprDataSum[r], b.lprDataSum[r]) << what;
        EXPECT_DOUBLE_EQ(a.lprParitySum[r], b.lprParitySum[r]) << what;
    }
}

/**
 * The controller path and the per-lane fallback path must agree bit
 * for bit at every width. shots = 391 gives ragged tail groups at
 * every width (64: ...x6 + 7; 256: 256 + 135; 512: 391), so dead
 * ragged-tail lanes are exercised on both paths too.
 */
TEST(BatchControllerExperiment, WordParallelMatchesPerLaneAllWidths)
{
    RotatedSurfaceCode code(3);
    ExperimentConfig base;
    base.rounds = 5;
    base.shots = 391;
    base.seed = 20260726;
    base.em = ErrorModel::standard(3e-3);
    base.decoderKind = DecoderKind::UnionFind;
    base.trackLpr = true;

    struct Variant
    {
        const char *name;
        RemovalProtocol protocol;
        PolicyFactory wordParallel;
        PolicyFactory perLane;
    };

    MemoryExperiment probe(code, base);   // lookup table source
    const SwapLookupTable &lookup = probe.lookup();

    auto eraser_pair = [&code, &lookup](bool multi,
                                        LsbThreshold threshold) {
        return std::make_pair(
            PolicyFactory([&code, &lookup, multi, threshold]() {
                return std::make_unique<EraserPolicy>(
                    code, lookup, multi, threshold);
            }),
            PolicyFactory([&code, &lookup, multi, threshold]() {
                return std::make_unique<PerLaneEraserPolicy>(
                    code, lookup, multi, threshold);
            }));
    };

    std::vector<Variant> variants;
    {
        auto [word, lane] =
            eraser_pair(false, LsbThreshold::AtLeastTwo);
        variants.push_back(
            {"ERASER", RemovalProtocol::SwapLrc, word, lane});
    }
    {
        auto [word, lane] = eraser_pair(true, LsbThreshold::AtLeastTwo);
        variants.push_back(
            {"ERASER+M", RemovalProtocol::SwapLrc, word, lane});
    }
    {
        auto [word, lane] =
            eraser_pair(false, LsbThreshold::HalfNeighbors);
        variants.push_back({"ERASER/half", RemovalProtocol::SwapLrc,
                            word, lane});
    }
    {
        auto [word, lane] = eraser_pair(false, LsbThreshold::AtLeastTwo);
        variants.push_back(
            {"ERASER/dqlr", RemovalProtocol::Dqlr, word, lane});
    }
    variants.push_back(
        {"Always", RemovalProtocol::SwapLrc,
         [&code]() {
             return std::make_unique<AlwaysLrcPolicy>(code, false);
         },
         [&code]() {
             return std::make_unique<PerLaneAlwaysPolicy>(code, false);
         }});
    variants.push_back(
        {"DQLR", RemovalProtocol::Dqlr,
         [&code]() {
             return std::make_unique<AlwaysLrcPolicy>(code, true);
         },
         [&code]() {
             return std::make_unique<PerLaneAlwaysPolicy>(code, true);
         }});
    for (RemovalProtocol protocol :
         {RemovalProtocol::SwapLrc, RemovalProtocol::Dqlr}) {
        variants.push_back(
            {protocol == RemovalProtocol::Dqlr ? "Optimal/dqlr"
                                               : "Optimal",
             protocol,
             [&code, &lookup]() {
                 return std::make_unique<OptimalLrcPolicy>(code,
                                                           lookup);
             },
             [&code, &lookup]() {
                 return std::make_unique<PerLaneOptimalPolicy>(code,
                                                               lookup);
             }});
    }
    variants.push_back(
        {"Never", RemovalProtocol::SwapLrc,
         []() { return std::make_unique<NeverLrcPolicy>(); },
         []() { return std::make_unique<PerLaneNeverPolicy>(); }});

    for (const auto &variant : variants) {
        ExperimentConfig cfg = base;
        cfg.protocol = variant.protocol;
        if (variant.protocol == RemovalProtocol::Dqlr)
            cfg.em.transport = TransportModel::Exchange;
        for (unsigned width : {64u, 256u, 512u}) {
            cfg.batchWidth = width;
            MemoryExperiment exp(code, cfg);
            auto word = exp.run(variant.wordParallel, "word");
            auto lane = exp.run(variant.perLane, "lane");
            expectResultsIdentical(
                word, lane,
                (std::string(variant.name) + " W=" +
                 std::to_string(width))
                    .c_str());
        }
    }
}

/** Ragged word-group regression: a 100-shot run leaves 156 dead lanes
 *  in a 256-wide group (and a 28-lane ragged second block); dead
 *  lanes must contribute no events, LRCs, observations or verdicts,
 *  i.e. the run must match its own 64-wide decomposition exactly on
 *  both controller and fallback paths. */
TEST(BatchControllerExperiment, RaggedGroupsMatchAcrossWidthsAndPaths)
{
    RotatedSurfaceCode code(3);
    ExperimentConfig cfg;
    cfg.rounds = 5;
    cfg.shots = 100;
    cfg.seed = 77;
    cfg.em = ErrorModel::standard(5e-3);
    cfg.decoderKind = DecoderKind::UnionFind;
    cfg.trackLpr = true;
    MemoryExperiment exp(code, cfg);
    const SwapLookupTable &lookup = exp.lookup();

    const PolicyFactory word = [&code, &lookup]() {
        return std::make_unique<EraserPolicy>(code, lookup, true);
    };
    const PolicyFactory lane = [&code, &lookup]() {
        return std::make_unique<PerLaneEraserPolicy>(code, lookup,
                                                     true);
    };

    cfg.batchWidth = 64;
    auto w64 = MemoryExperiment(code, cfg).run(word, "w64");
    cfg.batchWidth = 256;
    MemoryExperiment wide(code, cfg);
    auto w256 = wide.run(word, "w256");
    auto w256_lane = wide.run(lane, "w256/lane");

    expectResultsIdentical(w64, w256, "ragged W=256 vs W=64");
    expectResultsIdentical(w64, w256_lane,
                           "ragged W=256 per-lane vs W=64");
    // Every (shot, round, data-qubit) decision is accounted exactly
    // once: dead lanes add nothing to any quadrant.
    EXPECT_EQ(w256.tp + w256.fp + w256.tn + w256.fn,
              cfg.shots * (uint64_t)cfg.rounds *
                  (uint64_t)code.numData());
    EXPECT_EQ(w256.tp + w256.fp, w256.lrcsScheduled);

    // The Optimal oracle round on the same ragged groups, against its
    // 64-wide decomposition and the per-lane reference.
    const PolicyFactory optimal = [&code, &lookup]() {
        return std::make_unique<OptimalLrcPolicy>(code, lookup);
    };
    const PolicyFactory optimal_lane = [&code, &lookup]() {
        return std::make_unique<PerLaneOptimalPolicy>(code, lookup);
    };
    cfg.batchWidth = 64;
    auto o64 = MemoryExperiment(code, cfg).run(optimal, "o64");
    for (unsigned width : {256u, 512u}) {
        cfg.batchWidth = width;
        MemoryExperiment ragged(code, cfg);
        const std::string tag = "ragged Optimal W=" +
                                std::to_string(width);
        expectResultsIdentical(o64, ragged.run(optimal, "o"),
                               (tag + " vs W=64").c_str());
        expectResultsIdentical(o64, ragged.run(optimal_lane, "o/lane"),
                               (tag + " per-lane vs W=64").c_str());
    }
}

} // namespace
} // namespace qec
