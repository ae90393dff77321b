#include "core/policies.h"

#include <algorithm>

#include "base/logging.h"

namespace qec
{

namespace
{

/**
 * Build a near-perfect (data, stab) pairing with Kuhn's matching,
 * augmenting `first_data` first so it is guaranteed a partner.
 */
std::vector<LrcPair>
buildPairing(const RotatedSurfaceCode &code, int first_data,
             int &leftover)
{
    const int n_data = code.numData();
    BipartiteMatcher matcher;
    matcher.begin(n_data, code.numStabilizers());
    const auto neighbors = stabilizersOfDataFn(code);
    if (first_data >= 0)
        matcher.augment(first_data, neighbors);
    for (int q = 0; q < n_data; ++q) {
        if (q != first_data)
            matcher.augment(q, neighbors);
    }

    std::vector<LrcPair> pairs;
    leftover = -1;
    for (int q = 0; q < n_data; ++q) {
        const int stab = matcher.rightOf(q);
        if (stab >= 0) {
            pairs.push_back({q, stab});
        } else {
            panicIf(leftover != -1,
                    "exactly one data qubit must be left over");
            leftover = q;
        }
    }
    panicIf(leftover == -1, "pairing cannot be perfect on data qubits");
    return pairs;
}

} // namespace

AlwaysLrcPolicy::AlwaysLrcPolicy(const RotatedSurfaceCode &code,
                                 bool every_round)
    : everyRound_(every_round)
{
    // Two alternating pairings whose leftover data qubits differ, so
    // every data qubit is serviced across consecutive LRC rounds.
    int leftover_a = -1;
    pairings_.push_back(buildPairing(code, -1, leftover_a));
    int leftover_b = -1;
    pairings_.push_back(buildPairing(code, leftover_a, leftover_b));
    panicIf(leftover_a == leftover_b,
            "alternating pairings must rotate the leftover qubit");
}

std::vector<LrcPair>
AlwaysLrcPolicy::scheduleFor(int round)
{
    if (everyRound_)
        return pairings_[round % 2];
    // LRC rounds are the odd rounds (Fig. 3: R1 plain, R2 LRCs, ...).
    if (round % 2 == 0)
        return {};
    return pairings_[(round / 2) % 2];
}

std::vector<LrcPair>
AlwaysLrcPolicy::firstRound()
{
    return scheduleFor(0);
}

std::vector<LrcPair>
AlwaysLrcPolicy::nextRound(const RoundObservation &obs)
{
    return scheduleFor(obs.round + 1);
}

EraserPolicy::EraserPolicy(const RotatedSurfaceCode &code,
                           const SwapLookupTable &lookup,
                           bool multi_level, LsbThreshold threshold,
                           DliAllocator allocator, bool putt_cooldown)
    : multiLevel_(multi_level), puttCooldown_(putt_cooldown),
      threshold_(threshold), allocator_(allocator),
      lsb_(code, LsbOptions{threshold, multi_level}),
      dli_(code, lookup, allocator),
      ltt_(code.numData()),
      putt_(code.numStabilizers())
{
}

std::vector<LrcPair>
EraserPolicy::nextRound(const RoundObservation &obs)
{
    lsb_.speculate(obs.events, obs.leakedLabels, obs.hadLrc, ltt_);
    usedStabsScratch_.clear();
    auto lrcs = dli_.allocate(ltt_, putt_, usedStabsScratch_);
    if (puttCooldown_)
        putt_.advanceRound(usedStabsScratch_);
    return lrcs;
}

template <typename Lane>
BatchEraserController<Lane>::BatchEraserController(
    const RotatedSurfaceCode &code, const SwapLookupTable &lookup,
    const BatchPolicySpec &spec)
    : code_(code), oracle_(spec.oracle),
      puttCooldown_(spec.puttCooldown),
      lsb_(code, LsbOptions{spec.threshold, spec.multiLevel}),
      dli_(code, lookup, spec.allocator),
      ltt_(code.numData()),
      putt_(code.numStabilizers()),
      laneViewOut_(code.numData(), code.numStabilizers())
{
    panicIf(spec.kind != BatchPolicyKind::Eraser && !spec.oracle,
            "BatchEraserController needs an Eraser or oracle spec");
    const int n_data = code.numData();
    slotBegin_.resize(n_data + 1, 0);
    for (int q = 0; q < n_data; ++q)
        slotBegin_[q + 1] =
            slotBegin_[q] + (int)code.stabilizersOfData(q).size();
    // At most one grant per (data, adjacent stab) pair and round;
    // the lookup walk writes (and drops) one slot per candidate.
    grants_.resize(std::max(slotBegin_[n_data], dli_.maxGrants()));
    if (spec.allocator == DliAllocator::LookupTable) {
        taken_.assign(code.numStabilizers(), Lane{});
    } else {
        slotLanes_.assign(slotBegin_[n_data], Lane{});
        candidates_.reserve(n_data);
        markArena_.resize(sizeof(Lane) * 8 * (size_t)n_data);
        laneEnd_.resize(sizeof(Lane) * 8);
        lanePairs_.reserve(code.numStabilizers());
    }
}

template <typename Lane>
void
BatchEraserController<Lane>::nextRound(
    const std::vector<Lane> &events, const std::vector<Lane> &labels,
    const std::vector<Lane> &had_lrc, const Lane &live,
    BatchLrcSchedule<Lane> &out)
{
    panicIf(oracle_, "an oracle controller runs oracleRound");
    // Stage 1 — word-parallel speculation straight on the planes.
    lsb_.speculateWords(events, labels, had_lrc, live, ltt_);
    allocateMarked(live, out);
}

template <typename Lane>
void
BatchEraserController<Lane>::oracleRound(
    const std::vector<Lane> &leaked, const Lane &live,
    BatchLrcSchedule<Lane> &out)
{
    panicIf(!oracle_, "oracleRound needs an oracle controller");
    // The oracle's marks are exactly this round's leaked qubits.
    for (int q = 0; q < ltt_.size(); ++q)
        ltt_.assign(q, leaked[q] & live);
    allocateMarked(live, out);
}

template <typename Lane>
void
BatchEraserController<Lane>::nextRound(
    const std::vector<Lane> &events, const std::vector<Lane> &labels,
    const std::vector<Lane> &had_lrc, const Lane &live,
    std::vector<std::vector<LrcPair>> &lrcs)
{
    nextRound(events, labels, had_lrc, live, laneViewOut_);
    unpackGrants(lrcs);
}

template <typename Lane>
void
BatchEraserController<Lane>::oracleRound(
    const std::vector<Lane> &leaked, const Lane &live,
    std::vector<std::vector<LrcPair>> &lrcs)
{
    oracleRound(leaked, live, laneViewOut_);
    unpackGrants(lrcs);
}

template <typename Lane>
void
BatchEraserController<Lane>::allocateMarked(const Lane &live,
                                            BatchLrcSchedule<Lane> &out)
{
    // Stage 2 — DLI. Marks persist across rounds for unserviced
    // qubits, so both allocators start from the LTT planes rather
    // than from this round's events.
    if (dli_.allocator() == DliAllocator::LookupTable)
        numGrants_ = dli_.allocateWords(live, ltt_, putt_, taken_,
                                        grants_.data());
    else
        matchLanes(live);

    // Stage 3 — the schedule, then the PUTT cooldown advance for
    // every lane at once.
    writeSchedule(out);
    if (puttCooldown_) {
        for (int i = 0; i < numGrants_; ++i)
            putt_.markPending(grants_[i].stab, grants_[i].lanes);
        putt_.advanceRound();
    }
}

template <typename Lane>
void
BatchEraserController<Lane>::matchLanes(const Lane &live)
{
    // Collect the qubits any lane marks and the live lanes holding a
    // mark, transpose those lanes' marks lane-major in one pass
    // (candidates ascend, so every lane's list does too), and match
    // each such lane over its own marks only.
    candidates_.clear();
    Lane active{};
    for (int q = 0; q < ltt_.size(); ++q) {
        const Lane &w = ltt_.word(q);
        if (anyLane(w)) {
            candidates_.push_back(q);
            active |= w;
        }
    }
    active &= live;

    const int stride = ltt_.size();
    forEachSetLane(active, [&](int l) { laneEnd_[l] = l * stride; });
    for (int q : candidates_)
        forEachSetLane(ltt_.word(q) & active,
                       [&](int l) { markArena_[laneEnd_[l]++] = q; });

    forEachSetLane(active, [&](int l) {
        dli_.allocateLane(l, markArena_.data() + (size_t)l * stride,
                          laneEnd_[l] - l * stride, ltt_, putt_,
                          matcher_, lanePairs_);
        for (const LrcPair &pair : lanePairs_) {
            const auto &stabs = code_.stabilizersOfData(pair.data);
            const int k = (int)(std::find(stabs.begin(), stabs.end(),
                                          pair.stab) -
                                stabs.begin());
            setLane(slotLanes_[slotBegin_[pair.data] + k], l);
        }
    });

    // One grant per matched (data, stab) slot, ascending in data.
    numGrants_ = 0;
    for (int q : candidates_) {
        const auto &stabs = code_.stabilizersOfData(q);
        for (int k = 0; k < (int)stabs.size(); ++k) {
            Lane &lanes = slotLanes_[slotBegin_[q] + k];
            if (anyLane(lanes)) {
                grants_[numGrants_++] = {q, stabs[k], lanes};
                lanes = Lane{};
            }
        }
    }
}

template <typename Lane>
void
BatchEraserController<Lane>::writeSchedule(
    BatchLrcSchedule<Lane> &out) const
{
    const DliGrant<Lane> *grants = grants_.data();
    const int num_grants = numGrants_;
    out.clear();
    for (int i = 0; i < num_grants; ++i) {
        const DliGrant<Lane> &grant = grants[i];
        out.schedMask[grant.data] |= grant.lanes;
        out.lrcOnStab[grant.stab] |= grant.lanes;
        out.scheduled += (uint64_t)popcountLanes(grant.lanes);
    }

    // Per block, a stable counting sort of the grants (ascending in
    // data) on their first lane in the block: tails come out ordered
    // by first lane, then data qubit. A lane holds at most one grant
    // per data qubit, so that key is unique within a block. Grants
    // with no lane in a block sort into bucket 64, past the block's
    // tails, and are cut off; that keeps both passes branch-free.
    constexpr int kBlocks = BatchLrcSchedule<Lane>::kBlocks;
    const auto bucket = [](uint64_t w) {
        return w ? __builtin_ctzll(w) : 64;
    };
    int start[kBlocks][66] = {};
    for (int i = 0; i < num_grants; ++i)
        for (int b = 0; b < kBlocks; ++b)
            ++start[b][bucket(laneWord(grants[i].lanes, b)) + 1];
    int num_tails[kBlocks];
    for (int b = 0; b < kBlocks; ++b) {
        for (int i = 1; i <= 65; ++i)
            start[b][i] += start[b][i - 1];
        num_tails[b] = start[b][64];
        // A block holds at most one tail per grant, so reserving the
        // grant bound once keeps later rounds allocation-free.
        out.blockTails[b].reserve(grants_.size());
        out.blockTails[b].resize(num_grants);
    }
    for (int i = 0; i < num_grants; ++i)
        for (int b = 0; b < kBlocks; ++b) {
            const uint64_t w = laneWord(grants[i].lanes, b);
            out.blockTails[b][start[b][bucket(w)]++] = {
                grants[i].stab, grants[i].data, w};
        }
    for (int b = 0; b < kBlocks; ++b)
        out.blockTails[b].resize(num_tails[b]);
}

template <typename Lane>
void
BatchEraserController<Lane>::unpackGrants(
    std::vector<std::vector<LrcPair>> &lrcs) const
{
    for (auto &lane_lrcs : lrcs)
        lane_lrcs.clear();
    for (int i = 0; i < numGrants_; ++i) {
        const DliGrant<Lane> &grant = grants_[i];
        forEachSetLane(grant.lanes, [&](int l) {
            lrcs[l].push_back({grant.data, grant.stab});
        });
    }
}

template class BatchEraserController<uint64_t>;
template class BatchEraserController<WordVec<4>>;
template class BatchEraserController<WordVec<8>>;

OptimalLrcPolicy::OptimalLrcPolicy(const RotatedSurfaceCode &code,
                                   const SwapLookupTable &lookup)
    : code_(code), dli_(code, lookup, DliAllocator::ExactMatching),
      emptyPutt_(code.numStabilizers()), ltt_(code.numData())
{
}

std::vector<LrcPair>
OptimalLrcPolicy::nextRound(const RoundObservation &obs)
{
    panicIf(obs.trueLeakedData.empty(),
            "Optimal policy needs oracle leakage state");
    ltt_.reset();
    for (int q = 0; q < code_.numData(); ++q) {
        if (obs.trueLeakedData[q])
            ltt_.mark(q);
    }
    usedStabsScratch_.clear();
    return dli_.allocate(ltt_, emptyPutt_, usedStabsScratch_);
}

PolicyFactory
makePolicyFactory(PolicyKind kind, const RotatedSurfaceCode &code,
                  const SwapLookupTable &lookup, bool every_round)
{
    switch (kind) {
      case PolicyKind::Never:
        return []() { return std::make_unique<NeverLrcPolicy>(); };
      case PolicyKind::Always:
        return [&code, every_round]() {
            return std::make_unique<AlwaysLrcPolicy>(code, every_round);
        };
      case PolicyKind::Eraser:
        return [&code, &lookup]() {
            return std::make_unique<EraserPolicy>(code, lookup, false);
        };
      case PolicyKind::EraserM:
        return [&code, &lookup]() {
            return std::make_unique<EraserPolicy>(code, lookup, true);
        };
      case PolicyKind::Optimal:
        return [&code, &lookup]() {
            return std::make_unique<OptimalLrcPolicy>(code, lookup);
        };
    }
    panic("unknown policy kind");
}

std::string
policyKindName(PolicyKind kind, bool every_round)
{
    switch (kind) {
      case PolicyKind::Never: return "No-LRC";
      case PolicyKind::Always:
        return every_round ? "DQLR" : "Always-LRCs";
      case PolicyKind::Eraser: return "ERASER";
      case PolicyKind::EraserM: return "ERASER+M";
      case PolicyKind::Optimal: return "Optimal";
    }
    panic("unknown policy kind");
}

} // namespace qec
