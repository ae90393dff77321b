#include "core/policies.h"

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
    : oracle_(spec.oracle), puttCooldown_(spec.puttCooldown),
      lsb_(code, LsbOptions{spec.threshold, spec.multiLevel}),
      dli_(code, lookup, spec.allocator),
      ltt_(code.numData()),
      putt_(code.numStabilizers()),
      markArena_(sizeof(Lane) * 8 * (size_t)code.numData()),
      laneEnd_(sizeof(Lane) * 8)
{
    panicIf(spec.kind != BatchPolicyKind::Eraser && !spec.oracle,
            "BatchEraserController needs an Eraser or oracle spec");
    candidates_.reserve(code.numData());
}

template <typename Lane>
void
BatchEraserController<Lane>::nextRound(
    const std::vector<Lane> &events, const std::vector<Lane> &labels,
    const std::vector<Lane> &had_lrc, const Lane &live,
    std::vector<std::vector<LrcPair>> &lrcs)
{
    panicIf(oracle_, "an oracle controller runs oracleRound");
    // Stage 1 — word-parallel speculation straight on the planes.
    lsb_.speculateWords(events, labels, had_lrc, live, ltt_);
    allocateMarked(live, lrcs);
}

template <typename Lane>
void
BatchEraserController<Lane>::oracleRound(
    const std::vector<Lane> &leaked, const Lane &live,
    std::vector<std::vector<LrcPair>> &lrcs)
{
    panicIf(!oracle_, "oracleRound needs an oracle controller");
    // The oracle's marks are exactly this round's leaked qubits.
    for (int q = 0; q < ltt_.size(); ++q)
        ltt_.assign(q, leaked[q] & live);
    allocateMarked(live, lrcs);
}

template <typename Lane>
void
BatchEraserController<Lane>::allocateMarked(
    const Lane &live, std::vector<std::vector<LrcPair>> &lrcs)
{
    // Stage 2 — collect the active lane mask (and the candidate
    // qubits any active lane holds). Marks persist across rounds for
    // unserviced qubits, so the mask is recomputed from the planes
    // rather than from this round's events alone.
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

    for (auto &lane_lrcs : lrcs)
        lane_lrcs.clear();

    // Stage 3 — transpose the active lanes' marks lane-major in one
    // pass (candidates ascend, so every lane's list does too) and run
    // DLI per active lane over its own marks only.
    const int stride = ltt_.size();
    forEachSetLane(active, [&](int l) { laneEnd_[l] = l * stride; });
    for (int q : candidates_)
        forEachSetLane(ltt_.word(q) & active,
                       [&](int l) { markArena_[laneEnd_[l]++] = q; });

    forEachSetLane(active, [&](int l) {
        dli_.allocateLane(l, markArena_.data() + (size_t)l * stride,
                          laneEnd_[l] - l * stride, ltt_, putt_,
                          laneScratch_, lrcs[l]);
        if (puttCooldown_) {
            for (const auto &pair : lrcs[l])
                putt_.markPending(pair.stab, l);
        }
    });

    // Stage 4 — PUTT cooldown advance for every lane at once.
    if (puttCooldown_)
        putt_.advanceRound();
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
