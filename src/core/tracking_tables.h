/**
 * @file
 * The two state tables of the ERASER microarchitecture (Fig. 10).
 *
 * The Leakage Tracking Table (LTT) holds one bit per data qubit: set
 * when the Leakage Speculation Block suspects leakage, cleared when an
 * LRC services the qubit.
 *
 * The Parity qubit Usage Tracking Table (PUTT) holds one bit per
 * parity qubit: set while the qubit is cooling down after taking part
 * in an LRC (it skipped its measure+reset that round, so using it
 * again immediately would let leakage accumulate — Section 4.2.2).
 *
 * Both tables also come in a word-parallel ("batch") flavour for the
 * bit-packed experiment engine: one lane-set word per qubit instead of
 * one byte, so W = 64/256/512 lanes' tables live side by side as bit
 * planes and the speculation stage updates all lanes with word ops.
 * Lane l of plane q is exactly what a per-lane table's entry q would
 * hold for shot l — the bit-identity anchor the differential tests
 * pin.
 */

#ifndef QEC_CORE_TRACKING_TABLES_H
#define QEC_CORE_TRACKING_TABLES_H

#include <algorithm>
#include <cstdint>
#include <vector>

#include "base/simd_word.h"

namespace qec
{

/** Leakage Tracking Table: one speculation bit per data qubit. */
class LeakageTrackingTable
{
  public:
    explicit LeakageTrackingTable(int num_data)
        : marks_(num_data, 0)
    {
    }

    void
    mark(int data)
    {
        markedCount_ += marks_[data] == 0;
        marks_[data] = 1;
    }
    void
    clear(int data)
    {
        markedCount_ -= marks_[data] != 0;
        marks_[data] = 0;
    }
    bool marked(int data) const { return marks_[data] != 0; }
    int size() const { return (int)marks_.size(); }
    /** Number of currently marked qubits: lets the DLI skip its scan
     *  outright in the (dominant, low-p) quiescent rounds. */
    int markedCount() const { return markedCount_; }

    void
    reset()
    {
        std::fill(marks_.begin(), marks_.end(), 0);
        markedCount_ = 0;
    }

    /** Marked data qubits in ascending id order. */
    std::vector<int>
    markedList() const
    {
        std::vector<int> out;
        for (int q = 0; q < (int)marks_.size(); ++q) {
            if (marks_[q])
                out.push_back(q);
        }
        return out;
    }

  private:
    std::vector<uint8_t> marks_;
    int markedCount_ = 0;
};

/** Parity qubit Usage Tracking Table: cooldown bit per stabilizer. */
class ParityUsageTable
{
  public:
    explicit ParityUsageTable(int num_stabs)
        : used_(num_stabs, 0)
    {
    }

    bool used(int stab) const { return used_[stab] != 0; }
    int size() const { return (int)used_.size(); }

    void
    reset()
    {
        std::fill(used_.begin(), used_.end(), 0);
        lastUsed_.clear();
    }

    /**
     * Advance one round: parity qubits that took part in an LRC this
     * round are blocked for the next round (they are measured and
     * reset next round, clearing any accumulated leakage). Only the
     * previously set bits are cleared, so quiescent rounds cost O(1)
     * instead of a full-table wipe per lane per round.
     */
    void
    advanceRound(const std::vector<int> &stabs_used_this_round)
    {
        for (int s : lastUsed_)
            used_[s] = 0;
        lastUsed_.assign(stabs_used_this_round.begin(),
                         stabs_used_this_round.end());
        for (int s : lastUsed_)
            used_[s] = 1;
    }

  private:
    std::vector<uint8_t> used_;
    std::vector<int> lastUsed_;
};

/**
 * Word-parallel LTT: one lane-set plane per data qubit. The LSB marks
 * whole lane words at once; DLI clears the lanes it grants, a word at
 * a time (lookup walk) or a lane at a time (exact matching).
 */
template <typename Lane>
class BatchLeakageTrackingTable
{
  public:
    explicit BatchLeakageTrackingTable(int num_data)
        : marks_(num_data, Lane{})
    {
    }

    /** OR a lane set into qubit `data`'s mark plane. */
    void
    mark(int data, const Lane &lanes)
    {
        marks_[data] |= lanes;
    }

    /** Overwrite qubit `data`'s mark plane. */
    void
    assign(int data, const Lane &lanes)
    {
        marks_[data] = lanes;
    }

    bool
    marked(int data, int lane) const
    {
        return testLane(marks_[data], lane);
    }

    void
    clear(int data, int lane)
    {
        clearLane(marks_[data], lane);
    }

    /** Clear a lane set from qubit `data`'s mark plane. */
    void
    clear(int data, const Lane &lanes)
    {
        marks_[data] = andnot(marks_[data], lanes);
    }

    const Lane & word(int data) const { return marks_[data]; }
    int size() const { return (int)marks_.size(); }

    void
    reset()
    {
        std::fill(marks_.begin(), marks_.end(), Lane{});
    }

  private:
    std::vector<Lane> marks_;
};

/**
 * Word-parallel PUTT: one cooldown lane-set plane per stabilizer. The
 * round protocol mirrors ParityUsageTable::advanceRound lane by lane:
 * DLI consults the *current* planes while this round's allocations
 * accumulate in the *pending* planes; advanceRound() then retires the
 * current planes and promotes the pending ones. Only planes that
 * actually held bits are touched, so quiescent rounds cost O(active)
 * instead of a full-table wipe.
 */
template <typename Lane>
class BatchParityUsageTable
{
  public:
    explicit BatchParityUsageTable(int num_stabs)
        : used_(num_stabs, Lane{}), pending_(num_stabs, Lane{})
    {
        // Sized to their bound: rounds never grow them.
        usedStabs_.reserve(num_stabs);
        pendingStabs_.reserve(num_stabs);
    }

    bool
    used(int stab, int lane) const
    {
        return testLane(used_[stab], lane);
    }

    const Lane & word(int stab) const { return used_[stab]; }
    int size() const { return (int)used_.size(); }

    /** Record that `lanes` allocated `stab` this round (blocked next
     *  round). */
    void
    markPending(int stab, const Lane &lanes)
    {
        if (!anyLane(pending_[stab]))
            pendingStabs_.push_back(stab);
        pending_[stab] |= lanes;
    }

    /** Retire the current round's cooldowns and promote this round's
     *  allocations, for every lane at once. */
    void
    advanceRound()
    {
        for (int s : usedStabs_)
            used_[s] = Lane{};
        used_.swap(pending_);
        usedStabs_.swap(pendingStabs_);
        pendingStabs_.clear();
    }

    void
    reset()
    {
        std::fill(used_.begin(), used_.end(), Lane{});
        std::fill(pending_.begin(), pending_.end(), Lane{});
        usedStabs_.clear();
        pendingStabs_.clear();
    }

  private:
    std::vector<Lane> used_;
    std::vector<Lane> pending_;
    std::vector<int> usedStabs_;
    std::vector<int> pendingStabs_;
};

} // namespace qec

#endif // QEC_CORE_TRACKING_TABLES_H
