/**
 * @file
 * Decoder interface. The paper evaluates with MWPM ("the gold
 * standard") but notes any decoder works; the harness accepts any
 * implementation of this interface so decoders can be compared under
 * identical leakage conditions.
 *
 * Decoders expose two entry points:
 *
 *  - decodeSparse(defects, count, workspace): the hot path. Consumes a
 *    sparse fired-detector list and a caller-owned DecodeWorkspace;
 *    implementations reuse the workspace's arrays so steady-state
 *    decoding performs no heap allocation and per-shot cost scales
 *    with the defect count.
 *  - decode(defects): convenience wrapper for one-off calls. Builds a
 *    throwaway workspace, so it stays thread-safe (no shared mutable
 *    state) at the price of per-call allocation.
 */

#ifndef QEC_DECODER_DECODER_BASE_H
#define QEC_DECODER_DECODER_BASE_H

#include <cstddef>
#include <vector>

#include "decoder/decode_workspace.h"

namespace qec
{

class Decoder
{
  public:
    virtual ~Decoder() = default;

    /**
     * Decode one shot, reusing caller-owned scratch state.
     * @param defects   Fired detector ids (no duplicates).
     * @param count     Number of fired detectors.
     * @param workspace Per-thread scratch, reused across calls.
     * @return Predicted logical-observable flip.
     */
    virtual bool decodeSparse(const int *defects, size_t count,
                              DecodeWorkspace &workspace) const = 0;

    /** No library caller; perfbench/src/replay.h:113 overrides it.
     *  Removed with ROADMAP item 1. */
    virtual int
    componentSlackHops(const int *defects, size_t count) const
    {
        (void)defects;
        (void)count;
        return -1;
    }

    /** No library caller; perfbench/src/replay.h:119 overrides it.
     *  Removed with ROADMAP item 1. */
    virtual int
    windowCommitBound() const
    {
        return -1;
    }

    /**
     * Decode one shot with a throwaway workspace. Thread-safe;
     * allocates, so hot loops should hold a workspace and call
     * decodeSparse instead.
     */
    bool
    decode(const std::vector<int> &defects) const
    {
        DecodeWorkspace workspace;
        return decodeSparse(defects.data(), defects.size(), workspace);
    }
};

} // namespace qec

#endif // QEC_DECODER_DECODER_BASE_H
