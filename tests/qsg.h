/**
 * @file
 * QEC Schedule Generator (Section 4.5): turns a round index plus the
 * LRC assignments chosen by a scheduling policy into the instruction
 * sequence for that round, under the selected removal protocol.
 */

#ifndef QEC_CORE_QSG_H
#define QEC_CORE_QSG_H

#include "code/rotated_surface_code.h"
#include "core/policies.h"
#include "memory_circuit.h"

namespace qec
{

class QecScheduleGenerator
{
  public:
    QecScheduleGenerator(const RotatedSurfaceCode &code,
                         RemovalProtocol protocol)
        : code_(code), protocol_(protocol)
    {
    }

    RemovalProtocol protocol() const { return protocol_; }

    /**
     * Generate round `round` with leakage removal for `pairs`.
     * SWAP LRCs are woven into the stabilizer readout; DQLR appends
     * its LeakageISWAP + reset segment after a plain round.
     */
    RoundSchedule
    generate(int round, const std::vector<LrcPair> &pairs) const
    {
        if (protocol_ == RemovalProtocol::SwapLrc)
            return buildRoundSchedule(code_, round, pairs);
        RoundSchedule sched = buildRoundSchedule(code_, round, {});
        auto tail = buildDqlrSegment(code_, pairs);
        sched.ops.insert(sched.ops.end(), tail.begin(), tail.end());
        return sched;
    }

  private:
    const RotatedSurfaceCode &code_;
    RemovalProtocol protocol_;
};

} // namespace qec

#endif // QEC_CORE_QSG_H
