/**
 * @file
 * Compile-only leftovers of the retired component and sliding-window
 * decode stages. Neither holds a value or does any work; each names
 * the perfbench line that still refers to it, and both go with
 * ROADMAP item 1, when perfbench's replay copy is deleted.
 */

#ifndef QEC_DECODER_COMPONENT_DECODER_H
#define QEC_DECODER_COMPONENT_DECODER_H

namespace qec
{

struct DetectorModel;

/** No settable value; perfbench/src/replay.cpp:481-483 copies
 *  `ExperimentConfig::componentDecode`, `windowLength` and
 *  `windowSlideLength` into `BatchDecodeOptions`. Removed with
 *  ROADMAP item 1. */
struct RetiredDecodeOption
{
};

/** Builds nothing; perfbench/src/replay.cpp:448 constructs one per
 *  point and replay.h:160 holds it. Removed with ROADMAP item 1. */
class ComponentGraph
{
  public:
    ComponentGraph(const DetectorModel &, double) {}
};

} // namespace qec

#endif // QEC_DECODER_COMPONENT_DECODER_H
