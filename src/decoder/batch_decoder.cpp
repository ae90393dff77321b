#include "decoder/batch_decoder.h"

#include "base/logging.h"

namespace qec
{

BatchDecoder::BatchDecoder(const Decoder &decoder,
                           SyndromeCacheOptions cache_options)
    : decoder_(decoder), cache_(cache_options)
{
}

bool
BatchDecoder::decodeCached(uint64_t hash, const int *defects,
                           size_t count)
{
    bool verdict = false;
    if (cache_.lookup(hash, defects, count, verdict)) {
        ++stats_.cacheHits;
        return verdict;
    }
    verdict = decoder_.decodeSparse(defects, count, workspace_);
    ++stats_.decoded;
    cache_.insert(hash, defects, count, verdict);
    return verdict;
}

void
BatchDecoder::decodeBatch(const BatchSyndrome &batch,
                          uint64_t *predictions)
{
    for (int b = 0; b < batch.numWords; ++b)
        predictions[b] = 0;
    stats_.shots += (uint64_t)batch.numLanes;
    // Zero-defect lanes predict "no flip" without touching the
    // decoder; scan only the nonzero lanes.
    for (int b = 0; b < batch.numWords; ++b) {
        uint64_t nonzero =
            batch.nonzeroWords[b] & laneMask64(batch.numLanes - 64 * b);
        const int base = 64 * b;
        while (nonzero) {
            const int l = base + __builtin_ctzll(nonzero);
            nonzero &= nonzero - 1;
            if (decodeCached(batch.laneHash[l], batch.laneBegin(l),
                             batch.laneSize(l)))
                predictions[b] |= uint64_t{1} << (l - base);
        }
    }
    uint64_t nonzero_total = 0;
    for (int b = 0; b < batch.numWords; ++b)
        nonzero_total += (uint64_t)__builtin_popcountll(
            batch.nonzeroWords[b]);
    stats_.zeroDefect += (uint64_t)batch.numLanes - nonzero_total;
}

uint64_t
BatchDecoder::decodeBatch(const BatchSyndrome &batch)
{
    panicIf(batch.numLanes > 64,
            "single-word decodeBatch needs the word-array overload "
            "for groups wider than 64 lanes");
    uint64_t predictions[kMaxBatchWords] = {0};
    decodeBatch(batch, predictions);
    return predictions[0];
}

bool
BatchDecoder::decodeOne(const int *defects, size_t count)
{
    ++stats_.shots;
    if (count == 0) {
        ++stats_.zeroDefect;
        return false;
    }
    return decodeCached(syndromeHash(defects, count), defects, count);
}

} // namespace qec
