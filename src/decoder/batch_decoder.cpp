#include "decoder/batch_decoder.h"

#include <algorithm>

#include "base/logging.h"

namespace qec
{

BatchDecoder::BatchDecoder(const Decoder &decoder,
                           SyndromeCacheOptions cache_options)
    : decoder_(decoder), cache_(cache_options)
{
}

BatchDecoder::BatchDecoder(const Decoder &decoder,
                           const BatchDecodeOptions &options,
                           std::shared_ptr<const ComponentGraph> graph)
    : decoder_(decoder), options_(options), graph_(std::move(graph)),
      cache_(options.cache)
{
    if (options_.windowLength > 0) {
        panicIf(!graph_, "sliding-window decode needs a "
                         "ComponentGraph for the row geometry");
        windowed_ = options_.windowLength < graph_->rows();
        panicIf(windowed_ &&
                    (options_.windowSlideLength < 1 ||
                     options_.windowSlideLength >
                         options_.windowLength),
                "windowSlideLength must be in [1, windowLength]");
    }
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
    verdict = decodeLane(defects, count);
    ++stats_.decoded;
    cache_.insert(hash, defects, count, verdict);
    return verdict;
}

bool
BatchDecoder::decodeLane(const int *defects, size_t count)
{
    if (windowed_)
        return decodeWindowed(defects, count);
    return decoder_.decodeSparse(defects, count, workspace_);
}

bool
BatchDecoder::decodeWindowed(const int *defects, size_t count)
{
    DecodeWorkspace &ws = workspace_;
    const int rows = graph_->rows();
    const int L = options_.windowLength;
    const int S = options_.windowSlideLength;
    const int span = graph_->maxRowSpan();
    const int bound = decoder_.windowCommitBound();

    // Cluster-complete streaming commits. Each window decodes every
    // not-yet-committed defect whose row the run has seen, then
    // commits whole grown clusters — never parts of one. A cluster
    // commits only when it is PROVABLY beyond the decoder's growth
    // bound `bound` from (a) every row the run has not seen yet and
    // (b) every defect of a cluster that is itself deferred: any
    // unseen or deferred defect's full-history cluster stays inside
    // ball(defect, bound), so a committed cluster's region can never
    // share an edge with it, the full-history decode evolves as the
    // disjoint union, and the committed cluster (and its observable
    // parity) is exactly a full-history cluster. Everything else is
    // deferred — regathered into the next window — and the final
    // window commits unconditionally (nothing is unseen).
    //
    // decodeSparse is a pure function of the defect SEQUENCE (growth
    // seeds its layer-1 active list in input order), so each window's
    // input is built as a SUBSEQUENCE of the caller's list, in the
    // caller's order: any subset's relative order is then identical
    // to the full-history call, which (with the disjointness
    // certificates) makes a committed cluster's evolution — grown
    // edges, peel forest, observable parity — exactly the one the
    // full-history decode runs, and makes a no-commit run's final
    // window the full-history call verbatim. Verdicts are therefore
    // bit-identical to the full-history decode for every defect set
    // and every (L, S); window sizing only trades deferral rate
    // against peak decoder state.
    // No certified growth bound (MWPM): no cluster can ever commit
    // early and the final window would decode the caller's list
    // verbatim — do exactly that, without asking the decoder for a
    // cluster export it does not implement.
    if (bound < 0) {
        ++stats_.windows;
        ++stats_.windowCommits;
        return decoder_.decodeSparse(defects, count, ws);
    }

    winDone_.assign(count, 0);
    bool verdict = false;
    int prev_end = 0;
    for (int w0 = 0; prev_end < rows; w0 += S) {
        const int w_end = std::min(w0 + L, rows);
        const bool final_window = w_end >= rows;

        // Uncommitted defects in seen rows, in caller order.
        winDefects_.clear();
        for (size_t k = 0; k < count; ++k) {
            if (!winDone_[k] &&
                graph_->rowOf(defects[k]) < w_end)
                winDefects_.push_back(defects[k]);
        }
        prev_end = w_end;
        if (winDefects_.empty())
            continue;

        ws.recordClusters = true;
        decoder_.decodeSparse(winDefects_.data(), winDefects_.size(),
                              ws);
        ws.recordClusters = false;
        ++stats_.windows;
        if ((uint64_t)winDefects_.size() > stats_.windowPeakDefects)
            stats_.windowPeakDefects = (uint64_t)winDefects_.size();
        const int m = (int)ws.clusters.size();

        // Separation needed between a committed cluster's defects and
        // any other defect: both sides' full-history regions live in
        // radius-`bound` balls around their own defects, and two such
        // balls share no edge once the defect sets are more than
        // 2*bound + 1 hops apart (ball-vs-ball, not point-vs-ball).
        const int sep = 2 * bound + 1;
        winCommit_.assign((size_t)m, 1);
        if (!final_window) {
            // (a) Unseen-row separation: rows >= w_end are unseen, so
            // commit needs ceil((w_end - maxRow) / span) > sep.
            for (int c = 0; c < m; ++c) {
                const int max_row =
                    graph_->rowOf(ws.clusters[(size_t)c].maxVertex);
                if (w_end - max_row <= sep * span)
                    winCommit_[(size_t)c] = 0;
            }
            // (b) Deferred-defect separation, to a fixpoint: demote a
            // candidate when some deferred defect is not provably >
            // sep hops from its region (region extents give the exact
            // row-gap bound; the per-defect-pair bound covers the
            // space axis).
            bool changed = true;
            while (changed) {
                changed = false;
                for (size_t i = 0; i < winDefects_.size(); ++i) {
                    for (size_t j = 0; j < winDefects_.size(); ++j) {
                        const int ci = ws.clusterOf[winDefects_[i]];
                        const int cj = ws.clusterOf[winDefects_[j]];
                        if (!winCommit_[(size_t)ci] ||
                            winCommit_[(size_t)cj])
                            continue;
                        const auto &k = ws.clusters[(size_t)ci];
                        const int row_j =
                            graph_->rowOf(winDefects_[j]);
                        const int gap = std::max(
                            {graph_->rowOf(k.minVertex) - row_j,
                             row_j - graph_->rowOf(k.maxVertex), 0});
                        const int lb = std::max(
                            (gap + span - 1) / span,
                            graph_->defectDistanceLowerBound(
                                winDefects_[i], winDefects_[j]));
                        if (lb <= sep) {
                            winCommit_[(size_t)ci] = 0;
                            changed = true;
                        }
                    }
                }
            }
        }

        for (int c = 0; c < m; ++c) {
            if (winCommit_[(size_t)c]) {
                verdict ^= ws.clusters[(size_t)c].obsParity != 0;
                ++stats_.windowCommits;
            } else {
                ++stats_.windowDeferrals;
            }
        }
        for (size_t k = 0; k < count; ++k) {
            if (!winDone_[k] &&
                graph_->rowOf(defects[k]) < w_end &&
                winCommit_[(size_t)ws.clusterOf[defects[k]]])
                winDone_[k] = 1;
        }
        if (final_window)
            break;
    }
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
