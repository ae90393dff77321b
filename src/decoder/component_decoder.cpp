#include "decoder/component_decoder.h"

#include <algorithm>
#include <cstdlib>
#include <utility>

namespace qec
{

ComponentGraph::ComponentGraph(const DetectorModel &dem, double p)
    : stabsPerRound_(std::max(dem.stabsPerRound, 1)),
      rows_(dem.rounds + 1)
{
    EdgePricer price(p);

    // Project every positive-probability detector-detector edge (the
    // decoders' graphs minus the boundary edges) onto its stab pair:
    // same-stab edges become self-loops and vanish. Every round
    // repeats the same few pairs, so they are deduplicated before the
    // BFS walks them.
    std::vector<std::pair<int, int>> stab_edges;
    for (const auto &edge : dem.edges) {
        if (price(edge).q <= 0.0 || edge.b == kBoundary)
            continue;
        maxRowSpan_ = std::max(
            maxRowSpan_, std::abs(dem.detectorRound(edge.a) -
                                  dem.detectorRound(edge.b)));
        const int sa = dem.detectorStab(edge.a);
        const int sb = dem.detectorStab(edge.b);
        if (sa != sb)
            stab_edges.push_back({std::min(sa, sb), std::max(sa, sb)});
    }
    std::sort(stab_edges.begin(), stab_edges.end());
    stab_edges.erase(std::unique(stab_edges.begin(), stab_edges.end()),
                     stab_edges.end());

    // All-pairs distance table of the stab QUOTIENT graph. dist(u, v)
    // >= qdist(stab(u), stab(v)) exactly — see the header's morphism
    // argument — and the table is tiny (stabsPerRound^2 bytes), so
    // the window stage reads exact spatial bounds with one L1 load
    // per pair.
    const int nstabs = stabsPerRound_;
    if ((size_t)nstabs * (size_t)nstabs > (size_t)(16u << 20))
        return;
    std::vector<int> stabAdjOff((size_t)nstabs + 1, 0);
    for (const auto &e : stab_edges) {
        ++stabAdjOff[(size_t)e.first + 1];
        ++stabAdjOff[(size_t)e.second + 1];
    }
    for (int s = 0; s < nstabs; ++s)
        stabAdjOff[(size_t)s + 1] += stabAdjOff[s];
    std::vector<int> stabAdj(2 * stab_edges.size());
    std::vector<int> cur(stabAdjOff.begin(), stabAdjOff.end() - 1);
    for (const auto &e : stab_edges) {
        stabAdj[(size_t)cur[e.first]++] = e.second;
        stabAdj[(size_t)cur[e.second]++] = e.first;
    }

    qdist_.assign((size_t)nstabs * (size_t)nstabs, 0xff);
    std::vector<int> queue;
    queue.reserve((size_t)nstabs);
    for (int src = 0; src < nstabs; ++src) {
        uint8_t *row = qdist_.data() + (size_t)src * nstabs;
        queue.clear();
        row[src] = 0;
        queue.push_back(src);
        for (size_t head = 0; head < queue.size(); ++head) {
            const int u = queue[head];
            // Saturate at 0xfe (a valid lower bound) so 0xff keeps
            // meaning "provably disconnected".
            const uint8_t nd =
                row[u] >= 0xfe ? 0xfe : (uint8_t)(row[u] + 1);
            for (int e = stabAdjOff[u]; e < stabAdjOff[(size_t)u + 1];
                 ++e) {
                const int w = stabAdj[e];
                if (row[w] != 0xff)
                    continue;
                row[w] = nd;
                queue.push_back(w);
            }
        }
    }
}

} // namespace qec
