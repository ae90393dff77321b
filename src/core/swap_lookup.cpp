#include "core/swap_lookup.h"

#include "base/logging.h"

namespace qec
{

std::vector<int>
maxBipartiteMatching(int num_left,
                     const std::vector<std::vector<int>> &adjacency,
                     int num_right)
{
    BipartiteMatcher matcher;
    matcher.begin(num_left, num_right);
    const auto neighbors = [&adjacency](int l)
        -> const std::vector<int> & { return adjacency[l]; };
    std::vector<int> match_left(num_left);
    for (int l = 0; l < num_left; ++l)
        matcher.augment(l, neighbors);
    for (int l = 0; l < num_left; ++l)
        match_left[l] = matcher.rightOf(l);
    return match_left;
}

SwapLookupTable::SwapLookupTable(const RotatedSurfaceCode &code,
                                 int backup_limit)
{
    const int n_data = code.numData();
    BipartiteMatcher matcher;
    matcher.begin(n_data, code.numStabilizers());
    for (int q = 0; q < n_data; ++q)
        matcher.augment(q, stabilizersOfDataFn(code));

    entries_.resize(n_data);
    for (int q = 0; q < n_data; ++q) {
        SwapEntry &entry = entries_[q];
        const int match = matcher.rightOf(q);
        if (match != -1) {
            entry.primary = match;
            pairs_.push_back({q, match});
        } else {
            panicIf(unmatched_ != -1,
                    "matching must leave exactly one data qubit over");
            unmatched_ = q;
            entry.primary = code.stabilizersOfData(q).front();
        }
        for (int s : code.stabilizersOfData(q)) {
            if (s == entry.primary)
                continue;
            if ((int)entry.backups.size() < backup_limit)
                entry.backups.push_back(s);
        }
    }
    panicIf((int)pairs_.size() != code.numStabilizers(),
            "primary matching must cover every parity qubit");
    panicIf(unmatched_ == -1,
            "d^2 data and d^2-1 parity qubits imply one unmatched");
}

} // namespace qec
