#include "defects.h"

#include "base/logging.h"

namespace qec
{

ShotOutcome
extractDefects(const RotatedSurfaceCode &code, Basis basis, int rounds,
               const std::vector<MeasureRecord> &record)
{
    const StabType type = protectingStabType(basis);
    const int n_s = code.numBasisStabilizers(basis);

    // m[s][r] flips for protected-basis stabilizers; final data flips.
    std::vector<uint8_t> mflip((size_t)n_s * rounds, 0);
    std::vector<uint8_t> data_flip(code.numData(), 0);

    for (const auto &rec : record) {
        if (rec.finalData) {
            data_flip[rec.qubit] ^= rec.flip ? 1 : 0;
            continue;
        }
        if (rec.stab < 0)
            continue;
        const auto &stab = code.stabilizer(rec.stab);
        if (stab.type != type)
            continue;
        panicIf(rec.round < 0 || rec.round >= rounds,
                "measurement round out of range");
        mflip[(size_t)rec.round * n_s + stab.basisIndex] ^=
            rec.flip ? 1 : 0;
    }

    ShotOutcome out;
    for (int s = 0; s < n_s; ++s) {
        uint8_t prev = 0;
        for (int r = 0; r < rounds; ++r) {
            const uint8_t cur = mflip[(size_t)r * n_s + s];
            if (cur ^ prev)
                out.defects.push_back(r * n_s + s);
            prev = cur;
        }
        // Final row: reconstruct the stabilizer from data measurements.
        const int stab_index = code.basisStabilizers(basis)[s];
        uint8_t recon = 0;
        for (int q : code.stabilizer(stab_index).support)
            recon ^= data_flip[q];
        if (recon ^ prev)
            out.defects.push_back(rounds * n_s + s);
    }

    for (int q : code.logicalSupport(basis))
        out.observableFlip ^= (data_flip[q] != 0);
    return out;
}

} // namespace qec
