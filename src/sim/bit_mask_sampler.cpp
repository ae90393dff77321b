#include "sim/bit_mask_sampler.h"

#include <cmath>

#include "base/simd_word.h"

namespace qec
{

uint64_t
bernoulliGeometricGap(Rng &rng, double log1mp)
{
    // Number of failures before the next success of a Bernoulli(p)
    // stream: floor(log(U) / log(1-p)) with U uniform on (0, 1].
    double u = (double)(rng.next() >> 11) * 0x1.0p-53;
    if (u <= 0.0)
        u = 0x1.0p-53;
    const double gap = std::log(u) / log1mp;
    // Clamp: a gap beyond any realistic trial horizon means "never".
    if (gap >= 0x1.0p62)
        return uint64_t{1} << 62;
    return (uint64_t)gap;
}

uint64_t
bernoulliDenseMask(Rng &rng, double p, int nlanes)
{
    // Lane-parallel evaluation of U < p by comparing binary digits of
    // each lane's uniform U against the digits of p, most significant
    // first. `eq` holds lanes whose digits so far equal p's prefix.
    uint64_t lt = 0;
    uint64_t eq = laneMask64(nlanes);
    double frac = p;
    for (int i = 0; i < 64 && eq != 0; ++i) {
        frac *= 2.0;
        const bool digit = frac >= 1.0;
        if (digit)
            frac -= 1.0;
        const uint64_t w = rng.next();
        if (digit) {
            lt |= eq & ~w;
            eq &= w;
        } else {
            eq &= ~w;
        }
        if (frac <= 0.0)
            break;
    }
    // Exhausted digits with lanes still equal: U == p exactly, not
    // less-than; those lanes stay clear.
    return lt;
}

} // namespace qec
