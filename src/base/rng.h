/**
 * @file
 * Deterministic pseudo-random number generation for simulations.
 *
 * Uses xoshiro256** which is fast, has a 256-bit state, and passes the
 * usual statistical batteries. Every experiment shot owns an Rng seeded
 * from (experiment seed, shot index) so multi-threaded runs are exactly
 * reproducible regardless of scheduling.
 */

#ifndef QEC_BASE_RNG_H
#define QEC_BASE_RNG_H

#include <cstdint>

namespace qec
{

/**
 * xoshiro256** pseudo-random generator with convenience draws used by
 * the error model (Bernoulli trials, uniform ints, raw bits).
 */
class Rng
{
  public:
    /** Seed via splitmix64 so that nearby seeds give unrelated streams. */
    explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL);

    /** Derive an independent stream, e.g. per shot of an experiment. */
    static Rng forShot(uint64_t seed, uint64_t shot);

    /**
     * Derive an independent salted stream, unrelated to any forShot
     * stream of the same seed. The batch simulator uses this for its
     * word-group noise-mask stream, keeping per-lane forShot streams
     * free for lane-divergent draws.
     */
    static Rng forStream(uint64_t seed, uint64_t stream, uint64_t salt);

    /** Next raw 64-bit draw. Inline: the batch engine draws tens of
     *  millions of words per second and the call overhead was
     *  measurable. */
    uint64_t
    next()
    {
        const uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53-bit mantissa construction; uniform on [0, 1).
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /** True with probability p. */
    bool
    bernoulli(double p)
    {
        if (p <= 0.0)
            return false;
        if (p >= 1.0)
            return true;
        return uniform() < p;
    }

    /**
     * Uniform integer in [0, n). Requires n > 0. Multiply-shift bounded
     * draw (Lemire) with its rejection loop, so it is exact. Inline, so
     * a constant n folds the threshold (-n) % n; a draw whose low word
     * is at least n is accepted before the threshold is needed at all
     * (the threshold is below n), which leaves the accepted draws
     * unchanged.
     */
    uint32_t
    randint(uint32_t n)
    {
        while (true) {
            const __uint128_t m =
                static_cast<__uint128_t>(next()) * n;
            const uint64_t low = static_cast<uint64_t>(m);
            if (low >= n || low >= (-static_cast<uint64_t>(n)) % n)
                return static_cast<uint32_t>(m >> 64);
        }
    }

    /** Single uniform bit. */
    bool bit() { return (next() >> 63) != 0; }

  private:
    static uint64_t
    rotl(uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    uint64_t state_[4];
};

} // namespace qec

#endif // QEC_BASE_RNG_H
