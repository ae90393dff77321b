#include "base/rng.h"

namespace qec
{

namespace
{

/** splitmix64 step, used only to expand seeds into full states. */
uint64_t
splitmix64(uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ULL;
    uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(uint64_t seed)
{
    uint64_t sm = seed;
    for (auto &word : state_)
        word = splitmix64(sm);
}

Rng
Rng::forShot(uint64_t seed, uint64_t shot)
{
    // Mix the shot index through splitmix64 so that consecutive shots do
    // not share low-entropy state words.
    uint64_t sm = seed ^ (0x9e3779b97f4a7c15ULL * (shot + 1));
    return Rng(splitmix64(sm));
}

Rng
Rng::forStream(uint64_t seed, uint64_t stream, uint64_t salt)
{
    uint64_t sm = salt;
    const uint64_t salted = seed ^ splitmix64(sm);
    return forShot(salted, stream);
}

} // namespace qec
