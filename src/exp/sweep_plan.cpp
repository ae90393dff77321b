#include "exp/sweep_plan.h"

#include <cstring>

namespace qec
{

namespace
{

inline uint64_t
splitmixStep(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

/** Chain one field into the running hash. */
inline uint64_t
chain(uint64_t h, uint64_t field)
{
    return splitmixStep(h ^ field);
}

inline uint64_t
doubleBits(double v)
{
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v), "double is 64-bit");
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

} // namespace

std::string
SweepPolicy::displayName(RemovalProtocol protocol) const
{
    if (!name.empty())
        return name;
    return policyKindName(kind,
                          protocol == RemovalProtocol::Dqlr);
}

// The field order below is part of the seed contract (see header):
// append new physics fields at the end if the model ever grows, and
// never reorder or remove entries.
uint64_t
sweepPointSeed(int distance, int rounds, Basis basis,
               RemovalProtocol protocol, const ErrorModel &em,
               CircuitFamily family)
{
    // Domain tag so seeds can never collide with hand-picked small
    // integers or with other derivation schemes.
    uint64_t h = 0x7165632e73776565ull; // "qec.swee"
    h = chain(h, (uint64_t)distance);
    h = chain(h, (uint64_t)rounds);
    h = chain(h, (uint64_t)basis);
    h = chain(h, (uint64_t)protocol);
    h = chain(h, doubleBits(em.p));
    h = chain(h, em.leakageEnabled ? 1 : 0);
    h = chain(h, doubleBits(em.leakFraction));
    h = chain(h, doubleBits(em.seepFraction));
    h = chain(h, doubleBits(em.pTransport));
    h = chain(h, doubleBits(em.multiLevelErrMult));
    h = chain(h, doubleBits(em.dqlrExciteProb));
    h = chain(h, (uint64_t)em.transport);
    // The family link is conditional by contract (see header):
    // surface points never chain it, so pre-family seeds hold.
    if (family != CircuitFamily::SurfaceMemory)
        h = chain(h, (uint64_t)family);
    return h;
}

Status
SweepPlan::validate() const
{
    if (distances.empty() || ps.empty() || rounds.empty())
        return invalidArgument("sweep plan has an empty axis");
    if (policies.empty())
        return invalidArgument("sweep plan has no policies");
    for (const SweepPoint &point : points()) {
        Status st = RotatedSurfaceCode::validateDistance(
            point.distance);
        if (st.isOk() && point.shots == 0)
            st = invalidArgument("shot count is 0");
        if (st.isOk())
            st = validateExperimentConfig(point.config);
        for (size_t i = 0; st.isOk() && i < policies.size(); ++i)
            if (!policies[i].custom)
                st = validateExperimentConfig(point.config,
                                              policies[i].kind);
        if (!st.isOk())
            return Status(st.code(),
                          "point " + std::to_string(point.index) +
                              " (d=" + std::to_string(point.distance) +
                              "): " + st.message());
    }
    return okStatus();
}

std::vector<SweepPoint>
SweepPlan::points() const
{
    const std::vector<RemovalProtocol> protocol_axis =
        protocols.empty()
            ? std::vector<RemovalProtocol>{base.protocol}
            : protocols;
    const std::vector<DecoderKind> decoder_axis =
        decoders.empty() ? std::vector<DecoderKind>{base.decoderKind}
                         : decoders;
    const std::vector<unsigned> width_axis =
        widths.empty() ? std::vector<unsigned>{base.batchWidth}
                       : widths;

    std::vector<SweepPoint> out;
    out.reserve(ps.size() * protocol_axis.size() *
                decoder_axis.size() * width_axis.size() *
                rounds.size() * distances.size());
    for (double p : ps) {
        for (RemovalProtocol protocol : protocol_axis) {
            for (DecoderKind decoder : decoder_axis) {
                for (unsigned width : width_axis) {
                    for (const SweepRounds &r : rounds) {
                        for (int d : distances) {
                            SweepPoint point;
                            point.index = out.size();
                            point.distance = d;
                            point.p = p;
                            point.rounds = r.resolve(d);
                            point.protocol = protocol;
                            point.decoderKind = decoder;
                            point.batchWidth = width;
                            point.shots = shotsFor
                                ? shotsFor(d, p) : base.shots;

                            ExperimentConfig cfg = base;
                            cfg.rounds = point.rounds;
                            cfg.em.p = p;
                            cfg.protocol = protocol;
                            cfg.decoderKind = decoder;
                            cfg.batchWidth = width;
                            cfg.shots = point.shots;
                            cfg.seed = fixedSeed
                                ? *fixedSeed
                                : sweepPointSeed(d, point.rounds,
                                                 cfg.basis, protocol,
                                                 cfg.em, cfg.family);
                            point.seed = cfg.seed;
                            point.config = cfg;
                            out.push_back(std::move(point));
                        }
                    }
                }
            }
        }
    }
    return out;
}

const char *
protocolName(RemovalProtocol protocol)
{
    return protocol == RemovalProtocol::Dqlr ? "dqlr" : "swap";
}

const char *
decoderKindName(DecoderKind kind)
{
    return kind == DecoderKind::UnionFind ? "union_find" : "mwpm";
}

} // namespace qec
