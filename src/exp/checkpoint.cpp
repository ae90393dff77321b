#include "exp/checkpoint.h"

#include <cstring>

#include "base/atomic_file.h"
#include "base/fault_injection.h"

namespace qec
{

namespace
{

constexpr char kMagic[8] = {'q', 'e', 'c', '.', 'c', 'k', 'p', 't'};
constexpr uint32_t kVersion = 1;

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

inline uint64_t
chain(uint64_t h, uint64_t field)
{
    return splitmixStep(h ^ field);
}

inline uint64_t
doubleBits(double v)
{
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    return bits;
}

// --------------------------------------------------- payload writer

void
putU32(std::string &out, uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        out.push_back((char)((v >> (8 * i)) & 0xff));
}

void
putU64(std::string &out, uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back((char)((v >> (8 * i)) & 0xff));
}

void
putF64(std::string &out, double v)
{
    putU64(out, doubleBits(v));
}

void
putBool(std::string &out, bool v)
{
    out.push_back(v ? 1 : 0);
}

void
putString(std::string &out, const std::string &s)
{
    putU64(out, s.size());
    out.append(s);
}

void
putF64Vector(std::string &out, const std::vector<double> &v)
{
    putU64(out, v.size());
    for (double x : v)
        putF64(out, x);
}

// --------------------------------------------------- payload reader

/**
 * Bounds-checked cursor over the payload. Every read checks the
 * remaining length first and latches failure, so a truncated or
 * garbage payload can never read out of bounds or allocate absurd
 * vectors — it just turns into one DataLoss at the end.
 */
class Reader
{
  public:
    explicit Reader(const std::string &bytes)
        : data_(bytes.data()), size_(bytes.size())
    {
    }

    bool
    ok() const
    {
        return ok_;
    }

    bool
    atEnd() const
    {
        return pos_ == size_;
    }

    uint32_t
    u32()
    {
        if (!take(4))
            return 0;
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= (uint32_t)(uint8_t)data_[pos_ - 4 + i] << (8 * i);
        return v;
    }

    uint64_t
    u64()
    {
        if (!take(8))
            return 0;
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= (uint64_t)(uint8_t)data_[pos_ - 8 + i] << (8 * i);
        return v;
    }

    double
    f64()
    {
        uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    bool
    boolean()
    {
        if (!take(1))
            return false;
        return data_[pos_ - 1] != 0;
    }

    std::string
    string()
    {
        uint64_t n = u64();
        if (!take(n))
            return std::string();
        return std::string(data_ + pos_ - n, (size_t)n);
    }

    std::vector<double>
    f64Vector()
    {
        uint64_t n = u64();
        // Each element needs 8 payload bytes; reject counts that the
        // remaining buffer cannot possibly hold before reserving.
        if (!ok_ || n > (size_ - pos_) / 8) {
            ok_ = false;
            return {};
        }
        std::vector<double> v;
        v.reserve((size_t)n);
        for (uint64_t i = 0; i < n; ++i)
            v.push_back(f64());
        return v;
    }

  private:
    bool
    take(uint64_t n)
    {
        if (!ok_ || n > size_ - pos_) {
            ok_ = false;
            return false;
        }
        pos_ += (size_t)n;
        return true;
    }

    const char *data_;
    size_t size_;
    size_t pos_ = 0;
    bool ok_ = true;
};

// ----------------------------------- ExperimentResult serialization

void
putResult(std::string &out, const ExperimentResult &r)
{
    putString(out, r.policy);
    putU64(out, r.shots);
    putU64(out, r.logicalErrors);
    putU64(out, r.tp);
    putU64(out, r.fp);
    putU64(out, r.tn);
    putU64(out, r.fn);
    putU64(out, r.lrcsScheduled);
    putU64(out, r.roundsTotal);
    putU64(out, r.decodedShots);
    putU64(out, r.zeroDefectShots);
    putU64(out, r.syndromeCacheHits);
    // Legacy slots: the four counters of the retired component
    // stage. Always 0, kept so the qec.ckpt.v1 layout is unchanged.
    for (int k = 0; k < 4; ++k)
        putU64(out, 0);
    putU64(out, r.windowsDecoded);
    putU64(out, r.verdictFingerprint);
    putU32(out, (uint32_t)r.numDataQubits);
    putU32(out, (uint32_t)r.numParityQubits);
    putF64Vector(out, r.lprDataSum);
    putF64Vector(out, r.lprParitySum);
}

ExperimentResult
readResult(Reader &in)
{
    ExperimentResult r;
    r.policy = in.string();
    r.shots = in.u64();
    r.logicalErrors = in.u64();
    r.tp = in.u64();
    r.fp = in.u64();
    r.tn = in.u64();
    r.fn = in.u64();
    r.lrcsScheduled = in.u64();
    r.roundsTotal = in.u64();
    r.decodedShots = in.u64();
    r.zeroDefectShots = in.u64();
    r.syndromeCacheHits = in.u64();
    for (int k = 0; k < 4; ++k)
        (void)in.u64();   // legacy component-stage slots
    r.windowsDecoded = in.u64();
    r.verdictFingerprint = in.u64();
    r.numDataQubits = (int)in.u32();
    r.numParityQubits = (int)in.u32();
    r.lprDataSum = in.f64Vector();
    r.lprParitySum = in.f64Vector();
    return r;
}

} // namespace

// ----------------------------------------------------- fingerprint

// The field order is part of the artifact contract, like
// sweepPointSeed's: append new fields at the end, never reorder.
uint64_t
SweepCheckpoint::fingerprintPlan(const SweepPlan &plan,
                                 const std::vector<SweepPoint> &points,
                                 uint64_t noise_contract)
{
    uint64_t h = 0x7165632e636b7074ull; // "qec.ckpt"
    h = chain(h, points.size());
    for (const SweepPoint &point : points) {
        h = chain(h, point.seed);
        h = chain(h, point.shots);
        h = chain(h, (uint64_t)point.distance);
        h = chain(h, (uint64_t)point.rounds);
        h = chain(h, (uint64_t)point.config.basis);
        h = chain(h, (uint64_t)point.protocol);
        h = chain(h, (uint64_t)point.decoderKind);
        h = chain(h, point.batchWidth);
        h = chain(h, doubleBits(point.p));
        h = chain(h, point.config.decode ? 1 : 0);
        h = chain(h, point.config.trackLpr ? 1 : 0);
        h = chain(h, point.config.batchDecode ? 1 : 0);
        h = chain(h, (uint64_t)point.config.windowLength);
        h = chain(h, (uint64_t)point.config.windowSlideLength);
    }
    h = chain(h, plan.policies.size());
    for (const SweepPolicy &policy : plan.policies) {
        // Resolve under the base protocol: per-point protocol is
        // already fingerprinted above, and the *set* of policies is
        // what identifies the result columns.
        const std::string name = policy.displayName(plan.base.protocol);
        uint64_t nh = name.size();
        for (char c : name)
            nh = chain(nh, (uint8_t)c);
        h = chain(h, nh);
    }
    h = chain(h, doubleBits(plan.earlyStop.targetRelPrecision));
    h = chain(h, doubleBits(plan.earlyStop.z));
    h = chain(h, plan.earlyStop.minErrors);
    h = chain(h, plan.earlyStop.maxShots);
    h = chain(h, plan.earlyStop.checkEvery);
    h = chain(h, noise_contract);
    return h;
}

// --------------------------------------------------- serialization

std::string
SweepCheckpoint::serialize() const
{
    std::string payload;
    putU64(payload, planFingerprint);
    putU64(payload, points.size());
    for (const auto &entry : points) {
        const PointCheckpoint &point = entry.second;
        putU64(payload, point.pointIndex);
        putU64(payload, point.seed);
        putBool(payload, point.finished);
        putU64(payload, point.policies.size());
        for (const PolicyCheckpoint &policy : point.policies) {
            putBool(payload, policy.finished);
            putBool(payload, policy.stoppedEarly);
            putBool(payload, policy.truncated);
            putBool(payload, policy.progress.stopped);
            putF64(payload, policy.seconds);
            putU64(payload, policy.progress.nextSpan);
            // Legacy slot: the cursor of the retired per-shot engine.
            // Always 0, kept so the qec.ckpt.v1 layout is unchanged.
            putU64(payload, 0);
            putResult(payload, policy.progress.total);
        }
    }

    std::string out;
    out.append(kMagic, sizeof(kMagic));
    putU32(out, kVersion);
    putU32(out, crc32(payload.data(), payload.size()));
    putU64(out, payload.size());
    out.append(payload);
    return out;
}

StatusOr<SweepCheckpoint>
SweepCheckpoint::deserialize(const std::string &bytes)
{
    constexpr size_t kHeaderSize = sizeof(kMagic) + 4 + 4 + 8;
    if (bytes.size() < kHeaderSize)
        return dataLossError(
            "checkpoint is truncated (shorter than its header)");
    if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
        return dataLossError("checkpoint has a bad magic number "
                             "(not a qec.ckpt artifact)");

    const auto headerU32 = [&](size_t offset) {
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= (uint32_t)(uint8_t)bytes[offset + i] << (8 * i);
        return v;
    };
    const auto headerU64 = [&](size_t offset) {
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= (uint64_t)(uint8_t)bytes[offset + i] << (8 * i);
        return v;
    };
    const uint32_t version = headerU32(sizeof(kMagic));
    if (version != kVersion)
        return dataLossError(
            "checkpoint version " + std::to_string(version) +
            " is not supported (expected " +
            std::to_string(kVersion) + ")");
    const uint32_t stored_crc = headerU32(sizeof(kMagic) + 4);
    const uint64_t payload_len = headerU64(sizeof(kMagic) + 8);
    if (payload_len != bytes.size() - kHeaderSize)
        return dataLossError(
            "checkpoint payload length mismatch (file is torn or "
            "truncated)");
    const char *payload = bytes.data() + kHeaderSize;
    if (crc32(payload, (size_t)payload_len) != stored_crc)
        return dataLossError(
            "checkpoint CRC mismatch (file is corrupt)");

    const std::string payload_bytes(payload, (size_t)payload_len);
    Reader body(payload_bytes);
    SweepCheckpoint ckpt;
    ckpt.planFingerprint = body.u64();
    const uint64_t num_points = body.u64();
    for (uint64_t i = 0; i < num_points && body.ok(); ++i) {
        PointCheckpoint point;
        point.pointIndex = body.u64();
        point.seed = body.u64();
        point.finished = body.boolean();
        const uint64_t num_policies = body.u64();
        // A policy record is >= 36 bytes; reject impossible counts
        // before reserving.
        if (num_policies > payload_len / 36)
            return dataLossError(
                "checkpoint policy count is implausible (corrupt "
                "payload)");
        point.policies.reserve((size_t)num_policies);
        for (uint64_t j = 0; j < num_policies && body.ok(); ++j) {
            PolicyCheckpoint policy;
            policy.finished = body.boolean();
            policy.stoppedEarly = body.boolean();
            policy.truncated = body.boolean();
            policy.progress.stopped = body.boolean();
            policy.seconds = body.f64();
            policy.progress.nextSpan = body.u64();
            const uint64_t scalar_next = body.u64();
            if (body.ok() && scalar_next != 0)
                return dataLossError(
                    "checkpoint holds progress of the retired scalar "
                    "per-shot path (legacy cursor " +
                    std::to_string(scalar_next) +
                    "); it cannot resume on the batch engine");
            policy.progress.total = readResult(body);
            point.policies.push_back(std::move(policy));
        }
        const uint64_t index = point.pointIndex;
        if (ckpt.points.count(index))
            return dataLossError(
                "checkpoint contains duplicate point records");
        ckpt.points.emplace(index, std::move(point));
    }
    if (!body.ok() || !body.atEnd())
        return dataLossError(
            "checkpoint payload is malformed (CRC-valid but "
            "structurally inconsistent)");
    return ckpt;
}

Status
SweepCheckpoint::save(const std::string &path) const
{
    if (QEC_FAULT_POINT("checkpoint.save"))
        return unavailableError(
            "injected fault: checkpoint.save");
    const std::string bytes = serialize();
    return writeFileAtomic(path, bytes.data(), bytes.size());
}

StatusOr<SweepCheckpoint>
SweepCheckpoint::load(const std::string &path)
{
    std::string bytes;
    Status st = readFile(path, bytes);
    if (!st.isOk())
        return st;
    return deserialize(bytes);
}

} // namespace qec
