/**
 * @file
 * Checked-in verdict corpus: tests/golden/mwpm_verdicts.json pins the
 * verdict fingerprint, logical-error count, speculation counters
 * (tp/fp/tn/fn), LRC count and a hash of the per-round leakage
 * population sums of surface d in {3,5,7} x {SwapLrc, Dqlr} x {Z, X}
 * x five policies x {MWPM, UF} x W in {64, 256}. The UF rows are
 * controls: a decoder change may move only the MWPM verdict fields,
 * while the LPR hash moves only with the simulated noise.
 *
 * Run `test_golden --regen` to rewrite the file from the current
 * build; a PR that does so declares the re-baseline in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "code/rotated_surface_code.h"
#include "exp/memory_experiment.h"

namespace qec
{
namespace
{

bool gRegen = false;

const char *const kGoldenPath = QEC_TESTS_DIR "/golden/mwpm_verdicts.json";

constexpr uint64_t kShots = 577;   ///< Ragged: 9 full blocks + 1 lane.
constexpr double kP = 2e-3;

/** splitmix64 chain over the bit patterns of the per-round data and
 *  parity LPR sums: pins the leakage trajectory, not just verdicts. */
uint64_t
lprHash(const ExperimentResult &r)
{
    uint64_t h = r.lprDataSum.size();
    const auto mix = [&h](double v) {
        uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        h = (h ^ bits) + 0x9e3779b97f4a7c15ull;
        h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
        h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
        h ^= h >> 31;
    };
    for (size_t i = 0; i < r.lprDataSum.size(); ++i) {
        mix(r.lprDataSum[i]);
        mix(r.lprParitySum[i]);
    }
    return h;
}

/** One JSON line per (config, policy), in a fixed order. */
std::vector<std::string>
computeRows()
{
    std::vector<std::string> rows;
    for (int d : {3, 5, 7}) {
        RotatedSurfaceCode code(d);
        for (RemovalProtocol protocol :
             {RemovalProtocol::SwapLrc, RemovalProtocol::Dqlr})
            for (Basis basis : {Basis::Z, Basis::X})
                for (DecoderKind decoder :
                     {DecoderKind::Mwpm, DecoderKind::UnionFind})
                    for (unsigned width : {64u, 256u}) {
                        ExperimentConfig cfg;
                        cfg.rounds = d;
                        cfg.basis = basis;
                        cfg.em = ErrorModel::standard(kP);
                        cfg.protocol = protocol;
                        cfg.shots = kShots;
                        cfg.seed = 4242 + (uint64_t)d;
                        cfg.decoderKind = decoder;
                        cfg.threads = 1;
                        cfg.batchWidth = width;
                        cfg.trackLpr = true;
                        MemoryExperiment exp(code, cfg);
                        for (PolicyKind kind :
                             {PolicyKind::Never, PolicyKind::Always,
                              PolicyKind::Eraser, PolicyKind::EraserM,
                              PolicyKind::Optimal}) {
                            const ExperimentResult r = exp.run(kind);
                            char line[512];
                            std::snprintf(
                                line, sizeof line,
                                "{\"d\": %d, \"protocol\": \"%s\", "
                                "\"basis\": \"%s\", \"decoder\": "
                                "\"%s\", \"width\": %u, \"policy\": "
                                "\"%s\", \"verdictFingerprint\": "
                                "\"0x%016" PRIx64 "\", "
                                "\"logicalErrors\": %" PRIu64
                                ", \"tp\": %" PRIu64 ", \"fp\": %" PRIu64
                                ", \"tn\": %" PRIu64 ", \"fn\": %" PRIu64
                                ", \"lrcsScheduled\": %" PRIu64
                                ", \"lprHash\": \"0x%016" PRIx64
                                "\"}",
                                d,
                                protocol == RemovalProtocol::SwapLrc
                                    ? "swap"
                                    : "dqlr",
                                basis == Basis::Z ? "Z" : "X",
                                decoder == DecoderKind::Mwpm ? "mwpm"
                                                             : "uf",
                                width, r.policy.c_str(),
                                r.verdictFingerprint, r.logicalErrors,
                                r.tp, r.fp, r.tn, r.fn,
                                r.lrcsScheduled, lprHash(r));
                            rows.push_back(line);
                        }
                    }
    }
    return rows;
}

std::string
render(const std::vector<std::string> &rows)
{
    std::string out = "[\n";
    for (size_t i = 0; i < rows.size(); ++i)
        out += " " + rows[i] + (i + 1 < rows.size() ? ",\n" : "\n");
    return out + "]\n";
}

TEST(GoldenVerdicts, MwpmSliceMatchesCheckedIn)
{
    const std::vector<std::string> rows = computeRows();
    ASSERT_EQ(rows.size(), 3u * 2 * 2 * 2 * 2 * 5);
    if (gRegen) {
        std::ofstream(kGoldenPath) << render(rows);
        std::printf("wrote %zu rows to %s\n", rows.size(), kGoldenPath);
        return;
    }
    std::ifstream in(kGoldenPath);
    ASSERT_TRUE(in.good()) << "missing " << kGoldenPath
                           << " (run test_golden --regen)";
    std::vector<std::string> golden;
    std::string line;
    while (std::getline(in, line)) {
        if (line == "[" || line == "]")
            continue;
        if (!line.empty() && line.back() == ',')
            line.pop_back();
        golden.push_back(line.substr(line.find('{')));
    }
    ASSERT_EQ(golden.size(), rows.size());
    for (size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i], golden[i]) << "row " << i;
}

} // namespace
} // namespace qec

int
main(int argc, char **argv)
{
    ::testing::InitGoogleTest(&argc, argv);
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--regen") == 0)
            qec::gRegen = true;
    return RUN_ALL_TESTS();
}
