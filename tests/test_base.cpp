/**
 * @file
 * Tests for the base utilities: RNG statistics/determinism and the
 * deterministic parallel-for helper.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <stdexcept>
#include <vector>

#include "base/parallel.h"
#include "base/rng.h"

namespace qec
{
namespace
{

TEST(Rng, DeterministicForSameSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next()) ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, ShotStreamsIndependent)
{
    Rng a = Rng::forShot(9, 0);
    Rng b = Rng::forShot(9, 1);
    EXPECT_NE(a.next(), b.next());

    Rng c = Rng::forShot(9, 1);
    c.next();
    EXPECT_EQ(b.next(), c.next());
}

TEST(Rng, UniformRange)
{
    Rng rng(3);
    double lo = 1.0;
    double hi = 0.0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        lo = std::min(lo, u);
        hi = std::max(hi, u);
    }
    EXPECT_LT(lo, 0.01);
    EXPECT_GT(hi, 0.99);
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng rng(4);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.005);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(5);
    const double p = 0.01;
    const int n = 1000000;
    int hits = 0;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(p) ? 1 : 0;
    // 5 sigma band around the binomial expectation.
    const double sigma = std::sqrt(n * p * (1 - p));
    EXPECT_NEAR(hits, n * p, 5 * sigma);
}

TEST(Rng, BernoulliDegenerate)
{
    Rng rng(6);
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-1.0));
}

TEST(Rng, RandintCoversRange)
{
    Rng rng(7);
    std::set<uint32_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const uint32_t v = rng.randint(7);
        ASSERT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, RandintUniform)
{
    Rng rng(8);
    std::vector<int> counts(15, 0);
    const int n = 150000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.randint(15)];
    for (int c : counts)
        EXPECT_NEAR(c, n / 15, 5 * std::sqrt(n / 15.0));
}

/** The out-of-line Lemire loop randint had before it was inlined,
 *  threshold computed up front on every call. */
uint32_t
referenceRandint(Rng &rng, uint32_t n)
{
    const uint64_t threshold = (-static_cast<uint64_t>(n)) % n;
    while (true) {
        const uint64_t x = rng.next();
        const __uint128_t m = static_cast<__uint128_t>(x) * n;
        if (static_cast<uint64_t>(m) >= threshold)
            return static_cast<uint32_t>(m >> 64);
    }
}

TEST(Rng, RandintMatchesOutOfLineReference)
{
    // Same draws and same stream consumption, for the engine's
    // constant ranges (3, 15) and runtime ones.
    for (uint32_t n : {2u, 3u, 15u, 16u, 1000u}) {
        for (uint64_t seed = 0; seed < 64; ++seed) {
            Rng a = Rng::forShot(seed, n);
            Rng b = a;
            for (int i = 0; i < 500; ++i)
                ASSERT_EQ(a.randint(n), referenceRandint(b, n))
                    << "n=" << n << " seed=" << seed << " draw " << i;
            EXPECT_EQ(a.next(), b.next());
        }
    }
}

TEST(Rng, BitBalanced)
{
    Rng rng(9);
    int ones = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        ones += rng.bit() ? 1 : 0;
    EXPECT_NEAR(ones, n / 2, 5 * std::sqrt(n / 4.0));
}

TEST(Parallel, VisitsEveryIndexOnce)
{
    const uint64_t n = 10000;
    std::vector<std::atomic<int>> hits(n);
    parallelFor(n, [&](uint64_t i) { hits[i].fetch_add(1); });
    for (uint64_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1);
}

TEST(Parallel, SingleThreadFallback)
{
    std::vector<int> order;
    parallelFor(5, [&](uint64_t i) { order.push_back((int)i); }, 1);
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Parallel, ZeroItems)
{
    bool called = false;
    parallelFor(0, [&](uint64_t) { called = true; });
    EXPECT_FALSE(called);
}

TEST(Parallel, DefaultThreadCountPositive)
{
    EXPECT_GE(defaultThreadCount(), 1u);
}

TEST(WorkerPool, ReusesThreadsAcrossRegions)
{
    WorkerPool pool(2);
    EXPECT_EQ(pool.workers(), 2u);
    for (int region = 0; region < 50; ++region) {
        std::vector<std::atomic<int>> hits(64);
        pool.run(64, [&](unsigned, uint64_t i) { hits[i].fetch_add(1); });
        for (auto &h : hits)
            ASSERT_EQ(h.load(), 1);
    }
}

TEST(WorkerPool, WorkerIndicesAreWithinBounds)
{
    WorkerPool pool(4);
    std::atomic<bool> bad{false};
    pool.run(1000, [&](unsigned worker, uint64_t) {
        if (worker >= 4)
            bad.store(true);
    });
    EXPECT_FALSE(bad.load());
    // A capped region must not hand out indices beyond the cap.
    pool.run(
        1000,
        [&](unsigned worker, uint64_t) {
            if (worker >= 2)
                bad.store(true);
        },
        2);
    EXPECT_FALSE(bad.load());
}

TEST(WorkerPool, EnsureWorkersGrowsButNeverShrinks)
{
    WorkerPool pool(1);
    pool.ensureWorkers(3);
    EXPECT_EQ(pool.workers(), 3u);
    pool.ensureWorkers(2);
    EXPECT_EQ(pool.workers(), 3u);
    std::atomic<uint64_t> sum{0};
    pool.run(100, [&](unsigned, uint64_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 100u * 99u / 2u);
}

TEST(WorkerPool, RethrowsFirstBodyException)
{
    WorkerPool pool(2);
    EXPECT_THROW(pool.run(16,
                          [&](unsigned, uint64_t i) {
                              if (i == 7)
                                  throw std::runtime_error("boom");
                          }),
                 std::runtime_error);
    // The pool survives a throwing region.
    std::atomic<int> ran{0};
    pool.run(8, [&](unsigned, uint64_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 8);
}

TEST(WorkerPool, NestedRunExecutesInline)
{
    WorkerPool pool(2);
    std::atomic<int> inner_total{0};
    pool.run(4, [&](unsigned, uint64_t) {
        // Re-entering run() from a pool thread must not deadlock.
        pool.run(8, [&](unsigned worker, uint64_t) {
            EXPECT_EQ(worker, 0u);
            inner_total.fetch_add(1);
        });
    });
    EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(WorkerPool, SharedPoolBacksParallelFor)
{
    std::atomic<int> ran{0};
    parallelForWorkers(
        64, [&](unsigned, uint64_t) { ran.fetch_add(1); }, 2);
    EXPECT_EQ(ran.load(), 64);
    // A two-worker region grows the shared pool to serve it.
    EXPECT_GE(sharedWorkerPool().workers(), 2u);
}

} // namespace
} // namespace qec
