#include "base/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace qec
{

namespace
{

/** Set while the current thread is draining a pool region; nested
 *  parallel regions from inside a body run inline instead of
 *  deadlocking on the (busy) pool. */
thread_local bool tl_pool_worker = false;

} // namespace

unsigned
defaultThreadCount()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

unsigned
resolveThreadCount(uint64_t count, unsigned num_threads)
{
    if (num_threads == 0)
        num_threads = defaultThreadCount();
    num_threads = (unsigned)std::min<uint64_t>(num_threads, count);
    return num_threads == 0 ? 1 : num_threads;
}

// ------------------------------------------------------------ WorkerPool

struct WorkerPool::Impl
{
    mutable std::mutex m;
    std::condition_variable wake;
    std::condition_variable done;
    std::vector<std::thread> threads;
    bool shutdown = false;

    /** Region state, published under `m` by bumping `generation`. */
    uint64_t generation = 0;
    uint64_t count = 0;
    unsigned participants = 0;
    unsigned remaining = 0;
    const std::function<void(unsigned, uint64_t)> *body = nullptr;
    std::atomic<uint64_t> cursor{0};
    std::atomic<bool> failed{false};
    std::exception_ptr firstError;

    /** Serializes run() callers (one region at a time). */
    std::mutex runMutex;

    void
    workerLoop(unsigned slot)
    {
        tl_pool_worker = true;
        uint64_t seen = 0;
        for (;;) {
            const std::function<void(unsigned, uint64_t)> *job;
            uint64_t n;
            {
                std::unique_lock<std::mutex> lock(m);
                wake.wait(lock, [&] {
                    return shutdown || generation != seen;
                });
                if (shutdown)
                    return;
                seen = generation;
                if (slot >= participants)
                    continue;
                job = body;
                n = count;
            }
            // An exception escaping a worker thread would
            // std::terminate the process; capture the first one and
            // rethrow it on the calling thread instead, so recoverable
            // failures inside chunk execution (std::bad_alloc from an
            // arena, injected faults) surface to the orchestration
            // layer's retry/quarantine logic. Remaining items are
            // dropped once `failed` is set.
            while (!failed.load(std::memory_order_relaxed)) {
                const uint64_t i = cursor.fetch_add(1);
                if (i >= n)
                    break;
                try {
                    (*job)(slot, i);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(m);
                    if (!firstError)
                        firstError = std::current_exception();
                    failed.store(true, std::memory_order_relaxed);
                    break;
                }
            }
            {
                std::lock_guard<std::mutex> lock(m);
                if (--remaining == 0)
                    done.notify_all();
            }
        }
    }

    void
    spawnTo(unsigned n)
    {
        while (threads.size() < n) {
            const unsigned slot = (unsigned)threads.size();
            threads.emplace_back([this, slot] { workerLoop(slot); });
        }
    }
};

WorkerPool::WorkerPool(unsigned workers)
    : impl_(std::make_unique<Impl>())
{
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->spawnTo(workers == 0 ? defaultThreadCount() : workers);
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(impl_->m);
        impl_->shutdown = true;
    }
    impl_->wake.notify_all();
    for (std::thread &t : impl_->threads)
        t.join();
}

unsigned
WorkerPool::workers() const
{
    std::lock_guard<std::mutex> lock(impl_->m);
    return (unsigned)impl_->threads.size();
}

void
WorkerPool::ensureWorkers(unsigned n)
{
    // Take the region lock too: growing the thread vector while a
    // region drains would hand new threads a stale generation.
    std::lock_guard<std::mutex> region(impl_->runMutex);
    std::lock_guard<std::mutex> lock(impl_->m);
    impl_->spawnTo(n);
}

void
WorkerPool::run(uint64_t count,
                const std::function<void(unsigned, uint64_t)> &body,
                unsigned use_workers)
{
    if (count == 0)
        return;
    Impl &im = *impl_;
    const auto runInline = [&] {
        for (uint64_t i = 0; i < count; ++i)
            body(0, i);
    };
    if (tl_pool_worker) {
        // Nested region from inside a pool body: the pool is busy
        // with the enclosing region, so execute inline.
        runInline();
        return;
    }
    std::lock_guard<std::mutex> region(im.runMutex);
    unsigned use;
    {
        std::lock_guard<std::mutex> lock(im.m);
        use = (unsigned)im.threads.size();
    }
    if (use_workers != 0)
        use = std::min(use, use_workers);
    use = (unsigned)std::min<uint64_t>(use, count);
    if (use <= 1) {
        runInline();
        return;
    }

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(im.m);
        im.count = count;
        im.participants = use;
        im.remaining = use;
        im.body = &body;
        im.cursor.store(0);
        im.failed.store(false);
        im.firstError = nullptr;
        ++im.generation;
        im.wake.notify_all();
        im.done.wait(lock, [&] { return im.remaining == 0; });
        im.body = nullptr;
        error = im.firstError;
        im.firstError = nullptr;
    }
    if (error)
        std::rethrow_exception(error);
}

WorkerPool &
sharedWorkerPool()
{
    static WorkerPool pool(defaultThreadCount());
    return pool;
}

// ----------------------------------------------------- free functions

void
parallelFor(uint64_t count, const std::function<void(uint64_t)> &body,
            unsigned num_threads)
{
    parallelForWorkers(
        count, [&](unsigned, uint64_t i) { body(i); }, num_threads);
}

void
parallelForWorkers(
    uint64_t count,
    const std::function<void(unsigned worker, uint64_t index)> &body,
    unsigned num_threads)
{
    const unsigned resolved = resolveThreadCount(count, num_threads);
    if (resolved <= 1) {
        for (uint64_t i = 0; i < count; ++i)
            body(0, i);
        return;
    }
    WorkerPool &pool = sharedWorkerPool();
    if (pool.workers() < resolved)
        pool.ensureWorkers(resolved);
    pool.run(count, body, resolved);
}

} // namespace qec
