/**
 * @file
 * Minimal data-parallel helpers for running experiment shots on all
 * cores. Deterministic: work item i always receives index i, so
 * per-shot RNG streams are independent of thread scheduling.
 *
 * Execution is backed by a persistent WorkerPool: threads are spawned
 * once and reused across parallel regions, so tight chunk loops
 * (session chunks, bench repetitions, the sweep loop's rounds)
 * pay a wakeup instead of a thread spawn + join per region.
 */

#ifndef QEC_BASE_PARALLEL_H
#define QEC_BASE_PARALLEL_H

#include <cstdint>
#include <functional>
#include <memory>

namespace qec
{

/** Number of worker threads to use by default (hardware concurrency). */
unsigned defaultThreadCount();

/**
 * Run body(i) for i in [0, count) across threads.
 *
 * @param count       Number of work items.
 * @param body        Callable invoked once per index; must be thread-safe
 *                    with respect to other indices.
 * @param num_threads Worker count; 0 selects defaultThreadCount().
 */
void parallelFor(uint64_t count,
                 const std::function<void(uint64_t)> &body,
                 unsigned num_threads = 0);

/**
 * Worker count parallelFor/parallelForWorkers will actually use for
 * `count` items (never more workers than items, at least 1). Callers
 * size per-worker state with this before launching.
 */
unsigned resolveThreadCount(uint64_t count, unsigned num_threads);

/**
 * Like parallelFor, but the body also receives the worker index in
 * [0, resolveThreadCount(count, num_threads)), so callers can give
 * each worker its own reusable context (decoder workspaces, caches)
 * without locking. Work item i still always receives index i.
 */
void parallelForWorkers(
    uint64_t count,
    const std::function<void(unsigned worker, uint64_t index)> &body,
    unsigned num_threads = 0);

/**
 * A persistent pool of worker threads executing indexed parallel
 * regions. One region runs at a time (run() serializes callers);
 * work items are drained through a shared atomic cursor, so item i
 * always receives index i but assignment to workers is dynamic.
 *
 * Exceptions thrown by the body stop the drain and the first one is
 * rethrown from run() on the calling thread — same contract as
 * parallelForWorkers, which is itself routed through the process-wide
 * sharedWorkerPool(). A body running *on* a pool thread that re-enters
 * run() executes its region inline (no deadlock, worker index 0).
 */
class WorkerPool
{
  public:
    /** Spawn `workers` persistent threads (0 = defaultThreadCount()). */
    explicit WorkerPool(unsigned workers = 0);
    ~WorkerPool();
    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    /** Threads currently in the pool. */
    unsigned workers() const;

    /** Grow the pool to at least `n` threads (never shrinks). */
    void ensureWorkers(unsigned n);

    /**
     * Run body(worker, i) for i in [0, count) on up to `use_workers`
     * pool threads (0 = all; clamped to the pool size and to `count`).
     * Worker indices are in [0, effective). Blocks until the region
     * completes; rethrows the first body exception. Regions resolving
     * to a single worker run inline on the caller (worker index 0).
     */
    void run(uint64_t count,
             const std::function<void(unsigned worker, uint64_t index)>
                 &body,
             unsigned use_workers = 0);

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

/**
 * The process-wide pool behind parallelFor/parallelForWorkers, created
 * on first use with defaultThreadCount() threads and grown on demand
 * when a caller asks for more workers than it holds.
 */
WorkerPool &sharedWorkerPool();

} // namespace qec

#endif // QEC_BASE_PARALLEL_H
