/**
 * @file
 * Deterministic fault injection for the robustness test harness.
 *
 * A fault point is a named site in cold library code:
 *
 *     if (QEC_FAULT_POINT("checkpoint.save"))
 *         return unavailableError("injected checkpoint failure");
 *
 * Tests arm a site with a countdown — "the K-th future evaluation of
 * this site fires" — which makes every failure scenario exactly
 * reproducible: crash at chunk 3, fail the second sink write, refuse
 * one arena allocation. Three fault kinds cover the recoverable-error
 * taxonomy:
 *
 *  - ReturnError   : QEC_FAULT_POINT returns true; the site returns a
 *                    Status (exercises retry/quarantine paths).
 *  - ThrowBadAlloc : throws std::bad_alloc (exercises allocation-
 *                    failure handling at the arena/cache layer).
 *  - Crash         : throws SimulatedCrash, which no library layer
 *                    catches — the in-process stand-in for SIGKILL
 *                    that lets a test resume from the checkpoint the
 *                    crashed run left behind (CI additionally kills a
 *                    real process; see the kill-and-resume smoke).
 *
 * Always compiled in: every site is cold, and a disarmed site costs
 * one relaxed atomic load.
 */

#ifndef QEC_BASE_FAULT_INJECTION_H
#define QEC_BASE_FAULT_INJECTION_H

#include <atomic>
#include <cstdint>

namespace qec
{

/** Thrown by a Crash-armed fault point; deliberately not derived from
 *  std::exception so generic catch(const std::exception&) recovery
 *  paths cannot swallow a simulated process death. */
struct SimulatedCrash
{
    const char *site;
    uint64_t hit;
};

namespace fault
{

enum class Kind
{
    ReturnError,
    ThrowBadAlloc,
    Crash,
};

/**
 * Arm `site`: its `countdown`-th future evaluation fires (1 = the
 * next one). With `repeat`, every evaluation from then on fires too
 * (persistent sink failure); without it the site disarms after
 * firing.
 */
void arm(const char *site, uint64_t countdown, Kind kind,
         bool repeat = false);

/** Disarm one site (hit counters are kept). */
void disarm(const char *site);

/** Disarm every site and zero every hit counter. */
void reset();

/**
 * Evaluations of `site` so far (armed or not, while counting is on).
 * Counting is enabled by arm()/countHits() and cleared by reset();
 * tests use it to learn a run's chunk count before arming a crash at
 * every boundary in turn.
 */
uint64_t hits(const char *site);

/** Enable hit counting without arming anything. */
void countHits();

namespace detail
{
/** Nonzero while any site is armed or hit counting is enabled. */
extern std::atomic<int> active;
/** Slow path: count the hit, fire if armed (may throw). */
bool evaluate(const char *site);
} // namespace detail

/** True when the named site's armed fault fires this evaluation. */
inline bool
point(const char *site)
{
    if (detail::active.load(std::memory_order_relaxed) == 0)
        return false;
    return detail::evaluate(site);
}

} // namespace fault
} // namespace qec

#define QEC_FAULT_POINT(site) (::qec::fault::point(site))

#endif // QEC_BASE_FAULT_INJECTION_H
