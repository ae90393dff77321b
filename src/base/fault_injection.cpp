#include "base/fault_injection.h"

#include <map>
#include <mutex>
#include <new>
#include <string>

namespace qec
{
namespace fault
{

namespace
{

struct Site
{
    bool armed = false;
    uint64_t countdown = 0; ///< Evaluations until the fault fires.
    Kind kind = Kind::ReturnError;
    bool repeat = false;
    uint64_t hits = 0;
};

// All sites are cold (chunk boundaries, file I/O, cache flushes), so
// one mutex around a name-keyed map is plenty and keeps arming racefree
// against worker threads evaluating points.
std::mutex g_mutex;
std::map<std::string, Site> g_sites;
bool g_counting = false;

void
refreshActive()
{
    int active = g_counting ? 1 : 0;
    for (const auto &entry : g_sites)
        if (entry.second.armed)
            active = 1;
    detail::active.store(active, std::memory_order_relaxed);
}

} // namespace

namespace detail
{

std::atomic<int> active{0};

bool
evaluate(const char *site)
{
    Kind fired_kind;
    uint64_t fired_hit;
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        Site &s = g_sites[site];
        ++s.hits;
        if (!s.armed || --s.countdown > 0)
            return false;
        fired_kind = s.kind;
        fired_hit = s.hits;
        if (s.repeat) {
            s.countdown = 1;
        } else {
            s.armed = false;
            refreshActive();
        }
    }
    switch (fired_kind) {
    case Kind::ReturnError:
        return true;
    case Kind::ThrowBadAlloc:
        throw std::bad_alloc();
    case Kind::Crash:
        throw SimulatedCrash{site, fired_hit};
    }
    return true;
}

} // namespace detail

void
arm(const char *site, uint64_t countdown, Kind kind, bool repeat)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    Site &s = g_sites[site];
    s.armed = true;
    s.countdown = countdown > 0 ? countdown : 1;
    s.kind = kind;
    s.repeat = repeat;
    g_counting = true;
    refreshActive();
}

void
disarm(const char *site)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    auto it = g_sites.find(site);
    if (it != g_sites.end())
        it->second.armed = false;
    refreshActive();
}

void
reset()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    g_sites.clear();
    g_counting = false;
    refreshActive();
}

uint64_t
hits(const char *site)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    auto it = g_sites.find(site);
    return it == g_sites.end() ? 0 : it->second.hits;
}

void
countHits()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    g_counting = true;
    refreshActive();
}

} // namespace fault
} // namespace qec
