#include "bench/bench_probe.hh"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <new>

namespace
{
std::atomic<long long> g_alloc_count{0};
} // namespace

void *
operator new(std::size_t size)
{
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size))
        return p;
    throw std::bad_alloc();
}

void
operator delete(void *ptr) noexcept
{
    std::free(ptr);
}

void
operator delete(void *ptr, std::size_t) noexcept
{
    std::free(ptr);
}

namespace bench
{

namespace
{

std::uint64_t
fnv1a(std::uint64_t hash, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (8 * byte)) & 0xff;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

std::uint64_t
fnv1aDouble(std::uint64_t hash, double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return fnv1a(hash, bits);
}

} // namespace

long long
allocationCount()
{
    return g_alloc_count.load(std::memory_order_relaxed);
}

std::uint64_t
hashMetrics(const iceb::sim::SimulationMetrics &m)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    hash = fnv1a(hash, m.invocations);
    hash = fnv1a(hash, m.cold_starts);
    hash = fnv1a(hash, m.warm_starts);
    hash = fnv1a(hash, m.cold_no_container);
    hash = fnv1a(hash, m.cold_all_busy);
    hash = fnv1a(hash, m.cold_setup_attach);
    hash = fnv1aDouble(hash, m.sum_service_ms);
    hash = fnv1aDouble(hash, m.sum_wait_ms);
    hash = fnv1aDouble(hash, m.sum_cold_ms);
    hash = fnv1aDouble(hash, m.sum_exec_ms);
    hash = fnv1aDouble(hash, m.sum_overhead_ms);
    for (const auto *samples :
         {&m.service_times_ms, &m.service_times_high_ms,
          &m.service_times_low_ms}) {
        hash = fnv1a(hash, samples->size());
        for (float sample : *samples) {
            std::uint32_t bits = 0;
            std::memcpy(&bits, &sample, sizeof(bits));
            hash = fnv1a(hash, bits);
        }
    }
    for (const iceb::sim::FunctionMetrics &fm : m.per_function) {
        hash = fnv1a(hash, fm.invocations);
        hash = fnv1a(hash, fm.cold_starts);
        hash = fnv1a(hash, fm.warm_starts);
        hash = fnv1aDouble(hash, fm.sum_service_ms);
        hash = fnv1aDouble(hash, fm.sum_wait_ms);
        hash = fnv1aDouble(hash, fm.sum_cold_ms);
        hash = fnv1aDouble(hash, fm.sum_exec_ms);
        hash = fnv1aDouble(hash, fm.keep_alive_cost);
    }
    for (int t = 0; t < iceb::kNumTiers; ++t) {
        hash = fnv1aDouble(hash, m.keep_alive[t].successful_cost);
        hash = fnv1aDouble(hash, m.keep_alive[t].wasteful_cost);
        hash = fnv1aDouble(hash, m.keep_alive[t].wasted_mb_ms);
    }
    return hash;
}

std::string
digestHex(std::uint64_t digest)
{
    char buffer[20];
    std::snprintf(buffer, sizeof(buffer), "0x%016llx",
                  static_cast<unsigned long long>(digest));
    return buffer;
}

std::string
readBaselineFile(const char *program, const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "%s: cannot read baseline %s\n", program,
                     path.c_str());
        std::exit(1);
    }
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

} // namespace bench
