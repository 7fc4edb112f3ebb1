/**
 * @file
 * The one thread executor: a persistent pool that runs an indexed
 * loop across a fixed set of lanes.
 *
 * run(count, fn) calls fn(index, lane) once for every index in
 * [0, count). Indices are claimed from an atomic counter, so which
 * lane executes which index is a scheduling accident; callers keep
 * results deterministic by making each index write only its own
 * output, and use the lane (< lanes()) only to pick per-worker
 * scratch. The calling thread is lane 0 and takes part, so a pool of
 * N lanes spawns N - 1 threads once, at construction, and a 1-lane
 * pool spawns none and runs every index inline.
 *
 * Every owner (the experiment runner, the sharded engine, the FIP
 * forecast pool, the benches) holds its own instance. Instances can
 * nest -- a runner lane driving a sharded run whose cells forecast on
 * a threaded FIP -- and nothing caps the product against the host's
 * cores.
 */

#ifndef ICEB_COMMON_WORKER_POOL_HH
#define ICEB_COMMON_WORKER_POOL_HH

#include <cstddef>
#include <memory>
#include <type_traits>

namespace iceb
{

/** Hardware thread count, or 1 when the host does not report it. */
std::size_t hardwareThreads();

class WorkerPool
{
  public:
    /** @param lanes Total lanes including the caller (0 acts as 1). */
    explicit WorkerPool(std::size_t lanes);
    ~WorkerPool();

    /** A moved-from pool is a valid 1-lane pool. */
    WorkerPool(WorkerPool &&) noexcept;
    WorkerPool &operator=(WorkerPool &&) noexcept;

    std::size_t lanes() const;

    /**
     * Call fn(index, lane) for every index in [0, count) and return
     * once all calls have finished. @p fn is borrowed, never copied,
     * so run() performs no heap allocation. An exception escaping fn
     * terminates the process unless the pool has a single lane.
     */
    template <typename Fn>
    void run(std::size_t count, Fn &&fn)
    {
        if (shared_ == nullptr) {
            for (std::size_t index = 0; index < count; ++index)
                fn(index, std::size_t{0});
            return;
        }
        dispatch(count, Job{&fn, &call<std::remove_reference_t<Fn>>});
    }

  private:
    /** A non-owning reference to run()'s callable. */
    struct Job
    {
        const void *callable = nullptr;
        void (*invoke)(const void *, std::size_t, std::size_t) = nullptr;
    };

    template <typename Callable>
    static void call(const void *callable, std::size_t index,
                     std::size_t lane)
    {
        (*static_cast<Callable *>(const_cast<void *>(callable)))(index, lane);
    }

    struct Shared;

    void dispatch(std::size_t count, Job job);

    /** Threads and their handshake; null for a 1-lane pool. */
    std::unique_ptr<Shared> shared_;
};

} // namespace iceb

#endif // ICEB_COMMON_WORKER_POOL_HH
