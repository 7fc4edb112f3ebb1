#include "common/worker_pool.hh"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <vector>

namespace iceb
{

std::size_t
hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

/**
 * The handshake between run() and the worker threads. Each run()
 * publishes a job under the mutex and bumps the generation; every
 * worker wakes, claims indices until the counter passes the count,
 * then checks out. run() returns only once all workers have checked
 * out, so no worker can miss a generation or outlive the borrowed
 * callable.
 */
struct WorkerPool::Shared
{
    std::mutex mutex;
    std::condition_variable work_cv;
    std::condition_variable done_cv;
    Job job;
    std::size_t count = 0;
    std::atomic<std::size_t> next{0};
    std::size_t active = 0;
    std::uint64_t generation = 0;
    bool stop = false;
    std::vector<std::thread> threads;

    ~Shared()
    {
        {
            std::lock_guard<std::mutex> lock(mutex);
            stop = true;
        }
        work_cv.notify_all();
        for (std::thread &thread : threads)
            thread.join();
    }

    /** noexcept: a throwing job must not unwind past busy workers. */
    void claim(std::size_t lane) noexcept
    {
        while (true) {
            const std::size_t index =
                next.fetch_add(1, std::memory_order_relaxed);
            if (index >= count)
                return;
            job.invoke(job.callable, index, lane);
        }
    }

    void workerLoop(std::size_t lane)
    {
        std::uint64_t seen = 0;
        while (true) {
            {
                std::unique_lock<std::mutex> lock(mutex);
                work_cv.wait(lock, [this, seen] {
                    return stop || generation != seen;
                });
                if (stop)
                    return;
                seen = generation;
            }
            claim(lane);
            {
                std::lock_guard<std::mutex> lock(mutex);
                --active;
            }
            done_cv.notify_all();
        }
    }
};

WorkerPool::WorkerPool(std::size_t lanes)
{
    if (lanes <= 1)
        return;
    shared_ = std::make_unique<Shared>();
    shared_->threads.reserve(lanes - 1);
    for (std::size_t lane = 1; lane < lanes; ++lane)
        shared_->threads.emplace_back(
            [state = shared_.get(), lane] { state->workerLoop(lane); });
}

WorkerPool::~WorkerPool() = default;
WorkerPool::WorkerPool(WorkerPool &&) noexcept = default;
WorkerPool &
WorkerPool::operator=(WorkerPool &&) noexcept = default;

std::size_t
WorkerPool::lanes() const
{
    return shared_ == nullptr ? 1 : shared_->threads.size() + 1;
}

void
WorkerPool::dispatch(std::size_t count, Job job)
{
    if (count == 0)
        return;
    Shared &s = *shared_;
    {
        std::lock_guard<std::mutex> lock(s.mutex);
        s.job = job;
        s.count = count;
        s.next.store(0, std::memory_order_relaxed);
        s.active = s.threads.size();
        ++s.generation;
    }
    s.work_cv.notify_all();
    s.claim(0);
    std::unique_lock<std::mutex> lock(s.mutex);
    s.done_cv.wait(lock, [&s] { return s.active == 0; });
    s.job = Job{};
}

} // namespace iceb
