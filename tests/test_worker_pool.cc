/**
 * @file
 * Tests for the thread executor, WorkerPool: every index runs exactly
 * once, lane indices stay in range, one pool survives many runs, a
 * 1-lane pool runs inline, and a warm pool's run() never allocates.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "common/worker_pool.hh"

// Counts every operator new in this test binary, so WorkerPool::run
// can be shown allocation-free once warm.
namespace
{
std::atomic<long long> g_allocations{0};
} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
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

namespace
{

using iceb::WorkerPool;

/** Per-index hit counts of one run(count) on @p pool. */
std::vector<int>
hitCounts(WorkerPool &pool, std::size_t count)
{
    std::vector<std::atomic<int>> hits(count);
    pool.run(count, [&hits](std::size_t i, std::size_t) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    std::vector<int> out;
    for (const std::atomic<int> &h : hits)
        out.push_back(h.load());
    return out;
}

TEST(WorkerPoolTest, EveryIndexRunsExactlyOnce)
{
    for (const std::size_t lanes : {1u, 2u, 4u}) {
        WorkerPool pool(lanes);
        ASSERT_EQ(pool.lanes(), lanes);
        for (const std::size_t count :
             {std::size_t{0}, std::size_t{1}, lanes - 1, lanes,
              lanes * 1000 + 7}) {
            const std::vector<int> hits = hitCounts(pool, count);
            ASSERT_EQ(hits.size(), count);
            for (std::size_t i = 0; i < count; ++i)
                EXPECT_EQ(hits[i], 1)
                    << "lanes=" << lanes << " count=" << count
                    << " index=" << i;
        }
    }
}

TEST(WorkerPoolTest, LaneIndicesStayInRange)
{
    WorkerPool pool(4);
    std::vector<std::atomic<int>> per_lane(pool.lanes());
    std::atomic<bool> in_range{true};
    pool.run(4000, [&](std::size_t, std::size_t lane) {
        if (lane >= per_lane.size()) {
            in_range = false;
            return;
        }
        per_lane[lane].fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_TRUE(in_range.load());
    int total = 0;
    for (const std::atomic<int> &n : per_lane)
        total += n.load();
    EXPECT_EQ(total, 4000);
}

TEST(WorkerPoolTest, OnePoolServesManyRuns)
{
    WorkerPool pool(3);
    std::vector<long long> sums(1200, 0);
    for (std::size_t r = 0; r < sums.size(); ++r) {
        const std::size_t count = 1 + r % 17;
        std::vector<long long> cells(count, 0);
        pool.run(count, [&cells, r](std::size_t i, std::size_t) {
            cells[i] = static_cast<long long>(i + r);
        });
        for (long long v : cells)
            sums[r] += v;
    }
    for (std::size_t r = 0; r < sums.size(); ++r) {
        const long long count = 1 + static_cast<long long>(r % 17);
        const long long expected = count * (count - 1) / 2 +
            count * static_cast<long long>(r);
        ASSERT_EQ(sums[r], expected) << "run " << r;
    }
}

TEST(WorkerPoolTest, SingleLaneRunsInlineInOrder)
{
    for (const std::size_t lanes : {0u, 1u}) {
        WorkerPool pool(lanes);
        EXPECT_EQ(pool.lanes(), 1u);
        const std::thread::id caller = std::this_thread::get_id();
        std::vector<std::size_t> order;
        bool on_caller = true;
        pool.run(5, [&](std::size_t i, std::size_t lane) {
            order.push_back(i);
            on_caller = on_caller && lane == 0 &&
                std::this_thread::get_id() == caller;
        });
        EXPECT_TRUE(on_caller);
        EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
    }
}

TEST(WorkerPoolTest, MovedPoolKeepsItsWorkers)
{
    WorkerPool moved(4);
    WorkerPool pool(std::move(moved));
    EXPECT_EQ(pool.lanes(), 4u);
    EXPECT_EQ(moved.lanes(), 1u);
    const std::vector<int> hits = hitCounts(pool, 100);
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(WorkerPoolTest, WarmRunDoesNotAllocate)
{
    for (const std::size_t lanes : {1u, 4u}) {
        WorkerPool pool(lanes);
        std::vector<double> out(256, 0.0);
        const auto fill = [&out](std::size_t i, std::size_t lane) {
            out[i] = static_cast<double>(i * 3 + lane);
        };
        pool.run(out.size(), fill);
        const long long before = g_allocations.load();
        for (int r = 0; r < 100; ++r)
            pool.run(out.size(), fill);
        EXPECT_EQ(g_allocations.load() - before, 0)
            << "lanes=" << lanes;
    }
}

} // namespace
