/**
 * @file
 * Work-stealing trial executor primitives.
 *
 * Three small pieces compose the parallel campaign engine
 * (fault/supervisor.cc) and any future data-parallel sweep:
 *
 *  - ThreadPool: a fixed set of worker threads that run one job
 *    function per dispatch generation (no per-task queue — workers
 *    pull their own work via IndexChunker, which is what makes the
 *    scheme work-stealing in effect: a fast worker simply claims
 *    more chunks);
 *  - IndexChunker: an atomic dispenser of contiguous index chunks
 *    with cooperative stop. Chunks are handed out in increasing
 *    order, so the set of claimed indices is always a prefix — the
 *    property the ordered reduction below relies on;
 *  - OrderedChannel<T>: a bounded reorder window through which
 *    workers hand results to a single consumer that pops them in
 *    index order. Combined with counter-based per-trial RNG, this
 *    makes the parallel campaign byte-identical to the serial one:
 *    trials execute out of order, but accumulation and journaling
 *    happen strictly in order.
 *
 * Everything here uses plain mutex/condvar synchronisation: trials
 * are milliseconds-scale, so lock overhead is noise, and the simple
 * discipline is easy to audit (and keeps TSan quiet by construction).
 */

#ifndef MPARCH_COMMON_PARALLEL_HH
#define MPARCH_COMMON_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

namespace mparch::parallel {

/** Hardware thread count, never less than 1. */
unsigned hardwareJobs();

/**
 * Resolve a --jobs request for @p tasks independent tasks: 0 means
 * "all hardware threads", anything else is taken literally, and the
 * result is clamped to [1, tasks], since a worker beyond the task
 * count would only be built to sit idle.
 */
unsigned resolveJobs(unsigned requested, std::uint64_t tasks);

/**
 * A fixed pool of worker threads.
 *
 * Threads are created once and reused across dispatch generations.
 * Each generation runs job(worker) on every worker, worker ids
 * 0..workers()-1. start() returns immediately so the calling thread
 * can act as a consumer while the pool produces; wait() blocks until
 * the generation completes.
 *
 * The job must not let exceptions escape (they would terminate the
 * process); catch and convert them to data.
 */
class ThreadPool
{
  public:
    explicit ThreadPool(unsigned workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    unsigned
    workers() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /** Launch one generation of job(worker) on every worker. Must
     *  not be called again before wait() returns. */
    void start(std::function<void(unsigned)> job);

    /** Block until every worker finished the current generation. */
    void wait();

    /** start() + wait() for callers with nothing to consume. */
    void
    run(std::function<void(unsigned)> job)
    {
        start(std::move(job));
        wait();
    }

  private:
    void loop(unsigned worker);

    std::mutex mu_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::function<void(unsigned)> job_;
    std::uint64_t generation_ = 0;
    unsigned running_ = 0;
    bool shutdown_ = false;
    std::vector<std::thread> threads_;
};

/**
 * Atomic dispenser of index chunks over [0, count).
 *
 * Workers loop on next() and process [begin, end) ranges; a fast
 * worker naturally claims more chunks. stop() is cooperative: no
 * further chunks are handed out, but chunks already claimed run to
 * completion — so the claimed set is always exactly [0, lastEnd),
 * a contiguous prefix.
 */
class IndexChunker
{
  public:
    IndexChunker(std::uint64_t count, std::uint64_t chunk)
        : count_(count), chunk_(chunk ? chunk : 1)
    {
    }

    /** Claim the next chunk; false when drained or stopped. */
    bool
    next(std::uint64_t &begin, std::uint64_t &end)
    {
        if (stop_.load(std::memory_order_acquire))
            return false;
        const std::uint64_t b =
            next_.fetch_add(chunk_, std::memory_order_relaxed);
        if (b >= count_)
            return false;
        begin = b;
        end = std::min(count_, b + chunk_);
        return true;
    }

    /** Cooperatively stop handing out chunks. */
    void
    stop()
    {
        stop_.store(true, std::memory_order_release);
    }

  private:
    std::atomic<std::uint64_t> next_{0};
    std::atomic<bool> stop_{false};
    std::uint64_t count_;
    std::uint64_t chunk_;
};

/**
 * Bounded reorder window between N producers and one in-order
 * consumer.
 *
 * Producers put(slot, value) for globally unique, per-chunk ascending
 * slots; the consumer calls take() and receives slot 0, 1, 2... in
 * order. put() blocks while its slot is more than capacity ahead of
 * the consumer (backpressure bounds memory at capacity values).
 * take() blocks until the next slot arrives, or returns nullopt once
 * every producer called producerDone() and the next slot was never
 * filled — which, with IndexChunker's prefix property, happens
 * exactly at the end of the claimed prefix.
 *
 * Deadlock-freedom: the producer owning the consumer's next slot
 * fills its chunk in ascending order, and its next unfilled slot is
 * never ahead of the window, so it always makes progress.
 */
template <typename T>
class OrderedChannel
{
  public:
    OrderedChannel(std::size_t capacity, unsigned producers)
        : ring_(capacity ? capacity : 1), producers_(producers)
    {
    }

    void
    put(std::size_t slot, T value)
    {
        std::unique_lock<std::mutex> lock(mu_);
        canPut_.wait(lock, [&] {
            return slot < base_ + ring_.size();
        });
        ring_[slot % ring_.size()] = std::move(value);
        if (slot == base_)
            canTake_.notify_all();
    }

    /** Pop the next slot in order; nullopt at end of stream. */
    std::optional<T>
    take()
    {
        std::unique_lock<std::mutex> lock(mu_);
        auto &cell = ring_[base_ % ring_.size()];
        canTake_.wait(lock, [&] {
            return cell.has_value() || producers_ == 0;
        });
        if (!cell.has_value())
            return std::nullopt;
        std::optional<T> out = std::move(cell);
        cell.reset();
        ++base_;
        canPut_.notify_all();
        return out;
    }

    /** Each producer calls this once when it stops producing. */
    void
    producerDone()
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (producers_ > 0 && --producers_ == 0)
            canTake_.notify_all();
    }

  private:
    std::mutex mu_;
    std::condition_variable canPut_;
    std::condition_variable canTake_;
    std::vector<std::optional<T>> ring_;
    std::size_t base_ = 0;
    unsigned producers_;
};

} // namespace mparch::parallel

#endif // MPARCH_COMMON_PARALLEL_HH
