#include "common/parallel.hh"

#include <algorithm>

namespace mparch::parallel {

unsigned
hardwareJobs()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

unsigned
resolveJobs(unsigned requested, std::uint64_t tasks)
{
    const std::uint64_t jobs = requested ? requested : hardwareJobs();
    return static_cast<unsigned>(
        std::min(jobs, std::max<std::uint64_t>(tasks, 1)));
}

ThreadPool::ThreadPool(unsigned workers)
{
    threads_.reserve(workers);
    for (unsigned w = 0; w < workers; ++w)
        threads_.emplace_back([this, w] { loop(w); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        shutdown_ = true;
    }
    wake_.notify_all();
    for (auto &t : threads_)
        t.join();
}

void
ThreadPool::start(std::function<void(unsigned)> job)
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        job_ = std::move(job);
        running_ = workers();
        ++generation_;
    }
    wake_.notify_all();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mu_);
    done_.wait(lock, [&] { return running_ == 0; });
}

void
ThreadPool::loop(unsigned worker)
{
    std::uint64_t seen = 0;
    for (;;) {
        std::function<void(unsigned)> job;
        {
            std::unique_lock<std::mutex> lock(mu_);
            wake_.wait(lock, [&] {
                return shutdown_ || generation_ != seen;
            });
            if (shutdown_)
                return;
            seen = generation_;
            job = job_;
        }
        job(worker);
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (--running_ == 0)
                done_.notify_all();
        }
    }
}

} // namespace mparch::parallel
