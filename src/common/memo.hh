/**
 * @file
 * Single-flight process-wide memo: the golden-run cache and the study
 * memo are Memos, and clearMemos() empties all of them at once.
 */

#ifndef MPARCH_COMMON_MEMO_HH
#define MPARCH_COMMON_MEMO_HH

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>

namespace mparch::common {

namespace detail {

/** Bumped by clearMemos(); a Memo that sees it move drops its cells. */
inline std::atomic<std::uint64_t> memoGeneration{0};

} // namespace detail

/**
 * Drop the value of every key of every Memo. Each memo drops its
 * cells on its next get(); a value being computed during the clear
 * still goes back to its callers but is not kept.
 */
inline void
clearMemos()
{
    ++detail::memoGeneration;
}

/** Values computed once per key until the next clearMemos(). */
template <typename Key, typename Value>
class Memo
{
  public:
    /**
     * The value of @p key, from compute() (returning a Value) on the
     * first request since the last clearMemos(). compute() runs
     * outside the map's lock: later callers of the same key wait for
     * it, callers of other keys do not. A compute() that throws
     * passes its exception to the callers waiting on it and drops the
     * key's cell, so the next request computes afresh.
     */
    template <typename Compute>
    std::shared_ptr<const Value>
    get(const Key &key, Compute &&compute)
    {
        std::shared_ptr<Cell> mine;
        Future theirs;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (const std::uint64_t g = detail::memoGeneration.load();
                g != generation_) {
                cells_.clear();
                generation_ = g;
            }
            std::shared_ptr<Cell> &slot = cells_[key];
            if (slot)
                theirs = slot->value;  // each waiter waits on a copy
            else
                slot = mine = std::make_shared<Cell>();
        }
        if (!mine)
            return theirs.get();

        std::shared_ptr<const Value> value;
        try {
            value = std::make_shared<const Value>(compute());
        } catch (...) {
            {
                std::lock_guard<std::mutex> lock(mu_);
                const auto it = cells_.find(key);
                if (it != cells_.end() && it->second == mine)
                    cells_.erase(it);
            }
            mine->promise.set_exception(std::current_exception());
            throw;
        }
        mine->promise.set_value(value);
        return value;
    }

  private:
    using Future = std::shared_future<std::shared_ptr<const Value>>;

    /** A key's value: set through promise by the one caller that
     *  computes it, awaited through value by the others. */
    struct Cell
    {
        std::promise<std::shared_ptr<const Value>> promise;
        Future value = promise.get_future().share();
    };

    std::mutex mu_;
    std::uint64_t generation_ = 0;
    std::map<Key, std::shared_ptr<Cell>> cells_;
};

} // namespace mparch::common

#endif // MPARCH_COMMON_MEMO_HH
