/**
 * @file
 * Single-flight process-wide memo: the golden-run cache and the study
 * memo are Memos, and clearMemos() empties all of them at once.
 */

#ifndef MPARCH_COMMON_MEMO_HH
#define MPARCH_COMMON_MEMO_HH

#include <atomic>
#include <cstdint>
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
     * it, callers of other keys do not.
     */
    template <typename Compute>
    std::shared_ptr<const Value>
    get(const Key &key, Compute &&compute)
    {
        std::shared_ptr<Cell> cell;
        {
            std::lock_guard<std::mutex> lock(mu_);
            if (const std::uint64_t g = detail::memoGeneration.load();
                g != generation_) {
                cells_.clear();
                generation_ = g;
            }
            std::shared_ptr<Cell> &slot = cells_[key];
            if (!slot)
                slot = std::make_shared<Cell>();
            cell = slot;
        }
        std::call_once(cell->once, [&] {
            cell->value = std::make_shared<const Value>(compute());
        });
        return cell->value;
    }

  private:
    struct Cell
    {
        std::once_flag once;
        std::shared_ptr<const Value> value;
    };

    std::mutex mu_;
    std::uint64_t generation_ = 0;
    std::map<Key, std::shared_ptr<Cell>> cells_;
};

} // namespace mparch::common

#endif // MPARCH_COMMON_MEMO_HH
