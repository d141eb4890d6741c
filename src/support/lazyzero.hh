/**
 * @file
 * A fixed-size byte store that reads as zero and costs nothing until
 * it is written.
 *
 * Simulated physical memory, disks and the NV region are large and
 * mostly untouched: a crash-point machine uses a few MiB of its
 * 113 MiB of stores. A zero-filled std::vector makes the host fault
 * in and clear every page up front. This store is an anonymous
 * private mapping instead, so the host kernel supplies each page,
 * zeroed, on first touch, and zero() hands every page back.
 */

#ifndef RIO_SUPPORT_LAZYZERO_HH
#define RIO_SUPPORT_LAZYZERO_HH

#include <cstddef>

#include "support/types.hh"

namespace rio::support
{

class LazyZeroStore
{
  public:
    /** @p bytes of zeroes; throws std::bad_alloc if not mappable. */
    explicit LazyZeroStore(std::size_t bytes);
    ~LazyZeroStore();

    LazyZeroStore(const LazyZeroStore &) = delete;
    LazyZeroStore &operator=(const LazyZeroStore &) = delete;
    LazyZeroStore(LazyZeroStore &&) = delete;
    LazyZeroStore &operator=(LazyZeroStore &&) = delete;

    u8 *data() { return data_; }
    const u8 *data() const { return data_; }
    std::size_t size() const { return size_; }

    const u8 *begin() const { return data_; }
    const u8 *end() const { return data_ + size_; }

    /** Make every byte zero again and release the pages behind it. */
    void zero();

  private:
    u8 *data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace rio::support

#endif // RIO_SUPPORT_LAZYZERO_HH
