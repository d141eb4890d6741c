#include "support/lazyzero.hh"

#include <sys/mman.h>

#include <cstring>
#include <new>

namespace rio::support
{

LazyZeroStore::LazyZeroStore(std::size_t bytes) : size_(bytes)
{
    if (bytes == 0)
        return;
    void *p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    data_ = static_cast<u8 *>(p);
}

LazyZeroStore::~LazyZeroStore()
{
    if (data_)
        ::munmap(data_, size_);
}

void
LazyZeroStore::zero()
{
    if (!data_)
        return;
    // Dropping a private anonymous page makes the next touch map a
    // fresh zero page, so this costs nothing per untouched page.
    if (::madvise(data_, size_, MADV_DONTNEED) != 0)
        std::memset(data_, 0, size_);
}

} // namespace rio::support
