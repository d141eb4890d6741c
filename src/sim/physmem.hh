/**
 * @file
 * Simulated physical memory and its region map.
 *
 * All kernel state that the paper's fault-injection experiment can
 * corrupt lives in this byte array: kernel text and stack images, the
 * kernel heap (which holds buffer headers and other control blocks),
 * page tables, the Rio registry, and the file-cache pools (buffer
 * cache for metadata, UBC for file data). See DESIGN.md section 2.
 */

#ifndef RIO_SIM_PHYSMEM_HH
#define RIO_SIM_PHYSMEM_HH

#include <span>
#include <vector>

#include "sim/config.hh"
#include "support/lazyzero.hh"
#include "support/types.hh"

namespace rio::sim
{

enum class RegionKind : u8
{
    Reserved,   ///< Page 0; never mapped, so low wild stores trap.
    KernelText, ///< Synthetic encodings of registered kernel procs.
    KernelHeap, ///< KernelHeap allocator arena (control blocks).
    KernelStack,///< Synthetic kernel stack frames.
    PageTables, ///< Hardware-walked PTE array.
    Registry,   ///< Rio registry (protected).
    BufPool,    ///< Buffer cache pages (metadata blocks).
    UbcPool,    ///< Unified Buffer Cache pages (file data).
};

/** Name of a region kind for diagnostics. */
const char *regionKindName(RegionKind kind);

struct Region
{
    RegionKind kind;
    Addr base;   ///< Physical base address (page aligned).
    u64 size;    ///< Size in bytes (page aligned).

    bool
    contains(Addr pa) const
    {
        return pa >= base && pa < base + size;
    }

    u64 pages() const { return size >> kPageShift; }
    Addr end() const { return base + size; }
};

/**
 * The machine's physical memory: a byte array plus the region map
 * computed from MachineConfig at construction.
 */
class PhysMem
{
  public:
    explicit PhysMem(const MachineConfig &config);

    u64 size() const { return bytes_.size(); }
    u64 numPages() const { return size() >> kPageShift; }

    /** Virtual pages the page table covers (>= numPages()). */
    u64 vaPages() const { return vaPages_; }

    /** Raw host pointer; used by the bus and by host-side tooling. */
    u8 *raw() { return bytes_.data(); }
    const u8 *raw() const { return bytes_.data(); }

    /** Whole memory as a span (e.g. for the warm-reboot dump). */
    std::span<const u8> image() const { return bytes_; }

    /** The region containing @p pa, or nullptr. */
    const Region *regionFor(Addr pa) const;

    /** The unique region of @p kind. */
    const Region &region(RegionKind kind) const;

    const std::vector<Region> &regions() const { return regions_; }

    /** Zero all of memory (cold reset / power loss). */
    void zeroAll();

    /** Zero the first @p n bytes (firmware reboot scribble). */
    void scribbleLow(u64 n);

  private:
    support::LazyZeroStore bytes_;
    std::vector<Region> regions_;
    u64 vaPages_ = 0;
};

} // namespace rio::sim

#endif // RIO_SIM_PHYSMEM_HH
