#include "sim/physmem.hh"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>

#include "support/types.hh"

namespace rio::sim
{

const char *
regionKindName(RegionKind kind)
{
    switch (kind) {
      case RegionKind::Reserved: return "reserved";
      case RegionKind::KernelText: return "kernel-text";
      case RegionKind::KernelHeap: return "kernel-heap";
      case RegionKind::KernelStack: return "kernel-stack";
      case RegionKind::PageTables: return "page-tables";
      case RegionKind::Registry: return "registry";
      case RegionKind::BufPool: return "buf-pool";
      case RegionKind::UbcPool: return "ubc-pool";
    }
    return "?";
}

PhysMem::PhysMem(const MachineConfig &config)
    : bytes_(config.physMemBytes)
{
    using support::roundUp;

    const u64 total = config.physMemBytes;
    assert(total % kPageSize == 0);

    const u64 num_pages = total >> kPageShift;
    vaPages_ = std::max(config.vaSpacePages, num_pages);
    const u64 pt_bytes = roundUp(vaPages_ * 8, kPageSize);

    Addr cursor = 0;
    auto place = [&](RegionKind kind, u64 size) {
        size = roundUp(size, kPageSize);
        if (cursor + size > total) {
            throw std::runtime_error(
                "PhysMem: regions exceed physical memory size");
        }
        regions_.push_back({kind, cursor, size});
        cursor += size;
    };

    place(RegionKind::Reserved, kPageSize);
    place(RegionKind::KernelText, config.kernelTextBytes);
    place(RegionKind::KernelHeap, config.kernelHeapBytes);
    place(RegionKind::KernelStack, config.kernelStackBytes);
    place(RegionKind::PageTables, pt_bytes);
    place(RegionKind::BufPool, config.bufPoolBytes);

    // Registry and UBC split what remains. Each file-cache page (buf
    // pool + UBC pool) needs one 64-byte registry entry; the paper
    // quotes 40 bytes per 8 KB page, we round up to a power of two.
    // Four extra pages at the end of the region serve as shadow pages
    // for atomic metadata updates (paper section 2.3).
    constexpr u64 shadow_bytes = 4 * kPageSize;
    const u64 buf_pages = config.bufPoolBytes >> kPageShift;
    u64 remaining = total - cursor;
    u64 ubc_bytes = config.ubcPoolBytes;
    if (ubc_bytes == 0) {
        // All remaining memory after accounting for the registry.
        const u64 max_ubc_pages = remaining >> kPageShift;
        const u64 reg_bytes =
            roundUp((buf_pages + max_ubc_pages) * 64, kPageSize) +
            shadow_bytes;
        if (reg_bytes >= remaining) {
            throw std::runtime_error(
                "PhysMem: no memory left for the UBC");
        }
        ubc_bytes = support::roundDown(remaining - reg_bytes, kPageSize);
    }
    const u64 ubc_pages = ubc_bytes >> kPageShift;
    const u64 reg_bytes =
        roundUp((buf_pages + ubc_pages) * 64, kPageSize) + shadow_bytes;
    place(RegionKind::Registry, reg_bytes);
    place(RegionKind::UbcPool, ubc_bytes);
}

const Region *
PhysMem::regionFor(Addr pa) const
{
    for (const auto &region : regions_) {
        if (region.contains(pa))
            return &region;
    }
    return nullptr;
}

const Region &
PhysMem::region(RegionKind kind) const
{
    for (const auto &region : regions_) {
        if (region.kind == kind)
            return region;
    }
    throw std::logic_error("PhysMem: no such region kind");
}

void
PhysMem::zeroAll()
{
    bytes_.zero();
}

void
PhysMem::scribbleLow(u64 n)
{
    if (n > bytes_.size())
        n = bytes_.size();
    std::memset(bytes_.data(), 0xdb, n);
}

} // namespace rio::sim
