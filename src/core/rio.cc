#include "core/rio.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "core/nvmirror.hh"
#include "sim/audit.hh"
#include "support/bytes.hh"
#include "support/checksum.hh"

namespace rio::core
{

using L = RegistryLayout;

RioSystem::RioSystem(sim::Machine &machine, const RioOptions &options)
    : machine_(machine), options_(options)
{
    const auto &mem = machine_.mem();
    const auto &reg = mem.region(sim::RegionKind::Registry);
    const auto &buf = mem.region(sim::RegionKind::BufPool);
    const auto &ubc = mem.region(sim::RegionKind::UbcPool);
    regBase_ = reg.base;
    regPages_ = reg.pages();
    bufBase_ = buf.base;
    bufPages_ = buf.pages();
    ubcBase_ = ubc.base;
    ubcPages_ = ubc.pages();
    shadowBase_ = reg.end() - L::kShadowPages * sim::kPageSize;
    shadowInUse_.assign(L::kShadowPages, false);
    assert((bufPages_ + ubcPages_) * L::kEntrySize <=
           reg.size - L::kShadowPages * sim::kPageSize);
    if (options_.nvBacked) {
        nv_ = machine_.nv();
        if (!nv_)
            throw std::runtime_error(
                "rio: nvBacked needs a machine with an NV region "
                "(MachineConfig::nvBytes)");
        if (NvMirrorLayout::kHeaderBytes + reg.size > nv_->size())
            throw std::runtime_error(
                "rio: NV region too small for the registry mirror");
    }
}

RioSystem::~RioSystem()
{
    deactivate();
}

bool
RioSystem::isFileCachePage(Addr pa) const
{
    return (pa >= bufBase_ && pa < bufBase_ + bufPages_ * sim::kPageSize) ||
           (pa >= ubcBase_ && pa < ubcBase_ + ubcPages_ * sim::kPageSize);
}

u64
RioSystem::entryIndexFor(Addr page) const
{
    if (page >= bufBase_ &&
        page < bufBase_ + bufPages_ * sim::kPageSize) {
        return (page - bufBase_) >> sim::kPageShift;
    }
    if (page >= ubcBase_ &&
        page < ubcBase_ + ubcPages_ * sim::kPageSize) {
        return bufPages_ + ((page - ubcBase_) >> sim::kPageShift);
    }
    machine_.crash(sim::CrashCause::ConsistencyCheck,
                   "rio: registry lookup for non-file-cache address");
}

Addr
RioSystem::entryAddr(u64 index) const
{
    return regBase_ + index * L::kEntrySize;
}

Addr
RioSystem::registryPageOf(u64 index) const
{
    return entryAddr(index) & ~(sim::kPageSize - 1);
}

void
RioSystem::openPage(Addr page)
{
    ++stats_.pageOpens;
    if (auto *audit = machine_.audit())
        audit->openWindow(page);
    machine_.emit(sim::EventKind::RioOpenPage, page);
    switch (options_.protection) {
      case os::ProtectionMode::Off:
        return; // No mechanism, no cost.
      case os::ProtectionMode::VmTlb: {
        machine_.clock().advance(
            machine_.config().costs.protToggleNs / 2);
        const u64 vpn = page >> sim::kPageShift;
        machine_.pageTable().setWritable(vpn, true);
        machine_.tlb().invalidatePage(vpn);
        return;
      }
      case os::ProtectionMode::CodePatch:
        machine_.clock().advance(
            machine_.config().costs.protToggleNs / 4);
        openPages_.insert(page);
        return;
    }
}

void
RioSystem::closePage(Addr page)
{
    if (auto *audit = machine_.audit())
        audit->closeWindow(page);
    machine_.emit(sim::EventKind::RioClosePage, page);
    switch (options_.protection) {
      case os::ProtectionMode::Off:
        return;
      case os::ProtectionMode::VmTlb: {
        machine_.clock().advance(
            machine_.config().costs.protToggleNs / 2);
        const u64 vpn = page >> sim::kPageShift;
        machine_.pageTable().setWritable(vpn, false);
        machine_.tlb().invalidatePage(vpn);
        return;
      }
      case os::ProtectionMode::CodePatch:
        machine_.clock().advance(
            machine_.config().costs.protToggleNs / 4);
        openPages_.erase(page);
        return;
    }
}

u32
RioSystem::readEntryField32(u64 index, u64 off) const
{
    return support::loadLE<u32>(machine_.mem().image(),
                                entryAddr(index) + off);
}

u64
RioSystem::readEntryField64(u64 index, u64 off) const
{
    return support::loadLE<u64>(machine_.mem().image(),
                                entryAddr(index) + off);
}

void
RioSystem::writeEntryField32(u64 index, u64 off, u32 value)
{
    machine_.bus().store32(entryAddr(index) + off, value);
    machine_.emit(sim::EventKind::RioFieldWrite, entryAddr(index) + off);
    nvMirror(entryAddr(index) + off, 4);
}

void
RioSystem::writeEntryField64(u64 index, u64 off, u64 value)
{
    machine_.bus().store64(entryAddr(index) + off, value);
    machine_.emit(sim::EventKind::RioFieldWrite, entryAddr(index) + off);
    nvMirror(entryAddr(index) + off, 8);
}

void
RioSystem::bindNvLock(os::LockTable &locks)
{
    if (!nv_)
        return;
    // riolint:rank(nvLock_, 40) innermost: mirror stores fire from
    // protocol steps already inside the bufcache lock (rank 30).
    nvLock_ = locks.add("nvmirror", os::LockRank{40});
    nvLocks_ = &locks;
}

/**
 * Mirror the just-stored registry bytes at @p pa into the NV region.
 * Fires *after* the DRAM store (and its FieldWrite observation), so a
 * modeled crash between the two leaves the mirror one step stale —
 * exactly the divergence the warm-reboot graft must tolerate.
 */
void
RioSystem::nvMirror(Addr pa, u64 len)
{
    if (!nv_)
        return;
    withNvLock([&] {
        ++stats_.nvMirrorWrites;
        nv_->write(NvMirrorLayout::kHeaderBytes + (pa - regBase_),
                   machine_.mem().image().subspan(pa, len),
                   machine_.clock());
    });
}

/**
 * (Re)initialise the NV mirror for a fresh registry: invalidate the
 * header, zero the body, then commit the header — a crash anywhere
 * inside leaves a mirror that fails header validation rather than a
 * half-initialised one the graft might trust.
 */
void
RioSystem::nvInitMirror(const sim::Region &reg)
{
    using NvL = NvMirrorLayout;
    std::vector<u8> header(NvL::kHeaderBytes, 0);
    std::span<u8> h(header);
    support::storeLE<u32>(h, NvL::kOffMagic, NvL::kMagic);
    support::storeLE<u32>(h, NvL::kOffVersion, NvL::kVersion);
    support::storeLE<u64>(h, NvL::kOffRegBase, reg.base);
    support::storeLE<u64>(h, NvL::kOffRegSize, reg.size);
    support::storeLE<u32>(
        h, NvL::kOffChecksum,
        support::checksum32(std::span<const u8>(
            header.data(), NvL::kOffChecksum)));
    const std::vector<u8> blank(NvL::kHeaderBytes, 0);
    const std::vector<u8> zeros(reg.size, 0);
    withNvLock([&] {
        auto &clock = machine_.clock();
        nv_->write(0, blank, clock);
        nv_->write(NvL::kHeaderBytes, zeros, clock);
        nv_->write(0, header, clock);
    });
}

void
RioSystem::activate()
{
    auto &bus = machine_.bus();
    auto &pt = machine_.pageTable();

    // Fresh registry. (A warm reboot scans the old registry out of
    // the memory dump before this runs.)
    const auto &reg = machine_.mem().region(sim::RegionKind::Registry);
    {
        // Wholesale registry initialisation is a sanctioned write.
        sim::StoreAudit::Scope scope(machine_.audit(),
                                     sim::RegionKind::Registry);
        bus.set(reg.base, 0, reg.size);
    }
    if (nv_)
        nvInitMirror(reg);

    switch (options_.protection) {
      case os::ProtectionMode::Off:
        break;
      case os::ProtectionMode::VmTlb: {
        // Force every address — including KSEG physical addresses,
        // which the UBC is accessed through — to translate via the
        // TLB (the ABOX control-register bit, section 2.1), then
        // write-protect the registry and both file-cache pools.
        machine_.cpu().setMapKsegThroughTlb(true);
        auto protect = [&](Addr base, u64 pages) {
            for (u64 i = 0; i < pages; ++i) {
                const u64 vpn = (base >> sim::kPageShift) + i;
                pt.setWritable(vpn, false);
                machine_.tlb().invalidatePage(vpn);
            }
        };
        protect(regBase_, regPages_);
        protect(bufBase_, bufPages_);
        protect(ubcBase_, ubcPages_);
        break;
      }
      case os::ProtectionMode::CodePatch:
        bus.setCodePatching(true);
        break;
    }
    bus.setPolicy(this);
    openPages_.clear();
    shadowInUse_.assign(L::kShadowPages, false);
    active_ = true;
}

void
RioSystem::deactivate()
{
    if (!active_)
        return;
    auto &bus = machine_.bus();
    bus.setPolicy(nullptr);
    bus.setCodePatching(false);
    machine_.cpu().setMapKsegThroughTlb(false);
    if (options_.protection == os::ProtectionMode::VmTlb) {
        auto unprotect = [&](Addr base, u64 pages) {
            for (u64 i = 0; i < pages; ++i) {
                const u64 vpn = (base >> sim::kPageShift) + i;
                machine_.pageTable().setWritable(vpn, true);
                machine_.tlb().invalidatePage(vpn);
            }
        };
        unprotect(regBase_, regPages_);
        unprotect(bufBase_, bufPages_);
        unprotect(ubcBase_, ubcPages_);
    }
    active_ = false;
}

Addr
RioSystem::allocShadow()
{
    for (u64 i = 0; i < shadowInUse_.size(); ++i) {
        if (!shadowInUse_[i]) {
            shadowInUse_[i] = true;
            return shadowBase_ + i * sim::kPageSize;
        }
    }
    machine_.crash(sim::CrashCause::KernelPanic,
                   "panic: rio: out of shadow pages");
}

void
RioSystem::freeShadow(Addr shadow)
{
    const u64 slot = (shadow - shadowBase_) >> sim::kPageShift;
    assert(slot < shadowInUse_.size());
    shadowInUse_[slot] = false;
}

void
RioSystem::install(Addr page, const os::CacheTag &tag)
{
    const u64 index = entryIndexFor(page);

    // Re-installing the same identity (e.g. a write window opening on
    // an already-registered buffer) must not reset the entry — the
    // dirty bit in particular is what the warm reboot keys off.
    const u32 wantKind = tag.kind == os::CacheKind::Metadata
                             ? L::kKindMetadata
                             : L::kKindData;
    if (readEntryField32(index, L::kOffMagic) == L::kMagic &&
        readEntryField64(index, L::kOffPhysAddr) == page &&
        readEntryField32(index, L::kOffKind) == wantKind &&
        readEntryField32(index, L::kOffDev) == tag.dev &&
        readEntryField32(index, L::kOffIno) == tag.ino &&
        readEntryField64(index, L::kOffOffset) == tag.offset &&
        readEntryField32(index, L::kOffDiskBlock) == tag.diskBlock) {
        return;
    }

    ++stats_.registryInstalls;
    const Addr regPage = registryPageOf(index);
    openPage(regPage);
    writeEntryField32(index, L::kOffMagic, L::kMagic);
    writeEntryField64(index, L::kOffPhysAddr, page);
    writeEntryField32(index, L::kOffKind,
                      tag.kind == os::CacheKind::Metadata
                          ? L::kKindMetadata
                          : L::kKindData);
    writeEntryField32(index, L::kOffDev, tag.dev);
    writeEntryField32(index, L::kOffIno, tag.ino);
    writeEntryField64(index, L::kOffOffset, tag.offset);
    writeEntryField32(index, L::kOffDiskBlock, tag.diskBlock);
    writeEntryField32(index, L::kOffSize, tag.size);
    writeEntryField32(index, L::kOffDirty, 0);
    writeEntryField32(index, L::kOffChecksum, 0);
    writeEntryField64(index, L::kOffShadow, 0);
    // Active last: a crash anywhere above must not leave an Active
    // entry pairing the new page with the previous occupant's
    // kind/dev/ino/offset.
    writeEntryField32(index, L::kOffState, L::kStateActive);
    closePage(regPage);
}

void
RioSystem::setDirty(Addr page, bool dirty)
{
    const u64 index = entryIndexFor(page);
    // Skip the protected write when the bit already has this value
    // (buffers are re-dirtied constantly).
    if ((readEntryField32(index, L::kOffDirty) != 0) == dirty)
        return;
    ++stats_.registryUpdates;
    const Addr regPage = registryPageOf(index);
    openPage(regPage);
    writeEntryField32(index, L::kOffDirty, dirty ? 1 : 0);
    closePage(regPage);
}

void
RioSystem::invalidate(Addr page)
{
    ++stats_.registryUpdates;
    const u64 index = entryIndexFor(page);
    const Addr regPage = registryPageOf(index);
    openPage(regPage);
    writeEntryField32(index, L::kOffMagic, 0);
    writeEntryField32(index, L::kOffState, L::kStateFree);
    closePage(regPage);
}

void
RioSystem::setDiskBlock(Addr page, BlockNo block)
{
    ++stats_.registryUpdates;
    const u64 index = entryIndexFor(page);
    const Addr regPage = registryPageOf(index);
    openPage(regPage);
    // A location-bound checksum must move with the location. Rebind
    // before the block flips: a crash between the two stores leaves
    // the pair inconsistent in the quarantine direction (stale
    // on-disk copy + fsck), never a wrong-location restore.
    const u32 checksum = readEntryField32(index, L::kOffChecksum);
    if (checksum != 0) {
        const BlockNo old = readEntryField32(index, L::kOffDiskBlock);
        const u32 content = checksum ^ checksumLocationMix(old);
        writeEntryField32(index, L::kOffChecksum,
                          bindChecksum(content, block));
    }
    writeEntryField32(index, L::kOffDiskBlock, block);
    closePage(regPage);
}

void
RioSystem::beginWrite(Addr page)
{
    ++stats_.registryUpdates;
    const u64 index = entryIndexFor(page);
    const u32 kind = readEntryField32(index, L::kOffKind);

    Addr shadow = 0;
    // Shadow only *dirty* metadata: for a clean buffer the disk
    // still holds a consistent copy, and the warm reboot only
    // restores dirty entries anyway — a torn clean buffer is simply
    // not restored, leaving the intact on-disk version.
    if (options_.shadowMetadata && kind == L::kKindMetadata &&
        readEntryField32(index, L::kOffMagic) == L::kMagic &&
        readEntryField32(index, L::kOffDirty) != 0) {
        // Copy the consistent contents aside and divert the registry
        // to the shadow before the original is modified.
        ++stats_.shadowCopies;
        shadow = allocShadow();
        openPage(shadow);
        machine_.bus().copy(shadow, page, sim::kPageSize);
        closePage(shadow);
        // The NV copy of the shadow is the restore's last candidate
        // when both in-memory copies are gone (core/nvmirror.hh).
        nvMirror(shadow, sim::kPageSize);
        machine_.emit(sim::EventKind::RioShadowCopy, shadow);
    }

    const Addr regPage = registryPageOf(index);
    openPage(regPage);
    writeEntryField64(index, L::kOffShadow, shadow);
    writeEntryField32(index, L::kOffState, L::kStateChanging);
    closePage(regPage);

    openPage(page);
}

void
RioSystem::endWrite(Addr page, u32 validBytes)
{
    ++stats_.registryUpdates;
    const u64 index = entryIndexFor(page);

    closePage(page);

    u32 checksum = 0;
    if (options_.maintainChecksums) {
        const u64 n = std::min<u64>(validBytes, sim::kPageSize);
        // Bind to the claimed location so a corrupted diskBlock field
        // fails verification like corrupted content (registry.hh).
        checksum = bindChecksum(
            support::checksum32(
                machine_.mem().image().subspan(page, n)),
            readEntryField32(index, L::kOffDiskBlock));
    }

    const Addr shadow = readEntryField64(index, L::kOffShadow);
    const Addr regPage = registryPageOf(index);
    openPage(regPage);
    writeEntryField32(index, L::kOffSize, validBytes);
    writeEntryField32(index, L::kOffChecksum, checksum);
    writeEntryField64(index, L::kOffShadow, 0);
    // The atomic commit: the entry points back at the original. The
    // RioCommit event fires *before* the flip so a modeled crash here
    // lands in the pre-commit window (Changing entry, shadow already
    // cleared) — the warm reboot must cope with exactly this state.
    machine_.emit(sim::EventKind::RioCommit, page);
    writeEntryField32(index, L::kOffState, L::kStateActive);
    closePage(regPage);
    if (shadow != 0)
        freeShadow(shadow);
}

bool
RioSystem::patchCheckBlocksStore(Addr pa) const
{
    if (!active_)
        return false;
    const Addr page = pa & ~(sim::kPageSize - 1);
    const bool protectedRange =
        isFileCachePage(page) ||
        (page >= regBase_ &&
         page < regBase_ + regPages_ * sim::kPageSize);
    if (!protectedRange)
        return false;
    return openPages_.find(page) == openPages_.end();
}

void
RioSystem::onProtectionStop(Addr pa)
{
    (void)pa;
    ++stats_.protectionSaves;
}

std::optional<RegistryEntry>
RioSystem::entryFor(Addr page) const
{
    const u64 index = entryIndexFor(page);
    return decodeRegistryEntry(machine_.mem().image().subspan(
        entryAddr(index), L::kEntrySize));
}

RioSystem::ChecksumSweep
RioSystem::verifyChecksums() const
{
    ChecksumSweep sweep;
    const u64 entries = bufPages_ + ubcPages_;
    for (u64 index = 0; index < entries; ++index) {
        auto entry = decodeRegistryEntry(machine_.mem().image().subspan(
            entryAddr(index), L::kEntrySize));
        if (!entry || entry->checksum == 0)
            continue;
        if (entry->state == L::kStateChanging) {
            ++sweep.changingSkipped;
            continue;
        }
        ++sweep.checked;
        const u64 n = std::min<u64>(entry->size, sim::kPageSize);
        const u32 actual = bindChecksum(
            support::checksum32(
                machine_.mem().image().subspan(entry->physAddr, n)),
            entry->diskBlock);
        if (actual != entry->checksum) {
            ++sweep.mismatches;
            sweep.badPages.push_back(entry->physAddr);
        }
    }
    return sweep;
}

} // namespace rio::core
