/**
 * @file
 * RioSystem: the paper's primary contribution, as a layer the
 * simulated kernel plugs into.
 *
 * It implements os::CacheGuard — maintaining the registry entry for
 * every file-cache page, toggling page protection around legitimate
 * writes, keeping per-page checksums (the section 3.2 detection
 * apparatus), and shadowing critical metadata updates for atomicity —
 * and sim::ProtectionPolicy — the code-patching address check for
 * CPUs that cannot force KSEG through the TLB, plus the counter of
 * "saves" (stores that would have corrupted the file cache had
 * protection been off, section 3.3).
 */

#ifndef RIO_CORE_RIO_HH
#define RIO_CORE_RIO_HH

#include <unordered_set>
#include <vector>

#include "core/registry.hh"
#include "os/cacheguard.hh"
#include "os/kconfig.hh"
#include "os/locks.hh"
#include "sim/machine.hh"

namespace rio::core
{

struct RioOptions
{
    os::ProtectionMode protection = os::ProtectionMode::VmTlb;

    /**
     * Maintain per-page checksums in the registry. This is the
     * crash-test detection apparatus; performance runs disable it,
     * exactly as the paper's Table 2 measurements do.
     */
    bool maintainChecksums = false;

    /** Shadow critical metadata updates (section 2.3 atomicity). */
    bool shadowMetadata = true;

    /**
     * rio-nv: mirror the registry — entries and shadow pages — into
     * the machine's NvRegion (battery-backed DRAM, paper section 7)
     * so the warm reboot has a copy that survives even when the
     * in-memory registry is smashed. Requires MachineConfig::nvBytes
     * large enough for the mirror (core/nvmirror.hh layout).
     */
    bool nvBacked = false;
};

struct RioStats
{
    u64 registryInstalls = 0;
    u64 registryUpdates = 0;
    u64 pageOpens = 0;
    u64 shadowCopies = 0;
    u64 protectionSaves = 0;
    u64 nvMirrorWrites = 0; ///< Mirror stores into the NV region.
};

class RioSystem : public os::CacheGuard, public sim::ProtectionPolicy
{
  public:
    RioSystem(sim::Machine &machine, const RioOptions &options);
    ~RioSystem() override;

    /**
     * Activate on a freshly booting kernel: zero the registry,
     * configure the protection mechanism (ABOX mapKseg bit or code
     * patching), and write-protect the registry and both file-cache
     * pools. Call *after* any warm-reboot registry scan and *before*
     * Kernel::boot.
     */
    void activate();

    /** Tear down protection (machine is crashing / being reused). */
    void deactivate();

    /** @{ os::CacheGuard. */
    void kernelBooting() override { activate(); }
    void install(Addr page, const os::CacheTag &tag) override;
    void setDirty(Addr page, bool dirty) override;
    void invalidate(Addr page) override;
    void beginWrite(Addr page) override;
    void endWrite(Addr page, u32 validBytes) override;
    void setDiskBlock(Addr page, BlockNo block) override;
    /** @} */

    /** @{ sim::ProtectionPolicy. */
    bool patchCheckBlocksStore(Addr pa) const override;
    void onProtectionStop(Addr pa) override;
    /** @} */

    const RioOptions &options() const { return options_; }
    const RioStats &stats() const { return stats_; }

    /**
     * rio-nv: register the NV mirror lock in the kernel lock table
     * so mirror writes serialize against "other threads" and the
     * lockdep/riolint rank machinery covers them. Optional — without
     * it the mirror is written unlocked (single-threaded tests). Call
     * after the kernel is constructed, before boot. No-op unless
     * options().nvBacked.
     */
    void bindNvLock(os::LockTable &locks);

    /** Decode the live registry entry for @p page (tests). */
    std::optional<RegistryEntry> entryFor(Addr page) const;

    /** Verify every active page against its checksum (detection). */
    struct ChecksumSweep
    {
        u64 checked = 0;
        u64 mismatches = 0;
        u64 changingSkipped = 0;
        std::vector<Addr> badPages;
    };
    ChecksumSweep verifyChecksums() const;

  private:
    u64 entryIndexFor(Addr page) const;
    Addr entryAddr(u64 index) const;
    void openPage(Addr page);
    void closePage(Addr page);
    void writeEntryField32(u64 index, u64 off, u32 value);
    void writeEntryField64(u64 index, u64 off, u64 value);
    u32 readEntryField32(u64 index, u64 off) const;
    u64 readEntryField64(u64 index, u64 off) const;
    Addr registryPageOf(u64 index) const;
    bool isFileCachePage(Addr pa) const;
    Addr allocShadow();
    void freeShadow(Addr shadow);
    void nvInitMirror(const sim::Region &reg);
    void nvMirror(Addr pa, u64 len);

    /** Run @p fn under the NV mirror lock when one is bound. */
    template <typename Fn>
    void
    withNvLock(Fn &&fn)
    {
        if (nvLocks_) {
            os::LockTable::Guard guard(*nvLocks_, nvLock_);
            fn();
            return;
        }
        fn();
    }

    sim::Machine &machine_;
    RioOptions options_;
    RioStats stats_;

    Addr regBase_ = 0;
    u64 regPages_ = 0;
    Addr bufBase_ = 0;
    u64 bufPages_ = 0;
    Addr ubcBase_ = 0;
    u64 ubcPages_ = 0;
    Addr shadowBase_ = 0;
    std::vector<bool> shadowInUse_;
    /** rio-nv mirror target; null unless options_.nvBacked. */
    sim::NvRegion *nv_ = nullptr;
    os::LockTable *nvLocks_ = nullptr;
    os::LockId nvLock_ = 0;
    bool active_ = false;

    /** Pages currently opened for a legitimate write (code patching
     * consults this; VM mode tracks it for symmetry/debugging). */
    std::unordered_set<Addr> openPages_;
};

} // namespace rio::core

#endif // RIO_CORE_RIO_HH
