/**
 * @file
 * Tests for the warm reboot: the full dump / metadata-restore /
 * fsck / user-level data-restore pipeline, its dirty-only policy,
 * shadow handling for mid-update crashes, hardware that clears
 * memory, and stale-inode accounting.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>

#include "core/rio.hh"
#include "core/warmreboot.hh"
#include "os/kernel.hh"
#include "sim/machine.hh"
#include "support/bytes.hh"
#include "workload/script.hh"

using namespace rio;

namespace
{

sim::MachineConfig
machineConfig(bool survives = true)
{
    sim::MachineConfig c;
    c.physMemBytes = 16ull << 20;
    c.kernelHeapBytes = 4ull << 20;
    c.bufPoolBytes = 1ull << 20;
    c.diskBytes = 64ull << 20;
    c.swapBytes = 16ull << 20;
    c.memorySurvivesReset = survives;
    return c;
}

struct CrashRig
{
    explicit CrashRig(bool survives = true)
        : CrashRig(machineConfig(survives))
    {}

    explicit CrashRig(const sim::MachineConfig &mc) : machine(mc)
    {
        config = os::systemPreset(os::SystemPreset::RioNoProtection);
        core::RioOptions options;
        options.protection = config.protection;
        options.maintainChecksums = true;
        rio = std::make_unique<core::RioSystem>(machine, options);
        kernel = std::make_unique<os::Kernel>(machine, config);
        kernel->boot(rio.get(), true);
    }

    void
    crashAndReset()
    {
        try {
            machine.crash(sim::CrashCause::KernelPanic, "test");
        } catch (const sim::CrashException &) {
        }
        rio->deactivate();
        rio.reset();
        kernel.reset();
        machine.reset(sim::ResetKind::Warm);
    }

    /** Complete the standard recovery; returns the rebooted kernel. */
    std::unique_ptr<os::Kernel>
    recover(core::WarmRebootReport &report)
    {
        core::WarmReboot warm(machine);
        report = warm.dumpAndRestoreMetadata();
        core::RioOptions options;
        options.protection = config.protection;
        options.maintainChecksums = true;
        rio = std::make_unique<core::RioSystem>(machine, options);
        auto rebooted = std::make_unique<os::Kernel>(machine, config);
        rebooted->boot(rio.get(), false);
        warm.restoreData(rebooted->vfs(), report);
        return rebooted;
    }

    sim::Machine machine;
    os::KernelConfig config;
    std::unique_ptr<core::RioSystem> rio;
    std::unique_ptr<os::Kernel> kernel;
    os::Process proc{1};
};

// --- Raw access to the surviving registry image. -------------------
// The hardening tests damage the image the way a crashed OS would:
// by scribbling on the raw bytes, not through any API.

using Layout = core::RegistryLayout;

template <typename T>
T
getField(const u8 *slot, u64 off)
{
    T value;
    std::memcpy(&value, slot + off, sizeof(T));
    return value;
}

template <typename T>
void
putField(u8 *slot, u64 off, T value)
{
    std::memcpy(slot + off, &value, sizeof(T));
}

u64
registrySlotCount(sim::Machine &machine)
{
    return machine.mem().region(sim::RegionKind::BufPool).pages() +
           machine.mem().region(sim::RegionKind::UbcPool).pages();
}

u8 *
registrySlot(sim::Machine &machine, u64 index)
{
    const auto &reg =
        machine.mem().region(sim::RegionKind::Registry);
    return machine.mem().raw() + reg.base +
           index * Layout::kEntrySize;
}

/** Indices of live, dirty, active metadata entries. */
std::vector<u64>
dirtyMetadataSlots(sim::Machine &machine)
{
    std::vector<u64> slots;
    for (u64 i = 0; i < registrySlotCount(machine); ++i) {
        const u8 *slot = registrySlot(machine, i);
        if (getField<u32>(slot, Layout::kOffMagic) ==
                Layout::kMagic &&
            getField<u32>(slot, Layout::kOffState) ==
                Layout::kStateActive &&
            getField<u32>(slot, Layout::kOffKind) ==
                Layout::kKindMetadata &&
            getField<u32>(slot, Layout::kOffDirty) != 0) {
            slots.push_back(i);
        }
    }
    return slots;
}

/** Index of the mid-update dirty metadata entry, or ~0 if none. */
u64
changingSlot(sim::Machine &machine)
{
    for (u64 i = 0; i < registrySlotCount(machine); ++i) {
        const u8 *slot = registrySlot(machine, i);
        if (getField<u32>(slot, Layout::kOffMagic) ==
                Layout::kMagic &&
            getField<u32>(slot, Layout::kOffState) ==
                Layout::kStateChanging &&
            getField<u32>(slot, Layout::kOffKind) ==
                Layout::kKindMetadata &&
            getField<u32>(slot, Layout::kOffDirty) != 0)
            return i;
    }
    return ~0ull;
}

/** Snapshot the current on-disk bytes of one file-system block. */
std::vector<u8>
diskBlockBytes(sim::Machine &machine, u64 block)
{
    std::vector<u8> bytes;
    bytes.reserve(sim::kSectorsPerBlock * sim::kSectorSize);
    for (u64 s = 0; s < sim::kSectorsPerBlock; ++s) {
        const auto sector = machine.disk().peekSector(
            static_cast<SectorNo>(block * sim::kSectorsPerBlock + s));
        bytes.insert(bytes.end(), sector.begin(), sector.end());
    }
    return bytes;
}

/** Crash inside a metadata write window (leaves one Changing entry
 *  with a shadow copy), then warm-reset the machine. */
void
midUpdateCrash(CrashRig &rig)
{
    auto &ufs = rig.kernel->ufs();
    auto rootInode = ufs.iget(os::Ufs::kRootIno);
    auto block = ufs.bmap(os::Ufs::kRootIno, rootInode.value(), 0,
                          false);
    auto &buf = rig.kernel->bufferCache();
    auto ref = buf.bread(1, block.value());
    try {
        os::BufferCache::WriteWindow window(buf, ref);
        window.store32(0, 0xdeadbeef); // Half-smashed dirent.
        throw sim::CrashException(sim::CrashCause::KernelPanic,
                                  "mid-update",
                                  rig.machine.clock().now());
    } catch (const sim::CrashException &) {
        rig.machine.noteCrash(rig.machine.clock().now());
    }
    rig.rio->deactivate();
    rig.rio.reset();
    rig.kernel.reset();
    rig.machine.reset(sim::ResetKind::Warm);
}

} // namespace

TEST(WarmReboot, RecoversFilesAndDirectories)
{
    CrashRig rig;
    auto &vfs = rig.kernel->vfs();
    rio::wl::tolerate(vfs.mkdir("/a"));
    rio::wl::tolerate(vfs.mkdir("/a/b"));
    std::vector<u8> data(30000);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<u8>(i * 11);
    auto fd = vfs.open(rig.proc, "/a/b/f", os::OpenFlags::writeOnly());
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));

    rig.crashAndReset();
    core::WarmRebootReport report;
    auto rebooted = rig.recover(report);

    EXPECT_GT(report.metadataRestored, 0u);
    EXPECT_GT(report.dataPagesRestored, 0u);
    EXPECT_EQ(report.staleInodes, 0u);
    EXPECT_EQ(report.corruptEntries, 0u);

    std::vector<u8> out(30000);
    auto rfd = rebooted->vfs().open(rig.proc, "/a/b/f",
                                    os::OpenFlags::readOnly());
    ASSERT_TRUE(rfd.ok());
    ASSERT_TRUE(rebooted->vfs().read(rig.proc, rfd.value(), out).ok());
    EXPECT_EQ(out, data);
}

TEST(WarmReboot, DeletionsSurviveTheCrashToo)
{
    CrashRig rig;
    auto &vfs = rig.kernel->vfs();
    auto fd = vfs.open(rig.proc, "/doomed", os::OpenFlags::writeOnly());
    std::vector<u8> data(5000, 0x13);
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));
    rio::wl::tolerate(vfs.unlink("/doomed"));

    rig.crashAndReset();
    core::WarmRebootReport report;
    auto rebooted = rig.recover(report);
    // The file was deleted before the crash; it must stay deleted.
    EXPECT_EQ(rebooted->vfs().stat("/doomed").status(),
              support::OsStatus::NoEnt);
    EXPECT_EQ(report.staleInodes, 0u);
}

TEST(WarmReboot, OverwritesSurvive)
{
    CrashRig rig;
    auto &vfs = rig.kernel->vfs();
    std::vector<u8> v1(8192, 0x01), v2(8192, 0x02);
    auto fd = vfs.open(rig.proc, "/ver", os::OpenFlags::writeOnly());
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), v1));
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));
    auto fd2 = vfs.open(rig.proc, "/ver", os::OpenFlags::readWrite());
    rio::wl::tolerate(vfs.pwrite(rig.proc, fd2.value(), 0, v2));
    rio::wl::tolerate(vfs.close(rig.proc, fd2.value()));

    rig.crashAndReset();
    core::WarmRebootReport report;
    auto rebooted = rig.recover(report);
    std::vector<u8> out(8192);
    auto rfd = rebooted->vfs().open(rig.proc, "/ver",
                                    os::OpenFlags::readOnly());
    rio::wl::tolerate(rebooted->vfs().read(rig.proc, rfd.value(), out));
    EXPECT_EQ(out, v2);
}

TEST(WarmReboot, CleanPagesAreNotRestored)
{
    CrashRig rig;
    auto &vfs = rig.kernel->vfs();
    std::vector<u8> data(40000, 0x27);
    auto fd = vfs.open(rig.proc, "/flushed",
                       os::OpenFlags::writeOnly());
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));
    // Force everything to disk outside the policy (admin action).
    rig.kernel->ufs().syncAll(true);

    rig.crashAndReset();
    core::WarmRebootReport report;
    auto rebooted = rig.recover(report);
    // Nothing was dirty: nothing to restore, yet the data is there.
    EXPECT_EQ(report.dataPagesRestored, 0u);
    std::vector<u8> out(40000);
    auto rfd = rebooted->vfs().open(rig.proc, "/flushed",
                                    os::OpenFlags::readOnly());
    ASSERT_TRUE(rfd.ok());
    rio::wl::tolerate(rebooted->vfs().read(rig.proc, rfd.value(), out));
    EXPECT_EQ(out, data);
}

TEST(WarmReboot, DumpLandsOnSwapPartition)
{
    CrashRig rig;
    rig.crashAndReset();
    core::WarmReboot warm(rig.machine);
    rig.machine.swap().resetStats();
    auto report = warm.dumpAndRestoreMetadata();
    EXPECT_EQ(report.dumpBytes, rig.machine.mem().size());
    EXPECT_GE(rig.machine.swap().stats().sectorsWritten,
              rig.machine.mem().size() / sim::kSectorSize);
}

TEST(WarmReboot, PcStyleMemoryLossMeansNothingRecovered)
{
    CrashRig rig(/*survives=*/false);
    auto &vfs = rig.kernel->vfs();
    std::vector<u8> data(10000, 0x09);
    auto fd = vfs.open(rig.proc, "/lost", os::OpenFlags::writeOnly());
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));

    rig.crashAndReset(); // Memory is cleared by the reset.
    core::WarmReboot warm(rig.machine);
    auto report = warm.dumpAndRestoreMetadata();
    EXPECT_EQ(report.entriesSeen, 0u);
    EXPECT_EQ(report.metadataRestored, 0u);
}

TEST(WarmReboot, MidUpdateCrashRestoresShadowCopy)
{
    CrashRig rig;
    auto &vfs = rig.kernel->vfs();
    for (int i = 0; i < 3; ++i) {
        rio::wl::tolerate(vfs.open(rig.proc, "/pre" + std::to_string(i),
                 os::OpenFlags::writeOnly()));
    }
    // Open a write window on the root directory block and crash
    // inside it.
    midUpdateCrash(rig);

    core::WarmRebootReport report;
    auto rebooted = rig.recover(report);
    EXPECT_EQ(report.metadataFromShadow, 1u);
    // All three files are reachable: the torn dirent never became
    // visible.
    for (int i = 0; i < 3; ++i) {
        EXPECT_TRUE(rebooted->vfs()
                        .stat("/pre" + std::to_string(i))
                        .ok());
    }
    ASSERT_TRUE(rebooted->lastFsck().has_value());
    EXPECT_EQ(rebooted->lastFsck()->badDirents, 0u);
}

// --- Adversarial-image hardening (RestorePolicy). ------------------

TEST(WarmReboot, BadChecksumMetadataNeverReachesDisk)
{
    CrashRig rig;
    auto &vfs = rig.kernel->vfs();
    for (int i = 0; i < 4; ++i) {
        const std::string dir = "/q" + std::to_string(i);
        rio::wl::tolerate(vfs.mkdir(dir));
        auto fd = vfs.open(rig.proc, dir + "/f",
                           os::OpenFlags::writeOnly());
        std::vector<u8> data(4096, static_cast<u8>(i + 1));
        rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
        rio::wl::tolerate(vfs.close(rig.proc, fd.value()));
    }
    rig.crashAndReset();

    auto slots = dirtyMetadataSlots(rig.machine);
    ASSERT_FALSE(slots.empty());
    u8 *victim = registrySlot(rig.machine, slots[0]);
    const Addr page = getField<u64>(victim, Layout::kOffPhysAddr);
    const u32 block = getField<u32>(victim, Layout::kOffDiskBlock);
    ASSERT_NE(getField<u32>(victim, Layout::kOffChecksum), 0u);
    // Scribble the registered page: its checksum no longer matches.
    std::memset(rig.machine.mem().raw() + page, 0xAB, sim::kPageSize);

    const std::vector<u8> before = diskBlockBytes(rig.machine, block);
    core::WarmReboot hardened(rig.machine);
    auto report = hardened.dumpAndRestoreMetadata();
    EXPECT_GE(report.metadataChecksumBad, 1u);
    EXPECT_GE(report.recovery.metadataQuarantined, 1u);
    // The invariant: a known-bad page must never reach the disk. The
    // stale on-disk copy is byte-identical to before the restore.
    EXPECT_EQ(diskBlockBytes(rig.machine, block), before);

    // Contrast: the trusting policy pushes the garbage to disk.
    core::WarmReboot trusting(rig.machine,
                              core::RestorePolicy::trusting());
    auto report2 = trusting.dumpAndRestoreMetadata();
    EXPECT_GE(report2.metadataChecksumBad, 1u);
    EXPECT_EQ(report2.recovery.metadataQuarantined, 0u);
    const std::vector<u8> after = diskBlockBytes(rig.machine, block);
    EXPECT_NE(after, before);
    EXPECT_EQ(after[0], 0xAB);
}

TEST(WarmReboot, ContestedDiskBlockIsLeftToFsck)
{
    CrashRig rig;
    auto &vfs = rig.kernel->vfs();
    for (int i = 0; i < 4; ++i)
        rio::wl::tolerate(vfs.mkdir("/dup" + std::to_string(i)));
    rig.crashAndReset();

    auto slots = dirtyMetadataSlots(rig.machine);
    ASSERT_GE(slots.size(), 2u);
    u8 *first = registrySlot(rig.machine, slots[0]);
    const u32 block = getField<u32>(first, Layout::kOffDiskBlock);
    u8 *thief = nullptr;
    for (std::size_t i = 1; i < slots.size(); ++i) {
        u8 *slot = registrySlot(rig.machine, slots[i]);
        if (getField<u32>(slot, Layout::kOffDiskBlock) != block) {
            thief = slot;
            break;
        }
    }
    ASSERT_NE(thief, nullptr);
    // Cross-link: two surviving entries now claim the same block.
    putField<u32>(thief, Layout::kOffDiskBlock, block);

    const std::vector<u8> before = diskBlockBytes(rig.machine, block);
    core::WarmReboot hardened(rig.machine);
    auto report = hardened.dumpAndRestoreMetadata();
    // Both claimants are rejected; the contested block stays at the
    // on-disk copy for fsck to sort out.
    EXPECT_EQ(report.recovery.duplicateClaims, 2u);
    EXPECT_EQ(diskBlockBytes(rig.machine, block), before);

    // Trusting restores both claimants (last writer wins).
    core::WarmReboot trusting(rig.machine,
                              core::RestorePolicy::trusting());
    auto report2 = trusting.dumpAndRestoreMetadata();
    EXPECT_EQ(report2.recovery.duplicateClaims, 0u);
    EXPECT_EQ(report2.metadataRestored, report.metadataRestored + 2);
}

TEST(WarmReboot, TruncatedDumpFailsSafe)
{
    // A swap partition half the size of memory: the dump cannot fit.
    sim::MachineConfig small = machineConfig();
    small.swapBytes = 8ull << 20;
    small.requireSwapHoldsDump = false;
    CrashRig rig(small);
    auto &vfs = rig.kernel->vfs();
    std::vector<u8> data(20000, 0x44);
    auto fd = vfs.open(rig.proc, "/f", os::OpenFlags::writeOnly());
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));
    rig.crashAndReset();

    core::WarmReboot warm(rig.machine);
    rig.machine.swap().resetStats();
    auto report = warm.dumpAndRestoreMetadata();
    // The failure is recorded and no partial dump is written...
    EXPECT_FALSE(report.recovery.dumpOk);
    EXPECT_EQ(report.recovery.dumpShortfallBytes, 8ull << 20);
    EXPECT_EQ(rig.machine.swap().stats().sectorsWritten, 0u);
    // ...but the metadata restore still runs from the host image.
    EXPECT_GT(report.metadataRestored, 0u);

    // Step 2 has no dump to replay: skipped, not fabricated.
    core::RioOptions options;
    options.protection = rig.config.protection;
    options.maintainChecksums = true;
    rig.rio = std::make_unique<core::RioSystem>(rig.machine, options);
    auto rebooted =
        std::make_unique<os::Kernel>(rig.machine, rig.config);
    rebooted->boot(rig.rio.get(), false);
    warm.restoreData(rebooted->vfs(), report);
    EXPECT_TRUE(report.recovery.dataRestoreSkipped);
    EXPECT_EQ(report.dataPagesRestored, 0u);
}

TEST(WarmReboot, MidUpdateEntryWithoutShadowIsUnrestorable)
{
    CrashRig rig;
    // Dirty the root directory so beginWrite makes a shadow copy.
    for (int i = 0; i < 3; ++i) {
        rio::wl::tolerate(rig.kernel->vfs().open(rig.proc, "/pre" + std::to_string(i),
                               os::OpenFlags::writeOnly()));
    }
    midUpdateCrash(rig);

    const u64 index = changingSlot(rig.machine);
    ASSERT_NE(index, ~0ull);
    // The shadow pointer did not survive: no consistent source left
    // (the page itself is torn mid-update).
    putField<u64>(registrySlot(rig.machine, index),
                  Layout::kOffShadow, 0);

    // Hardened probes the page as a fallback candidate, finds it
    // fails the checksum, and quarantines rather than restoring a
    // torn block.
    core::WarmReboot warm(rig.machine);
    auto report = warm.dumpAndRestoreMetadata();
    EXPECT_EQ(report.metadataFromShadow, 0u);
    EXPECT_EQ(report.metadataFromPhysFallback, 0u);
    EXPECT_GE(report.recovery.metadataQuarantined, 1u);
    EXPECT_EQ(report.metadataUnrestorable, 0u);

    // Trusting never looks past the missing shadow: unrestorable.
    core::WarmReboot trusting(rig.machine,
                              core::RestorePolicy::trusting());
    auto report2 = trusting.dumpAndRestoreMetadata();
    EXPECT_EQ(report2.metadataFromShadow, 0u);
    EXPECT_EQ(report2.metadataUnrestorable, 1u);
}

TEST(WarmReboot, CorruptedShadowCopyIsQuarantined)
{
    CrashRig rig;
    // Dirty the root directory so beginWrite makes a shadow copy.
    for (int i = 0; i < 3; ++i) {
        rio::wl::tolerate(rig.kernel->vfs().open(rig.proc, "/pre" + std::to_string(i),
                               os::OpenFlags::writeOnly()));
    }
    midUpdateCrash(rig);

    const u64 index = changingSlot(rig.machine);
    ASSERT_NE(index, ~0ull);
    u8 *slot = registrySlot(rig.machine, index);
    ASSERT_NE(getField<u32>(slot, Layout::kOffChecksum), 0u);
    const Addr shadow = getField<u64>(slot, Layout::kOffShadow);
    const u32 block = getField<u32>(slot, Layout::kOffDiskBlock);
    ASSERT_NE(shadow, 0u);
    // The shadow page was scribbled over during the outage: it no
    // longer holds the last consistent contents.
    std::memset(rig.machine.mem().raw() + shadow, 0xCD,
                sim::kPageSize);

    const std::vector<u8> before = diskBlockBytes(rig.machine, block);
    core::WarmReboot hardened(rig.machine);
    auto report = hardened.dumpAndRestoreMetadata();
    EXPECT_EQ(report.recovery.shadowChecksumBad, 1u);
    EXPECT_GE(report.recovery.metadataQuarantined, 1u);
    EXPECT_EQ(report.metadataFromShadow, 0u);
    EXPECT_EQ(diskBlockBytes(rig.machine, block), before);

    // Trusting uses the smashed shadow anyway.
    core::WarmReboot trusting(rig.machine,
                              core::RestorePolicy::trusting());
    auto report2 = trusting.dumpAndRestoreMetadata();
    EXPECT_EQ(report2.metadataFromShadow, 1u);
    EXPECT_EQ(diskBlockBytes(rig.machine, block)[0], 0xCD);
}

TEST(WarmReboot, StaleInodeCounted)
{
    CrashRig rig;
    auto &vfs = rig.kernel->vfs();
    std::vector<u8> data(5000, 0x31);
    auto fd = vfs.open(rig.proc, "/ghost", os::OpenFlags::writeOnly());
    rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
    rio::wl::tolerate(vfs.close(rig.proc, fd.value()));
    const InodeNo ino = vfs.stat("/ghost").value().ino;

    rig.crashAndReset();

    // Sabotage: free the inode on disk between the crash and the
    // data restore (as if its metadata never survived).
    core::WarmReboot warm(rig.machine);
    auto report = warm.dumpAndRestoreMetadata();
    {
        // Zero the inode directly on disk, then fix the tree.
        sim::SimClock clock;
        std::vector<u8> itb(os::Ufs::kBlockSize);
        // Recompute geometry from a fresh boot later; here we just
        // clear every inode-table block copy of that inode type.
        os::Kernel probe(rig.machine, rig.config);
        // (boot runs fsck; afterwards remove the file's dirent so
        // the inode becomes orphaned and is freed on the NEXT fsck)
        core::RioOptions options;
        options.protection = rig.config.protection;
        core::RioSystem rio2(rig.machine, options);
        probe.boot(&rio2, false);
        rio::wl::tolerate(probe.ufs().remove("/ghost"));
        (void)itb;
        (void)clock;
        (void)ino;
        // Now run the data restore against the fs without the file.
        warm.restoreData(probe.vfs(), report);
        EXPECT_GT(report.staleInodes, 0u);
    }
}

// --- Double-crash sweep: a second crash at every recovery phase ----
// boundary. The checkpointed, re-entrant recovery must converge on
// the next pass, resume rather than redo (no fsync'd page restored
// twice), and leave the files byte-identical to a single-crash run.

namespace
{

sim::MachineConfig
sweepMachineConfig()
{
    sim::MachineConfig c = machineConfig(true);
    // One megabyte past the dump: room for the progress record in
    // the last swap sector (the 16 MB rig has none by design).
    c.swapBytes = 17ull << 20;
    return c;
}

struct SweepPoint
{
    core::RecoveryPhase phase;
    bool boundary; ///< Crash at step == total (vs. the first step).
    const char *name;
};

/** Models a second crash at the first step of one recovery phase
 *  that @p at accepts (arguments: step, total). */
class RecoveryCrasher final : public sim::EventSink
{
  public:
    RecoveryCrasher(sim::Machine &machine, core::RecoveryPhase phase,
                    std::function<bool(u64, u64)> at)
        : machine_(machine), kind_(core::recoveryEventKind(phase)),
          at_(std::move(at))
    {
    }

    bool fired() const { return fired_; }

    void
    onEvent(const sim::Event &event) override
    {
        if (fired_ || event.kind != kind_ || !at_(event.addr, event.detail))
            return;
        fired_ = true;
        throw sim::CrashException(sim::CrashCause::KernelPanic,
                                  "second crash during recovery",
                                  machine_.clock().now());
    }

  private:
    sim::Machine &machine_;
    sim::EventKind kind_;
    std::function<bool(u64, u64)> at_;
    bool fired_ = false;
};

/** The standard three-file workload the sweep recovers. */
std::vector<std::vector<u8>>
writeSweepFiles(CrashRig &rig)
{
    auto &vfs = rig.kernel->vfs();
    rio::wl::tolerate(vfs.mkdir("/sweep"));
    std::vector<std::vector<u8>> contents;
    for (int f = 0; f < 3; ++f) {
        std::vector<u8> data(20000 + 400 * f);
        for (std::size_t i = 0; i < data.size(); ++i)
            data[i] = static_cast<u8>(i * 7 + f);
        auto fd = vfs.open(rig.proc,
                           "/sweep/f" + std::to_string(f),
                           os::OpenFlags::writeOnly());
        rio::wl::tolerate(vfs.write(rig.proc, fd.value(), data));
        rio::wl::tolerate(vfs.close(rig.proc, fd.value()));
        contents.push_back(std::move(data));
    }
    return contents;
}

void
expectSweepFilesIntact(CrashRig &rig,
                       const std::vector<std::vector<u8>> &contents)
{
    for (std::size_t f = 0; f < contents.size(); ++f) {
        std::vector<u8> out(contents[f].size());
        auto fd = rig.kernel->vfs().open(
            rig.proc, "/sweep/f" + std::to_string(f),
            os::OpenFlags::readOnly());
        ASSERT_TRUE(fd.ok()) << "file " << f << " lost";
        ASSERT_TRUE(
            rig.kernel->vfs().read(rig.proc, fd.value(), out).ok());
        EXPECT_EQ(out, contents[f]) << "file " << f << " damaged";
    }
}

/** Run one full recovery pass (dump + boot + data restore). */
core::WarmRebootReport
recoverOnce(CrashRig &rig, core::WarmReboot &warm)
{
    core::WarmRebootReport report = warm.dumpAndRestoreMetadata();
    core::RioOptions options;
    options.protection = rig.config.protection;
    options.maintainChecksums = true;
    rig.rio = std::make_unique<core::RioSystem>(rig.machine, options);
    rig.kernel = std::make_unique<os::Kernel>(rig.machine, rig.config);
    rig.kernel->boot(rig.rio.get(), false);
    warm.restoreData(rig.kernel->vfs(), report);
    return report;
}

u32
checkpointFlags(sim::Machine &machine)
{
    const auto sector = machine.swap().peekSector(
        machine.swap().numSectors() - 1);
    if (support::loadLE<u32>(sector, 0) !=
        core::WarmReboot::kCkptMagic)
        return 0;
    return support::loadLE<u32>(sector, 8);
}

class WarmRebootSweep : public ::testing::TestWithParam<SweepPoint>
{};

} // namespace

TEST_P(WarmRebootSweep, SecondCrashConvergesWithoutDoubleRestore)
{
    const SweepPoint point = GetParam();
    CrashRig rig{sweepMachineConfig()};
    const auto contents = writeSweepFiles(rig);
    rig.crashAndReset();

    // Pass 1: crash at the requested point of recovery.
    core::WarmRebootReport pass1;
    RecoveryCrasher crasher(rig.machine, point.phase,
                            [&point](u64 step, u64 total) {
                                return point.boundary ? step == total
                                                      : step == 0;
                            });
    bool crashed = false;
    {
        core::WarmReboot warm(rig.machine);
        rig.machine.setEventSink(&crasher);
        try {
            pass1 = recoverOnce(rig, warm);
        } catch (const sim::CrashException &crash) {
            crashed = true;
            rig.machine.noteCrash(crash.when());
            rig.rio.reset();
            rig.kernel.reset();
            rig.machine.reset(sim::ResetKind::Warm);
        }
        rig.machine.setEventSink(nullptr);
    }
    ASSERT_TRUE(crasher.fired()) << "sink never reached "
                       << core::recoveryPhaseName(point.phase);
    ASSERT_TRUE(crashed);

    // For the fsync-before-checkpoint oracle: the platter image at
    // the moment the second crash hit.
    std::vector<u8> platter;
    const bool dataOracle =
        point.phase == core::RecoveryPhase::DataRestore &&
        point.boundary;
    if (dataOracle) {
        auto &disk = rig.machine.disk();
        platter.reserve(disk.numSectors() * sim::kSectorSize);
        for (SectorNo s = 0; s < disk.numSectors(); ++s) {
            const auto sector = disk.peekSector(s);
            platter.insert(platter.end(), sector.begin(),
                           sector.end());
        }
    }

    // Pass 2: plain recovery, no interference. Must converge.
    core::WarmReboot warm2(rig.machine);
    const core::WarmRebootReport pass2 = recoverOnce(rig, warm2);
    expectSweepFilesIntact(rig, contents);
    EXPECT_NE(checkpointFlags(rig.machine) &
                  core::WarmReboot::kFlagAllDone,
              0u)
        << "second pass did not retire the checkpoint";

    // Resume bookkeeping: any crash past the dump-complete record
    // resumes; a crash before the first checkpoint starts fresh.
    const bool expectResume =
        point.phase != core::RecoveryPhase::Dump || point.boundary;
    EXPECT_EQ(pass2.recovery.resumed, expectResume);

    if (point.phase == core::RecoveryPhase::MetadataRestore &&
        point.boundary) {
        // Every metadata entry was processed (and checkpointed) by
        // the dead pass: none may be pushed to disk twice.
        EXPECT_GT(pass1.entriesSeen, 0u);
        EXPECT_EQ(pass2.metadataRestored, 0u);
        EXPECT_GT(pass2.recovery.metadataSkippedResume, 0u);
        EXPECT_EQ(static_cast<core::RecoveryPhase>(
                      pass2.recovery.resumePhase),
                  core::RecoveryPhase::DataRestore);
    }
    if (point.phase == core::RecoveryPhase::DataRestore) {
        // Metadata completed in pass 1 either way.
        EXPECT_EQ(pass2.metadataRestored, 0u);
        EXPECT_GT(pass2.recovery.metadataSkippedResume, 0u);
    }
    if (dataOracle) {
        // The dead pass fsync'd every rebuilt file before its
        // checkpoint advanced, so the resumed pass replays nothing:
        // no data page is restored twice...
        EXPECT_GT(pass1.dataPagesRestored, 0u);
        EXPECT_EQ(pass2.dataPagesRestored, 0u);
        EXPECT_EQ(pass2.recovery.dataSkippedResume,
                  pass1.dataPagesRestored);
        // ...and the platter proves it: the recovered files' data
        // blocks are byte-identical to the image the second crash
        // left behind (extension of the disk-byte snapshot oracle).
        auto &ufs = rig.kernel->ufs();
        for (std::size_t f = 0; f < contents.size(); ++f) {
            auto ino =
                ufs.namei("/sweep/f" + std::to_string(f));
            ASSERT_TRUE(ino.ok());
            auto inode = ufs.iget(ino.value());
            ASSERT_TRUE(inode.ok());
            const u64 fileBlocks =
                (contents[f].size() + sim::kPageSize - 1) /
                sim::kPageSize;
            for (u64 fb = 0; fb < fileBlocks; ++fb) {
                auto block = ufs.bmap(ino.value(), inode.value(),
                                      fb, false);
                if (!block.ok() || block.value() == 0)
                    continue;
                const auto now =
                    diskBlockBytes(rig.machine, block.value());
                const auto *then =
                    platter.data() +
                    block.value() * sim::kPageSize;
                EXPECT_EQ(std::memcmp(now.data(), then,
                                      sim::kPageSize),
                          0)
                    << "file " << f << " block " << fb
                    << " rewritten by the resumed pass";
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    PhaseBoundaries, WarmRebootSweep,
    ::testing::Values(
        SweepPoint{core::RecoveryPhase::Dump, false, "DumpStart"},
        SweepPoint{core::RecoveryPhase::Dump, true, "DumpBoundary"},
        SweepPoint{core::RecoveryPhase::MetadataRestore, false,
                   "MetadataStart"},
        SweepPoint{core::RecoveryPhase::MetadataRestore, true,
                   "MetadataBoundary"},
        SweepPoint{core::RecoveryPhase::DataRestore, false,
                   "DataStart"},
        SweepPoint{core::RecoveryPhase::DataRestore, true,
                   "DataBoundary"}),
    [](const ::testing::TestParamInfo<SweepPoint> &info) {
        return std::string(info.param.name);
    });

TEST(WarmReboot, MidDataCrashRedoesOnlyTheOpenFile)
{
    CrashRig rig{sweepMachineConfig()};
    const auto contents = writeSweepFiles(rig);
    rig.crashAndReset();

    // Crash halfway through the data restore: past at least one
    // file boundary, short of the last.
    core::WarmRebootReport pass1;
    RecoveryCrasher crasher(rig.machine, core::RecoveryPhase::DataRestore,
                            [](u64 step, u64 total) {
                                return step * 2 >= total && step != total;
                            });
    bool crashed = false;
    {
        core::WarmReboot warm(rig.machine);
        rig.machine.setEventSink(&crasher);
        try {
            pass1 = recoverOnce(rig, warm);
        } catch (const sim::CrashException &crash) {
            crashed = true;
            rig.machine.noteCrash(crash.when());
            rig.rio.reset();
            rig.kernel.reset();
            rig.machine.reset(sim::ResetKind::Warm);
        }
        rig.machine.setEventSink(nullptr);
    }
    ASSERT_TRUE(crasher.fired());
    ASSERT_TRUE(crashed);

    core::WarmReboot warm2(rig.machine);
    const core::WarmRebootReport pass2 = recoverOnce(rig, warm2);
    expectSweepFilesIntact(rig, contents);
    EXPECT_TRUE(pass2.recovery.resumed);
    // Files fully rebuilt and fsync'd before the crash are skipped;
    // only the file that was mid-rebuild (plus the rest) is redone.
    EXPECT_GT(pass2.recovery.dataSkippedResume, 0u);
    EXPECT_LE(pass2.recovery.dataSkippedResume,
              pass1.dataPagesRestored);
    EXPECT_GT(pass2.dataPagesRestored, 0u);
}
