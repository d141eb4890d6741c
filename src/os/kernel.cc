#include "os/kernel.hh"

#include "os/ioretry.hh"
#include "support/bytes.hh"

namespace rio::os
{

namespace
{

sim::CostModel
zeroCosts()
{
    sim::CostModel costs;
    costs.diskControllerNs = 0;
    costs.diskFullSeekNs = 0;
    costs.diskAvgRotNs = 0;
    costs.diskBytesPerNs = 1e9; // Effectively instantaneous.
    return costs;
}

} // namespace

Kernel::Kernel(sim::Machine &machine, const KernelConfig &config)
    : machine_(machine),
      config_(config),
      ramCosts_(zeroCosts()),
      procs_(machine, machine.rng().fork()),
      heap_(machine, procs_),
      kcopy_(machine, procs_),
      locks_(machine, procs_),
      buf_(machine, procs_, heap_, kcopy_, locks_, config_),
      ubc_(machine, procs_, heap_, kcopy_, locks_, config_),
      ufs_(machine, procs_, kcopy_, locks_, config_, buf_, ubc_),
      journal_(machine, procs_, buf_, config_),
      vfs_(machine, procs_, heap_, config_, ufs_, ubc_, buf_)
{
    kcopy_.setHeapHint(&heap_);
    locks_.setLockdep(config_.lockdep);
    if (config_.fs == FsKind::Mfs) {
        ramDisk_ = std::make_unique<sim::Disk>(
            machine.config().diskBytes, ramCosts_,
            machine.rng().fork());
    }
    vfs_.setTickHook([this] { tick(); });
}

sim::Disk &
Kernel::fsDisk()
{
    return ramDisk_ ? *ramDisk_ : machine_.disk();
}

void
Kernel::boot(CacheGuard *guard, bool format)
{
    CacheGuard &activeGuard = guard ? *guard : nullGuard_;
    sim::Disk &disk = fsDisk();

    machine_.pageTable().initIdentity();
    machine_.tlb().flushAll();
    heap_.init();
    activeGuard.kernelBooting();
    buf_.init(activeGuard, disk);
    ubc_.init(activeGuard, ufs_);

    if (config_.fs == FsKind::Mfs) {
        // A memory file system starts empty every boot.
        format = true;
    }
    if (format)
        Ufs::mkfs(disk, machine_.clock());

    // Peek the clean flag (device-level read, as boot code does). A
    // persistently unreadable superblock leaves the zeroed image; the
    // magic check routes that to the mount-failure panic below
    // instead of trusting garbage.
    std::vector<u8> sb(Ufs::kBlockSize, 0);
    (void)retryRead(disk, 0, sim::kSectorsPerBlock, sb,
                    machine_.clock(), config_.ioRetry);
    const u32 magic = support::loadLE<u32>(sb, Ufs::kSbMagic);
    const u32 clean = support::loadLE<u32>(sb, Ufs::kSbClean);

    journalReplayed_ = 0;
    fsck_.reset();
    if (magic == Ufs::kSuperMagic && clean == 0) {
        if (config_.fs == FsKind::Journal) {
            journalReplayed_ =
                Journal::replay(disk, machine_.clock(),
                                config_.ioRetry, machine_.eventSink());
        }
        fsck_ = runFsck(disk, machine_.clock(), true, config_.ioRetry);
    }

    auto mounted = ufs_.mount(1, disk);
    if (!mounted.ok()) {
        machine_.crash(sim::CrashCause::KernelPanic,
                       "panic: cannot mount root file system");
    }
    if (config_.fs == FsKind::Journal) {
        journal_.attach(ufs_.geometry().logStart,
                        ufs_.geometry().logBlocks, disk,
                        config_.ioRetry);
        buf_.setJournalSink(&journal_);
        ufs_.setJournal(&journal_);
        journal_.setDegradeHandler(
            [this] { ufs_.degradeReadOnly(); });
        journal_.setOrderedFlush([this] { ubc_.flushAll(false); });
    }
    // Persistent metadata write-back failure ends in a read-only
    // remount, not silent loss.
    buf_.setDegradeHandler([this] { ufs_.degradeReadOnly(); });

    nextUpdate_ = machine_.clock().now() + config_.updateIntervalNs;
}

void
Kernel::shutdown()
{
    if (ufs_.mounted())
        ufs_.unmount();
}

void
Kernel::tick()
{
    fsDisk().poll(machine_.clock().now());

    // Group-commit timer (ext3 modes; a no-op under Legacy, so the
    // historical presets are untouched).
    if (config_.fs == FsKind::Journal)
        journal_.tick();

    if (machine_.clock().now() < nextUpdate_)
        return;
    nextUpdate_ = machine_.clock().now() + config_.updateIntervalNs;

    procs_.enter(ProcId::UpdateDaemon);
    if (config_.rio && !config_.adminForceSync) {
        if (config_.rioIdleFlush) {
            // Future-work extension (paper section 2.3): trickle
            // dirty blocks to disk in the background. Not a
            // reliability write — memory is already permanent — it
            // just shrinks warm-reboot restores and eviction stalls.
            ufs_.pushSuperCounters();
            buf_.flushDelwri(false);
            ubc_.flushAll(false);
        }
        // Rio: no reliability-induced writes, ever.
        return;
    }
    // The classic update daemon: push delayed metadata and aged
    // dirty file data, asynchronously.
    if (config_.fs == FsKind::Journal)
        journal_.flushLogBuffer();
    ufs_.pushSuperCounters();
    buf_.flushDelwri(false);
    switch (config_.data) {
      case DataPolicy::Async64K:
      case DataPolicy::Delayed:
        ubc_.flushAll(false);
        break;
      case DataPolicy::SyncOnWrite:
      case DataPolicy::Never:
        break;
    }
}

} // namespace rio::os
