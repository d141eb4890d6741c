/**
 * @file
 * The simulated machine: physical memory, MMU (page table + TLB +
 * KSEG control), memory bus, data disk and swap disk, and the
 * simulated clock. The OS layer (os::Kernel) runs on top of this.
 *
 * A crash never kills the host process; it propagates as a
 * CrashException to the harness, which calls noteCrash() to apply the
 * hardware-level consequences (lost/torn disk queue entries) and then
 * reset() to reboot. Whether memory survives the reset is a property
 * of the platform (section 5: DEC Alphas preserve memory, the PCs the
 * authors tested do not).
 */

#ifndef RIO_SIM_MACHINE_HH
#define RIO_SIM_MACHINE_HH

#include <memory>

#include "sim/audit.hh"
#include "sim/clock.hh"
#include "sim/config.hh"
#include "sim/cpu.hh"
#include "sim/crash.hh"
#include "sim/disk.hh"
#include "sim/event.hh"
#include "sim/membus.hh"
#include "sim/nvregion.hh"
#include "sim/pagetable.hh"
#include "sim/physmem.hh"
#include "sim/tlb.hh"
#include "support/rng.hh"

namespace rio::sim
{

enum class ResetKind
{
    Warm, ///< Reset without clearing memory (if the platform allows).
    Cold  ///< Power-cycle: memory contents are lost.
};

class Machine
{
  public:
    explicit Machine(const MachineConfig &config);

    Machine(const Machine &) = delete;
    Machine &operator=(const Machine &) = delete;

    const MachineConfig &config() const { return config_; }

    SimClock &clock() { return clock_; }
    PhysMem &mem() { return mem_; }
    PageTable &pageTable() { return pageTable_; }
    Tlb &tlb() { return tlb_; }
    Cpu &cpu() { return cpu_; }
    MemBus &bus() { return bus_; }
    Disk &disk() { return disk_; }
    Disk &swap() { return swap_; }
    support::Rng &rng() { return rng_; }

    /**
     * The non-volatile memory region, or nullptr when the machine is
     * not fitted with one (MachineConfig::nvBytes == 0). Contents
     * persist across crash and both reset kinds.
     */
    NvRegion *nv() { return nv_.get(); }

    /**
     * The dynamic store audit, or nullptr when not enabled. Enabled
     * at construction in RIO_AUDIT builds; enableStoreAudit() turns
     * it on at run time in any build.
     */
    StoreAudit *audit() { return audit_.get(); }
    StoreAudit &enableStoreAudit();

    /**
     * The single event slot (sim/event.hh): every crash-relevant step
     * — bus stores, data-disk and NV writes, and the Rio, journal and
     * warm-reboot protocol steps emitted through this machine — goes
     * to @p sink. Non-owning; nullptr detaches. The slot survives
     * crash and reset: detach before the sink goes away.
     */
    void setEventSink(EventSink *sink);
    EventSink *eventSink() const { return sink_; }

    /** Report one protocol step to the attached sink, if any. */
    void
    emit(EventKind kind, u64 addr, u64 detail = 0) const
    {
        sim::emit(sink_, kind, addr, detail);
    }

    /**
     * Crash the machine: apply disk-queue loss/tearing and raise the
     * exception that unwinds to the harness.
     */
    [[noreturn]] void crash(CrashCause cause, const std::string &msg);

    /** Bookkeeping when a CrashException from a component unwinds. */
    void noteCrash(SimNs when);

    /**
     * Firmware reset: flush TLB, reset CPU control state, scrub or
     * preserve memory depending on the platform and @p kind, charge
     * firmware boot time. The OS must then be re-booted on top.
     */
    void reset(ResetKind kind);

    bool crashed() const { return crashed_; }
    u64 crashCount() const { return crashCount_; }
    u64 lostQueuedWrites() const { return lostQueuedWrites_; }

  private:
    MachineConfig config_;
    SimClock clock_;
    support::Rng rng_;
    PhysMem mem_;
    PageTable pageTable_;
    Tlb tlb_;
    Cpu cpu_;
    MemBus bus_;
    Disk disk_;
    Disk swap_;
    std::unique_ptr<NvRegion> nv_;
    std::unique_ptr<StoreAudit> audit_;
    EventSink *sink_ = nullptr;
    bool crashed_ = false;
    u64 crashCount_ = 0;
    u64 lostQueuedWrites_ = 0;
};

} // namespace rio::sim

#endif // RIO_SIM_MACHINE_HH
