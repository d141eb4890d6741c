/**
 * @file
 * The simulated disk: a sector store with an early-90s SCSI latency
 * model (distance-scaled seek, rotational delay, media transfer) and a
 * FIFO write queue for asynchronous writes.
 *
 * Crash semantics mirror the paper: queued writes that have not
 * reached the platter are lost, and the write in flight at the moment
 * of the crash tears — partially written, with one garbage sector at
 * the boundary (section 2.1 notes disks share this window with Rio's
 * open-for-write pages).
 *
 * The disk is additionally a *faulty* device. Every transfer consults
 * an optional DiskFaultSurface (implemented by fault/DiskFaultModel)
 * which can fail the op transiently, and the disk keeps a persistent
 * bad-sector map — latent media defects that survive simulated
 * reboots and fail every access until the sector is remapped to one
 * of a finite pool of spares.
 */

#ifndef RIO_SIM_DISK_HH
#define RIO_SIM_DISK_HH

#include <deque>
#include <span>
#include <unordered_set>
#include <vector>

#include "sim/clock.hh"
#include "sim/config.hh"
#include "sim/event.hh"
#include "support/rng.hh"
#include "support/types.hh"

namespace rio::sim
{

class Disk;

/** Outcome of a disk transfer. Callers must not ignore failures. */
enum class [[nodiscard]] DiskStatus : u8
{
    Ok = 0,
    /** Op failed this time (bus glitch, ECC hiccup); retry may work. */
    TransientError,
    /** A sector in the range is latently bad; fails until remapped. */
    BadSector,
};

inline const char *
diskStatusName(DiskStatus status)
{
    switch (status) {
    case DiskStatus::Ok: return "ok";
    case DiskStatus::TransientError: return "transient";
    case DiskStatus::BadSector: return "bad-sector";
    }
    return "?";
}

/**
 * Fault hooks consulted by the Disk. The concrete model lives in
 * fault/ (DiskFaultModel); sim/ sees only this interface so the
 * dependency arrow keeps pointing downward.
 */
class DiskFaultSurface
{
  public:
    virtual ~DiskFaultSurface() = default;

    /** Decide whether this op fails with a transient error. */
    virtual bool transientError(bool isWrite, SectorNo start,
                                u64 count) = 0;

    /**
     * The machine crashed at @p when. The model may mark latent bad
     * sectors or decay media through the Disk's host interface.
     */
    virtual void onCrash(Disk &disk, SimNs when) = 0;
};

struct DiskStats
{
    u64 reads = 0;
    u64 writes = 0;
    u64 sectorsRead = 0;
    u64 sectorsWritten = 0;
    u64 queuedWrites = 0;
    SimNs busyNs = 0;
    /** Ops failed by the fault surface's transient dice. */
    u64 transientErrors = 0;
    /** Ops failed because the range touched a latent bad sector. */
    u64 badSectorErrors = 0;
    /** Bad sectors successfully remapped onto spares. */
    u64 sectorsRemapped = 0;
    /** Remap requests refused because the spare pool was empty. */
    u64 remapExhausted = 0;
    /** Writes clamped at the device end instead of overrunning. */
    u64 clampedWrites = 0;
};

class Disk
{
    friend class Machine;

  public:
    Disk(u64 bytes, const CostModel &costs, support::Rng rng);

    u64 numSectors() const { return numSectors_; }

    /**
     * Synchronous read. Waits for the in-flight transfer and any
     * overlapping queued write, then occupies the head.
     * @param overlapNs Time the transfer could overlap with work the
     *        caller already did (sequential readahead): subtracted
     *        from the visible service time. Queue waits still apply.
     * On failure the out buffer contents are unspecified.
     */
    DiskStatus read(SectorNo start, u64 count, std::span<u8> out,
                    SimClock &clock, SimNs overlapNs = 0);

    /** Synchronous write; waits behind the write queue (FIFO). */
    DiskStatus write(SectorNo start, u64 count,
                     std::span<const u8> data, SimClock &clock);

    /**
     * Asynchronous write: queue and return immediately. Data is
     * copied; it reaches the platter at a future simulated time.
     * Faults are evaluated at queue time (nothing observes async
     * completion): on failure nothing is queued.
     */
    DiskStatus queueWrite(SectorNo start, u64 count,
                          std::span<const u8> data, SimClock &clock);

    /** Apply queued writes whose completion time has passed. */
    void poll(SimNs now);

    /** Wait until the queue is empty (advances the clock). */
    void drain(SimClock &clock);

    /** Pending queued writes not yet on the platter. */
    std::size_t queueDepth() const { return queue_.size(); }

    /**
     * The system crashed at @p when: writes already complete are
     * applied; the in-flight write tears; the rest are lost. The
     * fault surface (if any) then gets a chance to decay media.
     * @return Number of queued writes lost.
     */
    u64 crashDropQueue(SimNs when);

    const DiskStats &stats() const { return stats_; }
    void resetStats() { stats_ = DiskStats{}; }

    /** Install (or clear, with nullptr) the fault surface. Non-owning. */
    void setFaultSurface(DiskFaultSurface *surface) { faults_ = surface; }

    /** @name Bad-sector map (persistent across simulated reboots). */
    ///@{
    /** Mark a latent defect. Accesses covering it fail until remapped. */
    void markBadSector(SectorNo sector);
    bool sectorBad(SectorNo sector) const
    {
        return badSectors_.count(sector) != 0;
    }
    u64 badSectorCount() const { return badSectors_.size(); }
    /**
     * Remap a bad sector onto a spare: the mark clears and the sector
     * reads back as zeros (fresh media — the old payload is gone).
     * @return false when the spare pool is exhausted (sector stays bad)
     *         or the sector was not bad.
     */
    bool remapSector(SectorNo sector);
    void setSpareSectors(u64 spares) { spareSectors_ = spares; }
    u64 spareSectors() const { return spareSectors_; }
    ///@}

    /** Host-side access for verification tooling (no time charge). */
    std::span<const u8> peekSector(SectorNo sector) const;
    std::span<u8> hostSector(SectorNo sector);

  private:
    struct Pending
    {
        SectorNo start;
        u64 count;
        std::vector<u8> data;
        SimNs startTime;
        SimNs completeTime;
    };

    SimNs serviceTime(SectorNo start, u64 count);
    void apply(const Pending &pending);
    void doTransfer(SectorNo start, u64 count, SimClock &clock,
                    bool is_write, SimNs overlapNs = 0);
    /** Fault check shared by the sync and queued paths. */
    DiskStatus faultCheck(bool isWrite, SectorNo start, u64 count);
    bool rangeHasBadSector(SectorNo start, u64 count) const;
    /** Clamp a write range at the device end; true if anything left. */
    bool clampRange(SectorNo start, u64 &count);

    u64 numSectors_;
    std::vector<u8> store_;
    const CostModel &costs_;
    support::Rng rng_;
    SectorNo head_ = 0;
    SimNs lastComplete_ = 0;
    std::deque<Pending> queue_;
    DiskStats stats_;
    DiskFaultSurface *faults_ = nullptr;
    /** DiskWrite events; set only by Machine::setEventSink (the data
     *  disk only: swap traffic is recovery's own). */
    EventSink *sink_ = nullptr;
    std::unordered_set<SectorNo> badSectors_;
    u64 spareSectors_ = 0;
};

} // namespace rio::sim

#endif // RIO_SIM_DISK_HH
