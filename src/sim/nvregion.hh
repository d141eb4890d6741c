/**
 * @file
 * Byte-addressable non-volatile memory region (battery-backed DRAM /
 * NVMM). Contents persist across Machine::crash and both reset kinds
 * — like the disk, unlike physical memory on cold-reset platforms.
 *
 * The paper's section 7 discusses battery-backed DRAM as the obvious
 * hardware answer to reliability; NvRegion models exactly that tier:
 * a side region the Rio registry and shadow pages can be mirrored
 * into, so even a platform that clears memory on reset (the Harp/PC
 * experience, section 6) can warm-reboot from the NV mirror.
 *
 * Like the Disk, the region is a *faulty* device: an optional
 * NvFaultSurface (implemented by fault/NvFaultModel) gets a crash
 * hook and may decay bits or tear the cache lines that were in
 * flight when power died. Writes are tracked at cache-line
 * granularity so the fault model can tear precisely the lines not
 * yet guaranteed durable (NVM's analogue of the disk's torn sector).
 */

#ifndef RIO_SIM_NVREGION_HH
#define RIO_SIM_NVREGION_HH

#include <deque>
#include <span>
#include <vector>

#include "sim/clock.hh"
#include "sim/config.hh"
#include "sim/event.hh"
#include "support/types.hh"

namespace rio::sim
{

class NvRegion;

/** NVM cache-line size: the torn-write granule. */
constexpr u64 kNvLineSize = 64;

/**
 * Distinct recently-written lines remembered for torn-line modeling.
 * Old entries age out; a crash only tears lines still "in flight",
 * and real write-pending queues are small.
 */
constexpr std::size_t kNvMaxRecentLines = 64;

/**
 * Fault hooks consulted by the NvRegion. The concrete model lives in
 * fault/ (NvFaultModel); sim/ sees only this interface so the
 * dependency arrow keeps pointing downward (same split as
 * DiskFaultSurface).
 */
class NvFaultSurface
{
  public:
    virtual ~NvFaultSurface() = default;

    /**
     * The machine crashed at @p when. The model may decay bits or
     * tear recently-written lines through the region's host window.
     */
    virtual void onCrash(NvRegion &nv, SimNs when) = 0;
};

struct NvStats
{
    u64 reads = 0;
    u64 writes = 0;
    u64 bytesRead = 0;
    u64 bytesWritten = 0;
    /** Crash hooks delivered to the fault surface. */
    u64 crashes = 0;
};

class NvRegion
{
    friend class Machine;

  public:
    NvRegion(u64 bytes, const CostModel &costs);

    u64 size() const { return store_.size(); }
    u64 numLines() const { return store_.size() / kNvLineSize; }

    /** Timed read through the NV controller. */
    void read(u64 offset, std::span<u8> out, SimClock &clock);

    /** Timed write; records the touched lines for torn-line faults. */
    void write(u64 offset, std::span<const u8> data, SimClock &clock);

    /**
     * The system crashed at @p when: hand the fault surface its
     * chance to decay bits / tear in-flight lines, then retire the
     * recent-line set (whatever survives is now durable).
     */
    void onCrash(SimNs when);

    const NvStats &stats() const { return stats_; }
    void resetStats() { stats_ = NvStats{}; }

    /** Install (or clear, with nullptr) the fault surface. Non-owning. */
    void setFaultSurface(NvFaultSurface *surface) { faults_ = surface; }

    /** @name Host-side access for tooling (no time charge). */
    ///@{
    u8 *raw() { return store_.data(); }
    const u8 *raw() const { return store_.data(); }
    std::span<const u8> image() const { return store_; }
    std::span<u8> hostLine(u64 line);
    ///@}

    /**
     * Lines written since the last crash, oldest first — the
     * candidates a crash-time fault model may tear. Distinct,
     * bounded at kNvMaxRecentLines.
     */
    const std::deque<u64> &recentLines() const { return recentLines_; }

  private:
    void noteLines(u64 offset, u64 len);
    void checkRange(u64 offset, u64 len, const char *what) const;

    std::vector<u8> store_;
    const CostModel &costs_;
    NvStats stats_;
    NvFaultSurface *faults_ = nullptr;
    /** NvWrite events; set only by Machine::setEventSink. */
    EventSink *sink_ = nullptr;
    std::deque<u64> recentLines_;
};

} // namespace rio::sim

#endif // RIO_SIM_NVREGION_HH
