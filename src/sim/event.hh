/**
 * @file
 * The one observation surface for crash-relevant steps. Every layer
 * that has an instant worth crashing at — a checked store landing
 * in physical memory, a write reaching the platter or the NV region,
 * a step of Rio's protection/registry protocol, an ext3 commit or
 * checkpoint, a journal-replay phase, a warm-reboot phase — reports
 * it as an Event to the machine's single EventSink slot
 * (Machine::setEventSink).
 *
 * A sink sees the post-step machine state for "landed" events and
 * the pre-step state for "about to" events (see each kind). A sink
 * that wants to model a crash at that instant throws from onEvent,
 * normally via Machine::crash. Sinks must not advance simulated time
 * or touch simulated state: that is what keeps event k on the same
 * instruction across record and replay (harness/crashmc).
 *
 * Detached cost is one pointer test per emission site.
 */

#ifndef RIO_SIM_EVENT_HH
#define RIO_SIM_EVENT_HH

#include "support/types.hh"

namespace rio::sim
{

enum class EventKind : u8
{
    /** A checked store landed in PhysMem (addr = pa, detail = len). */
    BusStore,
    /** Data-disk sectors reached the platter, synchronously or as a
     *  completed queued write (addr = start sector, detail = count).
     *  Torn writes applied while a crash is in progress do not fire. */
    DiskWrite,
    /** Bytes landed in the NV region (addr = offset, detail = len). */
    NvWrite,

    /** @{ Rio protocol (core/rio). addr = the page, except
     *  RioFieldWrite (the registry field's pa, after the store) and
     *  RioShadowCopy (the shadow page, after the copy). RioCommit
     *  fires *before* endWrite flips the entry back to Active. */
    RioOpenPage,
    RioClosePage,
    RioShadowCopy,
    RioFieldWrite,
    RioCommit,
    /** @} */

    /** @{ ext3 journal (os/journal), each *before* the step. */
    JournalTxCommit,          ///< Commit about to stage (addr = seq).
    JournalCheckpointWrite,   ///< Home write (addr = block).
    JournalCheckpointAdvance, ///< Head advance (addr = new head seq).
    /** @} */

    /** @{ Journal::replay phases (ext3 format). */
    ReplayScanDone,   ///< Staged, nothing applied (addr = tx count).
    ReplayApplyBlock, ///< Home write about to issue (addr = block).
    ReplayApplyDone,  ///< Applies drained (addr = blocks applied).
    ReplayJsbAdvance, ///< JSB about to advance (addr = new head seq).
    /** @} */

    /** @{ Warm reboot (core/warmreboot), one kind per RecoveryPhase
     *  in its order; addr = step, detail = total (step == total marks
     *  the phase boundary). Fires after any checkpoint covering the
     *  step has been written. */
    RecoveryDump,
    RecoveryMetadataRestore,
    RecoveryDataRestore,
    RecoveryDone,
    /** @} */
};

constexpr u32 kNumEventKinds =
    static_cast<u32>(EventKind::RecoveryDone) + 1;

struct Event
{
    EventKind kind = EventKind::BusStore;
    u64 addr = 0;
    u64 detail = 0;
};

class EventSink
{
  public:
    virtual ~EventSink() = default;

    virtual void onEvent(const Event &event) = 0;
};

/** Deliver one event to @p sink, if any. */
inline void
emit(EventSink *sink, EventKind kind, u64 addr, u64 detail = 0)
{
    if (sink != nullptr) [[unlikely]]
        sink->onEvent(Event{kind, addr, detail});
}

} // namespace rio::sim

#endif // RIO_SIM_EVENT_HH
