/**
 * @file
 * The journaling layer, two engines behind one sink:
 *
 * Legacy (JournalMode::Legacy, the default): the original AdvFS-style
 * metadata WAL. Every metadata block update is appended to a
 * sequential log as a two-block record {header, image}; in-place
 * copies are delayed, and a log wrap checkpoints by flushing delayed
 * metadata. This engine is kept bit-for-bit so historical Table 1 /
 * Table 2 rows stay byte-identical.
 *
 * ext3-grade (Writeback / Ordered / Journal): compound transactions
 * batch many syscalls' block images in memory; a sim-time commit
 * timer (group commit) or a size budget closes the transaction and
 * writes it to a circular log as descriptor + raw images + commit
 * record. The commit record carries a checksum over the payload
 * (JBD2-style) so replay rejects torn commits. Home-location copies
 * are written only at checkpoint (write-ahead rule), and the log head
 * advances only after the home writes are durable (freeing rule) —
 * the journal superblock at the first log block records the head.
 * Data modes: Writeback lets file data go its own way, Ordered
 * flushes file data before the commit record (the FIFO disk queue
 * turns queue order into durability order), Journal routes data
 * blocks through the log too.
 *
 * Replay is idempotent and re-entrant: it walks transactions from the
 * journal superblock's head, validating sequence numbers and
 * checksums, applies the staged images in order, drains, and only
 * then advances the head — so a crash at any point during replay or
 * checkpoint leaves a log the next replay handles identically.
 */

#ifndef RIO_OS_JOURNAL_HH
#define RIO_OS_JOURNAL_HH

#include <functional>
#include <map>
#include <unordered_map>

#include "os/buf.hh"
#include "os/kproc.hh"
#include "sim/disk.hh"
#include "sim/machine.hh"

namespace rio::os
{

/** What replay found and did (ext3 engine; legacy fills applied). */
struct JournalReplayStats
{
    u64 applied = 0;          ///< Block images written home.
    u64 transactions = 0;     ///< Valid transactions applied.
    u64 rejectedChecksum = 0; ///< Commits rejected by payload sum.
    bool sawExt3 = false;     ///< An ext3 journal superblock parsed.
};

class Journal : public JournalSink
{
  public:
    /** @{ Legacy record format. */
    static constexpr u32 kRecordMagic = 0x10C0FFEE;
    /** @} */

    /** @{ ext3-grade on-disk format. The journal superblock (JSB)
     *  sits at logStart; the circular data area is the remaining
     *  logBlocks-1 slots. */
    static constexpr u32 kJsbMagic = 0x4A524E31;  ///< "JRN1"
    static constexpr u32 kDescMagic = 0x4A445343; ///< "JDSC"
    static constexpr u32 kCommitMagic = 0x4A434D54; ///< "JCMT"
    static constexpr u64 kJsbFlags = 4; ///< bit0: commits checksummed.
    static constexpr u64 kJsbHeadSeq = 8;
    static constexpr u64 kJsbHeadSlot = 16;
    static constexpr u64 kJsbDataSlots = 20;
    static constexpr u64 kJsbChecksum = 24;
    static constexpr u64 kDescSeq = 8;
    static constexpr u64 kDescCount = 16;
    static constexpr u64 kDescEntries = 20; ///< 8 B each: home, flags.
    static constexpr u64 kCmtSeq = 8;
    static constexpr u64 kCmtCount = 16;
    static constexpr u64 kCmtChecksum = 20; ///< Over desc + images.
    /** @} */

    Journal(sim::Machine &machine, KProcTable &procs, BufferCache &buf,
            const KernelConfig &config);

    /** Bind to the mounted file system's log area. */
    void attach(u32 logStart, u32 logBlocks, sim::Disk &disk,
                IoRetryPolicy policy = {});

    /** @{ JournalSink. */
    void appendMetadata(DevNo dev, BlockNo block,
                        Addr pageAddr) override;
    void appendData(DevNo dev, BlockNo block, Addr pageAddr) override;
    bool ownsWriteback() const override { return ext3(); }
    bool wantsDataJournal() const override
    {
        return ext3() && config_.journal.mode == JournalMode::Journal;
    }
    bool fetchBlock(DevNo dev, BlockNo block,
                    std::span<u8> out) override;
    void commitTransaction() override;
    void checkpointNow() override;
    /** @} */

    /**
     * Legacy: push buffered records to the log as one sequential
     * write (group commit, [Hagmann87]). ext3: commit the open
     * compound transaction (the update daemon's path).
     */
    void flushLogBuffer();

    /** Group-commit timer: called at syscall entry; commits the open
     *  transaction once it ages past JournalConfig::commitIntervalNs
     *  (no-op under Legacy). */
    void tick();

    /** Log write-back failure escalation (read-only remount). */
    void setDegradeHandler(std::function<void()> handler)
    {
        degrade_ = std::move(handler);
    }

    /** Ordered mode: flush file data before the commit record. */
    void setOrderedFlush(std::function<void()> flush)
    {
        orderedFlush_ = std::move(flush);
    }

    /** Legacy: records appended. ext3: block images logged. */
    u64 recordsWritten() const
    {
        return ext3() ? blocksLogged_ : seq_;
    }

    /** Group/transaction writes the log gave up on after retries. */
    u64 lostGroups() const { return ext3() ? lostTx_ : lostGroups_; }

    /** @{ ext3 accounting. */
    u64 transactionsCommitted() const { return txCommitted_; }
    u64 checkpointsDone() const { return checkpointsDone_; }
    bool txOpen() const { return txOpen_; }
    u32 openTxBlocks() const { return static_cast<u32>(tx_.size()); }
    /** @} */

    /**
     * Boot-time recovery, format auto-detected: a valid ext3 journal
     * superblock routes to the transaction walk; anything else falls
     * back to the legacy record scan. The ext3 walk reports its
     * phases (EventKind::Replay*) to @p sink.
     * @return Number of block images applied.
     */
    static u64 replay(sim::Disk &disk, sim::SimClock &clock,
                      const IoRetryPolicy &policy = {},
                      sim::EventSink *sink = nullptr,
                      JournalReplayStats *stats = nullptr);

  private:
    /** @{ Legacy engine constants. */
    static constexpr u32 kGroupRecords = 16;
    static constexpr u32 kGroupUpdateBudget = 64;
    /** @} */

    struct TxBlock
    {
        BlockNo home = 0;
        bool data = false;
        std::vector<u8> image;
    };

    bool ext3() const { return mode_ != JournalMode::Legacy; }
    void append(DevNo dev, BlockNo block, Addr pageAddr, bool isData);
    void txBegin();
    void txAppend(BlockNo block, Addr pageAddr, bool isData);
    void txCommit();
    void checkpoint();
    u32 freeSlots() const { return dataSlots_ - usedSlots_; }
    void writeJsb();
    void degradeNow();
    void legacyAppend(DevNo dev, BlockNo block, Addr pageAddr);

    static u64 replayExt3(sim::Disk &disk, sim::SimClock &clock,
                          const IoRetryPolicy &policy, u32 logStart,
                          const std::vector<u8> &jsb,
                          sim::EventSink *sink,
                          JournalReplayStats *stats);
    static u64 replayLegacy(sim::Disk &disk, sim::SimClock &clock,
                            const IoRetryPolicy &policy, u32 logStart,
                            u32 logBlocks);

    sim::Machine &machine_;
    KProcTable &procs_;
    BufferCache &buf_;
    const KernelConfig &config_;
    sim::Disk *disk_ = nullptr;
    IoRetryPolicy policy_;
    JournalMode mode_ = JournalMode::Legacy;
    u32 logStart_ = 0;

    /** @{ Legacy engine state. */
    u64 lostGroups_ = 0;
    u32 capacity_ = 0; ///< Records (2 blocks each).
    u64 seq_ = 0;
    std::vector<u8> staging_;
    std::vector<u8> groupBuffer_;
    u32 buffered_ = 0;
    u32 groupUpdates_ = 0;
    u64 groupFirstSeq_ = 0;
    /** @} */

    /** @{ ext3 engine state. */
    u32 dataSlots_ = 0;   ///< Circular log slots (logBlocks - 1).
    u32 maxTxBlocks_ = 0; ///< Size budget, clamped to fit the log.
    std::vector<TxBlock> tx_;
    std::unordered_map<u64, size_t> txIndex_; ///< home -> tx_ index.
    bool txOpen_ = false;
    bool inCommit_ = false;
    SimNs txOpenedAt_ = 0;
    u64 nextSeq_ = 1;  ///< Next transaction sequence number.
    u64 headSeq_ = 1;  ///< First live (uncheckpointed) sequence.
    u32 headSlot_ = 0; ///< Slot of the first live transaction.
    u32 tailSlot_ = 0; ///< Slot the next commit writes to.
    u32 usedSlots_ = 0;
    u32 commitsSinceCkpt_ = 0;
    /** Committed-but-not-checkpointed images, by home block;
     *  std::map so checkpoint issues home writes in elevator order. */
    std::map<BlockNo, std::vector<u8>> checkpointMap_;
    u64 txCommitted_ = 0;
    u64 blocksLogged_ = 0;
    u64 checkpointsDone_ = 0;
    u64 lostTx_ = 0;
    bool degraded_ = false;
    std::function<void()> degrade_;
    std::function<void()> orderedFlush_;
    /** @} */
};

} // namespace rio::os

#endif // RIO_OS_JOURNAL_HH
