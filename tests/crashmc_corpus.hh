/**
 * @file
 * Promoted crash-point corpus: minimal repro records harvested from
 * exhaustive crashmc enumerations (bench/crashmc_main), replayed as
 * ordinary ctest cases by test_crashmc_corpus.cc.
 *
 * Each record pins one crash point — (workload, event index) under a
 * fixed (seed, ops) — together with the configuration it ran under
 * and the expected outcome. The failing-then-guarded pairs document
 * the endWrite commit window: under RestorePolicy::trusting() the
 * crash loses a completed update (the counterexample), while the
 * hardened physAddr-fallback restore recovers the very same point.
 *
 * To harvest new entries: run bench/crashmc_main with a weakened
 * configuration (RIO_MC_HARDENED=0, RIO_MC_SHADOW=0, or for the
 * ext3 journal workloads RIO_MC_JCHECKSUM=0 RIO_MC_TORN=1) and copy
 * the coordinates from the "counterexamples" array of crashmc.json.
 * Event indices are only meaningful for the exact (seed, ops,
 * shadowMetadata) they were recorded under — the trace is
 * deterministic in those, and test_crashmc_corpus.cc re-records it
 * before replaying.
 */

#ifndef RIO_TESTS_CRASHMC_CORPUS_HH
#define RIO_TESTS_CRASHMC_CORPUS_HH

#include "harness/crashmc.hh"

namespace tests
{

struct CrashMcCase
{
    rio::harness::McWorkloadKind workload;
    rio::u64 eventIndex;
    rio::u64 seed;
    rio::u32 ops;
    bool hardened;
    bool shadowMetadata;
    bool expectRecovered;
    const char *note;
    /** ext3 journal arms; at these defaults the fields are inert and
     *  every pre-existing record keeps its exact meaning. */
    bool journalChecksum = true;
    bool tornCommit = false;
};

inline constexpr CrashMcCase kCrashMcCorpus[] = {
    // The endWrite commit window, replayed as a failing-then-guarded
    // pair: events 60/61/62 of the seed-1 ops-4 shadow-flip trace
    // are the shadow-clear store (as a checked bus store), the same
    // store as a protocol field-write, and the pre-flip commit step.
    {rio::harness::McWorkloadKind::ShadowFlip, 60, 1, 4,
     /*hardened=*/false, /*shadow=*/true, /*recovers=*/false,
     "trusting: crash after the shadow-clear store loses the "
     "completed update (shadow-or-bust has no source)"},
    {rio::harness::McWorkloadKind::ShadowFlip, 60, 1, 4,
     /*hardened=*/true, /*shadow=*/true, /*recovers=*/true,
     "hardened: the same point recovers via the physAddr fallback"},
    {rio::harness::McWorkloadKind::ShadowFlip, 62, 1, 4,
     /*hardened=*/false, /*shadow=*/true, /*recovers=*/false,
     "trusting: crash at the pre-flip commit step"},
    {rio::harness::McWorkloadKind::ShadowFlip, 62, 1, 4,
     /*hardened=*/true, /*shadow=*/true, /*recovers=*/true,
     "hardened: the same commit-window point recovers"},

    // Shadowing disabled: a mid-update registry store strands the
    // entry with no consistent source; even the hardened restore
    // cannot conjure one. Documents why shadowMetadata exists.
    {rio::harness::McWorkloadKind::ShadowFlip, 27, 1, 4,
     /*hardened=*/true, /*shadow=*/false, /*recovers=*/false,
     "no shadow pages: mid-update metadata store is unrecoverable"},

    // The registry-install window: install used to store magic and
    // state := Active before the identity fields, so a crash between
    // them left an Active entry pairing the new page with the
    // previous occupant's kind/dev/ino/offset. Event 1729 of the
    // seed-6 ops-12 trace is the checked store right after one
    // install's magic store. With state := Active stored last the
    // point recovers.
    {rio::harness::McWorkloadKind::ShadowFlip, 1729, 6, 12,
     /*hardened=*/true, /*shadow=*/true, /*recovers=*/true,
     "install stores identity before state := Active"},

    // Journal workload commit-record boundaries: crashing at the
    // first and last disk-flush events of the bounded run must leave
    // a volume the journal replay brings back consistent.
    {rio::harness::McWorkloadKind::Journal, 0, 1, 4,
     /*hardened=*/true, /*shadow=*/true, /*recovers=*/true,
     "first commit-record flush boundary"},
    {rio::harness::McWorkloadKind::Journal, 11, 1, 4,
     /*hardened=*/true, /*shadow=*/true, /*recovers=*/true,
     "last flush boundary of the bounded run"},

    // ext3 journal modes: one commit boundary and one checkpoint
    // boundary per data mode (seed-1 ops-8 traces). Crashing at the
    // instant a commit stages its log writes — or mid-checkpoint,
    // between home-copy rewrites — must replay back to consistency.
    {rio::harness::McWorkloadKind::JournalWriteback, 9, 1, 8,
     /*hardened=*/true, /*shadow=*/true, /*recovers=*/true,
     "writeback: crash as a compound tx stages its log writes"},
    {rio::harness::McWorkloadKind::JournalWriteback, 10, 1, 8,
     /*hardened=*/true, /*shadow=*/true, /*recovers=*/true,
     "writeback: crash at the first checkpoint home-copy write"},
    {rio::harness::McWorkloadKind::JournalOrdered, 8, 1, 8,
     /*hardened=*/true, /*shadow=*/true, /*recovers=*/true,
     "ordered: crash at a commit boundary after the data flush"},
    {rio::harness::McWorkloadKind::JournalOrdered, 33, 1, 8,
     /*hardened=*/true, /*shadow=*/true, /*recovers=*/true,
     "ordered: crash between checkpoint write and head advance"},
    {rio::harness::McWorkloadKind::JournalData, 0, 1, 8,
     /*hardened=*/true, /*shadow=*/true, /*recovers=*/true,
     "data-journal: crash at the very first commit boundary"},
    {rio::harness::McWorkloadKind::JournalData, 12, 1, 8,
     /*hardened=*/true, /*shadow=*/true, /*recovers=*/true,
     "data-journal: crash mid-checkpoint with data in the log"},

    // The torn-commit window, replayed as a failing-then-guarded
    // pair: the corruptor scrambles a committed tx's payload between
    // crash and reboot while the commit record survives. Without the
    // commit checksum the replay applies garbage into an inode-table
    // block ("iget: inode has impossible type"); with it, the torn
    // tx is rejected and the very same point recovers.
    {rio::harness::McWorkloadKind::JournalOrdered, 34, 1, 8,
     /*hardened=*/true, /*shadow=*/true, /*recovers=*/false,
     "no commit checksum: torn committed tx replays garbage into "
     "the inode table",
     /*journalChecksum=*/false, /*tornCommit=*/true},
    {rio::harness::McWorkloadKind::JournalOrdered, 34, 1, 8,
     /*hardened=*/true, /*shadow=*/true, /*recovers=*/true,
     "commit checksum rejects the same torn tx at replay",
     /*journalChecksum=*/true, /*tornCommit=*/true},
};

} // namespace tests

#endif // RIO_TESTS_CRASHMC_CORPUS_HH
