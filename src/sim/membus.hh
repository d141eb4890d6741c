/**
 * @file
 * The memory bus: every simulated-kernel load and store goes through
 * here. This is the single enforcement point for the semantics the
 * paper's protection scheme depends on:
 *
 *  - Normal kernel virtual addresses are translated via TLB + page
 *    table; invalid addresses raise machine checks, stores to
 *    read-only pages raise protection faults.
 *  - KSEG addresses (top two bits 10) bypass the TLB and address
 *    physical memory directly — *unless* the CPU's ABOX mapKseg bit
 *    forces them through the TLB (Rio's VM protection mode).
 *  - In code-patching mode, a software check inserted before every
 *    kernel store consults the protection policy instead, at a per-
 *    store time cost (the 20-50% slowdown of section 2.1).
 *
 * A wild store with a random 64-bit address therefore almost always
 * raises a machine check, reproducing the paper's observation that on
 * a 64-bit machine most errors are first detected by an illegal
 * address.
 */

#ifndef RIO_SIM_MEMBUS_HH
#define RIO_SIM_MEMBUS_HH

#include <span>

#include "sim/clock.hh"
#include "sim/config.hh"
#include "sim/cpu.hh"
#include "sim/crash.hh"
#include "sim/event.hh"
#include "sim/pagetable.hh"
#include "sim/physmem.hh"
#include "sim/tlb.hh"
#include "support/types.hh"

namespace rio::sim
{

class StoreAudit;

/**
 * Hook implemented by rio::core::Protection. Supplies the
 * code-patching address check and observes protection stops (the
 * "saves" counted in section 3.3).
 */
class ProtectionPolicy
{
  public:
    virtual ~ProtectionPolicy() = default;

    /** Code-patching check: would this store corrupt the file cache? */
    virtual bool patchCheckBlocksStore(Addr pa) const = 0;

    /** A store was stopped (by VM protection or a patch check). */
    virtual void onProtectionStop(Addr pa) = 0;
};

/**
 * Bus traffic counters. Scalar accesses count one load/store each;
 * bulk operations (readBytes/writeBytes/copy/set) count one load
 * and/or store per page-sized chunk they touch — i.e. per bus access
 * performed — with the byte volume in bytesCopied. A bulk op fully
 * inside one page therefore counts exactly like a scalar access.
 */
struct BusStats
{
    u64 loads = 0;
    u64 stores = 0;
    u64 bytesCopied = 0;
    u64 machineChecks = 0;
    u64 protectionFaults = 0;
};

class MemBus
{
    friend class Machine;

  public:
    MemBus(PhysMem &mem, PageTable &pt, Tlb &tlb, Cpu &cpu,
           SimClock &clock, const CostModel &costs);

    /** @{ Scalar accesses (little-endian, naturally aligned). */
    u8 load8(Addr va);
    u16 load16(Addr va);
    u32 load32(Addr va);
    u64 load64(Addr va);
    void store8(Addr va, u8 value);
    void store16(Addr va, u16 value);
    void store32(Addr va, u32 value);
    void store64(Addr va, u64 value);
    /** @} */

    /** Bulk read; charges copy cost. */
    void readBytes(Addr va, std::span<u8> out);

    /** Bulk write; charges copy cost and patch checks. */
    void writeBytes(Addr va, std::span<const u8> in);

    /** Memory-to-memory copy within simulated memory. */
    void copy(Addr dst, Addr src, u64 n);

    /** Fill @p n bytes at @p dst with @p value. */
    void set(Addr dst, u8 value, u64 n);

    /**
     * Translate @p va for a read or write access.
     *
     * The common case — same page as the previous translation, no
     * TLB change since — is served inline from a one-entry
     * last-translation cache; everything else (TLB walk, faults,
     * cache refill) lives in the out-of-line translateMapped(). The
     * cache is keyed on the TLB generation counter, so TLB fills,
     * invalidations and flushes (and therefore all protection
     * changes, which always invalidate) implicitly invalidate it.
     * The fast path charges the same stats as the TLB-hit slow path,
     * keeping campaign results bit-identical at fixed seeds.
     *
     * @throws CrashException on machine check or protection fault.
     */
    Addr
    translate(Addr va, bool write)
    {
        Addr mapped = va;
        if (isKsegAddr(va)) {
            mapped = ksegToPhys(va);
            if (!cpu_.mapKsegThroughTlb()) {
                if (mapped >= mem_.size()) [[unlikely]]
                    machineCheck(va);
                return mapped; // TLB bypass: no protection possible.
            }
        }
        if (tcEnabled_ && tcGen_ == tlb_.generation() &&
            (mapped >> kPageShift) == tcVpn_ &&
            (!write || tcWritable_)) {
            tlb_.noteHit();
            return tcPaBase_ | (mapped & (kPageSize - 1));
        }
        return translateMapped(mapped, write, va);
    }

    /**
     * Enable/disable the last-translation cache (on by default).
     * Exists for A/B benchmarking and equivalence tests; results are
     * identical either way, only host-side speed differs.
     */
    void
    setTranslationCache(bool on)
    {
        tcEnabled_ = on;
        tcGen_ = kTcInvalidGen;
    }
    bool translationCache() const { return tcEnabled_; }

    /** Enable/disable the code-patching store checks. */
    void setCodePatching(bool on) { codePatching_ = on; }
    bool codePatching() const { return codePatching_; }

    void setPolicy(ProtectionPolicy *policy) { policy_ = policy; }

    /** Attach/detach the dynamic store audit (RIO_AUDIT). */
    void setAudit(StoreAudit *audit) { audit_ = audit; }
    StoreAudit *audit() { return audit_; }

    const BusStats &stats() const { return stats_; }
    void resetStats() { stats_ = BusStats{}; }

    PhysMem &mem() { return mem_; }

  private:
    /** Kernel-side time, dilated under code patching. */
    SimNs kernelNs(SimNs ns) const;

    [[noreturn]] void machineCheck(Addr va);
    [[noreturn]] void protectionFault(Addr va);
    Addr translateMapped(Addr va, bool write, Addr orig);
    void patchCheck(Addr pa, u64 store_count);
    void auditStore(Addr pa, u64 len);

    /** Post-store BusStore event: the sink sees the stored bytes. */
    void
    observeStore(Addr pa, u64 len)
    {
        emit(sink_, EventKind::BusStore, pa, len);
    }

    PhysMem &mem_;
    PageTable &pt_;
    Tlb &tlb_;
    Cpu &cpu_;
    SimClock &clock_;
    const CostModel &costs_;
    ProtectionPolicy *policy_ = nullptr;
    StoreAudit *audit_ = nullptr;
    /** Set only by Machine::setEventSink. */
    EventSink *sink_ = nullptr;
    bool codePatching_ = false;
    BusStats stats_;

    /** @{ Last-translation cache (see translate()). Valid iff
     * tcGen_ == tlb_.generation(); populated by translateMapped()
     * after a translation passes every check. */
    static constexpr u64 kTcInvalidGen = ~0ull;
    bool tcEnabled_ = true;
    u64 tcGen_ = kTcInvalidGen;
    u64 tcVpn_ = 0;
    Addr tcPaBase_ = 0;
    bool tcWritable_ = false;
    /** @} */
};

} // namespace rio::sim

#endif // RIO_SIM_MEMBUS_HH
