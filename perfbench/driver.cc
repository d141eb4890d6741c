/**
 * @file
 * Single-thread benchmark driver for the Rio reproduction.
 *
 *   perfbench --workload server|recovery|crashmc --seed N
 *             --seconds S --trace 0|1
 *
 * Three fixed-work workloads. Each runs in rounds of an untimed
 * set-up (built several times; the median build time is setup_s), an
 * untimed warm-up and a share of the timed phase:
 *
 *   server    one closed-loop client drives wl::ServerClient on a
 *             RioProtected kernel (checksums off, perfMachineConfig);
 *             an op is one request.
 *   recovery  wl::MemTest on RioProtected with checksums on and the
 *             hardened restore policy (crashMachineConfig); an op is
 *             one power-loss cycle: run, crash, checksum sweep, warm
 *             reset, dump + metadata restore, boot (fsck + mount),
 *             data restore, memTest verify.
 *   crashmc   CrashMc::record once per kind, then CrashMc::runPoint
 *             on this thread for every journal-ordered point and an
 *             evenly spaced subset of shadow-flip points; an op is one
 *             judged crash point. The machines use a fixed seed; the
 *             benchmark seed picks the shadow-flip points.
 *
 * --seconds sizes the fixed timed work (a nominal per-second rate
 * times S); the work never depends on how fast the host is, so every
 * simulated figure is a pure function of (workload, seed, seconds).
 * server reports the rate of its fastest request windows (see
 * RunResult::opsPerSecond); recovery and crashmc report their mean
 * rate over the timed phase. Every workload moves its thread off
 * slow CPUs (see CpuHopper).
 * Each workload prints a sim-identity fingerprint of its simulated
 * outcome; runs of the same code must match it exactly.
 *
 * With --trace 0 the last stdout line carries the end-to-end metrics.
 * With --trace 1 the workload runs twice, untraced then traced, and
 * the last line carries the per-layer metrics plus the traced /
 * untraced throughput ratio. The line before it is a detail object:
 * the effective configuration, the fingerprint and its components,
 * and the simulated-time figures.
 *
 * Host time is read only around calls into the library; nothing the
 * simulation computes depends on it. Every inherited RIO_* variable is
 * cleared before any library configuration is built, because several
 * library configs read them in default member initializers.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/rio.hh"
#include "core/warmreboot.hh"
#include "harness/bench.hh"
#include "harness/crashmc.hh"
#include "harness/hconfig.hh"
#include "os/kernel.hh"
#include "sim/crash.hh"
#include "sim/machine.hh"
#include "workload/memtest.hh"
#include "workload/modelfs.hh"
#include "workload/serverclient.hh"

extern char **environ;

using namespace rio;

namespace
{

// --- Host clock, JSON and small statistics helpers ------------------

using HostClock = std::chrono::steady_clock;

double
secondsSince(HostClock::time_point from)
{
    return std::chrono::duration<double>(HostClock::now() - from).count();
}

/** Shortest decimal that reads back as exactly @p value. */
std::string
numberText(double value)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof(buf), value);
    return std::string(buf, res.ptr);
}

std::string
quoted(const std::string &text)
{
    std::string out = "\"";
    for (const char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** Append-only JSON object writer. */
class JsonObj
{
  public:
    JsonObj &
    raw(const std::string &key, const std::string &json)
    {
        body_ += (body_.empty() ? "" : ", ") + quoted(key) + ": " + json;
        return *this;
    }
    JsonObj &
    num(const std::string &key, double value)
    {
        return raw(key, numberText(value));
    }
    JsonObj &
    count(const std::string &key, u64 value)
    {
        return raw(key, std::to_string(value));
    }
    JsonObj &
    str(const std::string &key, const std::string &value)
    {
        return raw(key, quoted(value));
    }
    JsonObj &
    flag(const std::string &key, bool value)
    {
        return raw(key, value ? "true" : "false");
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2]
                 : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Order-sensitive hash of the simulated outcome. */
class Fingerprint
{
  public:
    void
    add(const std::string &name, u64 value)
    {
        u64 x = hash_ ^ (value + 0x9e3779b97f4a7c15ull);
        x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
        x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
        hash_ = x ^ (x >> 31);
        parts_.count(name, value);
    }
    std::string
    hex() const
    {
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%016llx",
                      static_cast<unsigned long long>(hash_));
        return buf;
    }
    const JsonObj &parts() const { return parts_; }

  private:
    u64 hash_ = 0xcbf29ce484222325ull;
    JsonObj parts_;
};

// --- Per-layer metric table ------------------------------------------

/** Every per-layer metric, in output order; BENCHMARK.json lists the
 *  same names. A workload that never enters a layer reports 0 there. */
struct LayerMetricDef
{
    const char *name;
    const char *unit;
};

constexpr LayerMetricDef kLayerMetrics[] = {
    // server: host throughput.
    {"wl.serverclient.append_mail.host_us", "us"},
    {"wl.serverclient.overwrite_doc.host_us", "us"},
    {"wl.serverclient.read.host_us", "us"},
    {"sim.membus.loads_per_op", "count/op"},
    {"sim.membus.stores_per_op", "count/op"},
    {"sim.membus.bytes_copied_per_op", "B/op"},
    {"sim.tlb.hit_ratio", "ratio"},
    {"os.vfs.syscalls_per_op", "count/op"},
    {"core.rio.page_opens_per_op", "count/op"},
    {"core.rio.registry_updates_per_op", "count/op"},
    {"core.rio.shadow_copies_per_op", "count/op"},
    // server: simulated latency.
    {"wl.serverclient.append_mail.sim_p50_us", "us"},
    {"wl.serverclient.append_mail.sim_p99_us", "us"},
    {"wl.serverclient.overwrite_doc.sim_p50_us", "us"},
    {"wl.serverclient.overwrite_doc.sim_p99_us", "us"},
    {"wl.serverclient.read.sim_p50_us", "us"},
    {"wl.serverclient.read.sim_p99_us", "us"},
    {"os.ubc.hit_ratio", "ratio"},
    {"os.ubc.evictions", "count"},
    {"os.buf.hit_ratio", "ratio"},
    {"os.buf.disk_writes", "count"},
    {"sim.disk.busy_ms", "ms"},
    {"sim.disk.sectors_written", "count"},
    // recovery: host ms per cycle of each span, and the remainder.
    {"wl.memtest.run.host_ms", "ms"},
    {"core.rio.verify_checksums.host_ms", "ms"},
    {"sim.machine.reset.host_ms", "ms"},
    {"core.warmreboot.dump_restore_metadata.host_ms", "ms"},
    {"os.kernel.boot.host_ms", "ms"},
    {"core.warmreboot.restore_data.host_ms", "ms"},
    {"wl.memtest.verify.host_ms", "ms"},
    {"perfbench.recovery.remainder.host_ms", "ms"},
    {"perfbench.recovery.cycle.host_ms", "ms"},
    // recovery: simulated ms per cycle of the same spans.
    {"wl.memtest.run.sim_ms", "ms"},
    {"sim.machine.reset.sim_ms", "ms"},
    {"core.warmreboot.dump_restore_metadata.sim_ms", "ms"},
    {"os.kernel.boot.sim_ms", "ms"},
    {"core.warmreboot.restore_data.sim_ms", "ms"},
    {"wl.memtest.verify.sim_ms", "ms"},
    {"core.warmreboot.metadata_restored", "count/op"},
    {"core.warmreboot.data_pages_restored", "count/op"},
    {"core.warmreboot.dump_useful_ratio", "ratio"},
    {"sim.disk.swap_sectors_written", "count/op"},
    // crashmc: host ms per point by event class, record passes, counts.
    {"harness.crashmc.point.host_ms.bus-store", "ms"},
    {"harness.crashmc.point.host_ms.proto-open", "ms"},
    {"harness.crashmc.point.host_ms.proto-close", "ms"},
    {"harness.crashmc.point.host_ms.proto-shadow-copy", "ms"},
    {"harness.crashmc.point.host_ms.proto-field-write", "ms"},
    {"harness.crashmc.point.host_ms.proto-commit", "ms"},
    {"harness.crashmc.point.host_ms.disk-flush", "ms"},
    {"harness.crashmc.point.host_ms.journal-commit", "ms"},
    {"harness.crashmc.point.host_ms.journal-checkpoint", "ms"},
    {"harness.crashmc.record.host_ms.journal-ordered", "ms"},
    {"harness.crashmc.record.host_ms.shadow-flip", "ms"},
    {"harness.crashmc.points", "count"},
    {"harness.crashmc.recovered", "count"},
    {"harness.crashmc.drift", "count"},
    // every workload.
    {"process.user_s", "s"},
    {"process.sys_s", "s"},
    {"process.minflt", "count"},
    {"perfbench.trace_overhead_ratio", "ratio"},
};

/** Per-layer values of one traced run, keyed by metric name. */
using LayerValues = std::map<std::string, double>;

// --- Common run result -----------------------------------------------

/**
 * Every workload runs in kRounds rounds. A round builds the set-up
 * several times (each build is a setup_s sample; the last one runs),
 * warms up untimed, then runs 1/kRounds of the timed work. The host's
 * speed drifts over seconds, so spreading the set-up samples over the
 * whole run, instead of taking them in one burst at the start, keeps
 * their median steady.
 */
constexpr u32 kRounds = 5;
/** Set-up builds per round. Cheap set-ups repeat more. */
constexpr int kServerSetups = 5;
constexpr int kRecoverySetups = 12;
constexpr int kCrashMcSetups = 8;

constexpr double kUsPerNs = 1e-3;
constexpr double kMsPerNs = 1e-6;

struct RunResult
{
    u64 attempted = 0;
    u64 failed = 0;
    double timedSeconds = 0;
    /** Host time of the fastest equal-work window of the timed phase,
     *  when the workload measures windows (see opsPerSecond). */
    double fastestWindowSeconds = 0;
    u64 windowOps = 0;
    std::vector<double> setupSeconds; ///< One per set-up build.
    Fingerprint fingerprint;
    JsonObj config;   ///< Effective configuration.
    JsonObj sim;      ///< Simulated-time figures (deterministic).
    JsonObj host;     ///< Host-side figures besides the metrics.
    std::vector<std::string> failures; ///< First few, for stderr.
    LayerValues layer; ///< Filled by traced runs only.

    double meanOpsPerSecond() const
    {
        return ratio(static_cast<double>(attempted), timedSeconds);
    }

    /**
     * The throughput a workload reports. With windows it is the rate
     * of the fastest window: contention from other tenants of the host
     * only ever slows a window down, so the fastest window tracks the
     * program's own speed most steadily. Without windows it is the
     * mean over the whole timed phase.
     */
    double opsPerSecond() const
    {
        if (windowOps == 0)
            return meanOpsPerSecond();
        return ratio(static_cast<double>(windowOps), fastestWindowSeconds);
    }

    void
    fail(const std::string &why)
    {
        ++failed;
        if (failures.size() < 8)
            failures.push_back(why);
    }
};

/** Named counter values; per-layer metrics are built from the sums of
 *  their deltas over the timed phases of every round. */
using Counters = std::map<std::string, double>;

void
addDelta(Counters &sum, const Counters &before, const Counters &after)
{
    for (const auto &[name, value] : after)
        sum[name] += value - before.at(name);
}

Counters
machineCounters(sim::Machine &machine)
{
    const sim::BusStats bus = machine.bus().stats();
    const sim::DiskStats disk = machine.disk().stats();
    return {
        {"bus.loads", static_cast<double>(bus.loads)},
        {"bus.stores", static_cast<double>(bus.stores)},
        {"bus.bytes_copied", static_cast<double>(bus.bytesCopied)},
        {"tlb.hits", static_cast<double>(machine.tlb().hits())},
        {"tlb.misses", static_cast<double>(machine.tlb().misses())},
        {"disk.busy_ns", static_cast<double>(disk.busyNs)},
        {"disk.sectors_written", static_cast<double>(disk.sectorsWritten)},
    };
}

/** The sim.* per-layer metrics from machine counter deltas over @p ops
 *  timed ops. */
void
putMachineLayers(LayerValues &L, Counters &d, u64 ops)
{
    const double n = static_cast<double>(std::max<u64>(ops, 1));
    L["sim.membus.loads_per_op"] = d["bus.loads"] / n;
    L["sim.membus.stores_per_op"] = d["bus.stores"] / n;
    L["sim.membus.bytes_copied_per_op"] = d["bus.bytes_copied"] / n;
    L["sim.tlb.hit_ratio"] =
        ratio(d["tlb.hits"], d["tlb.hits"] + d["tlb.misses"]);
    L["sim.disk.busy_ms"] = d["disk.busy_ns"] * kMsPerNs;
    L["sim.disk.sectors_written"] = d["disk.sectors_written"];
}

/**
 * Keeps the thread on a quiet CPU. On a shared host each vCPU's speed
 * swings with other tenants' use of its core and caches, and a state
 * lasts seconds. After each timed piece of work the caller passes its
 * time and the fastest time of that kind so far; the hopper moves the
 * thread to the next CPU it may run on when the piece took more than
 * kSlowFactor times the fastest. Where the thread runs never changes
 * what the simulation computes. The destructor restores the thread's
 * original CPU mask.
 */
class CpuHopper
{
  public:
    CpuHopper()
    {
        CPU_ZERO(&original_);
        if (sched_getaffinity(0, sizeof(original_), &original_) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
            if (CPU_ISSET(cpu, &original_)) {
                if (cpu == sched_getcpu())
                    next_ = cpus_.size();
                cpus_.push_back(cpu);
            }
        }
    }
    CpuHopper(const CpuHopper &) = delete;
    CpuHopper &operator=(const CpuHopper &) = delete;
    ~CpuHopper()
    {
        if (hops_ > 0)
            sched_setaffinity(0, sizeof(original_), &original_);
    }

    void
    after(double seconds, double fastest)
    {
        if (cpus_.size() < 2 || seconds <= kSlowFactor * fastest)
            return;
        next_ = (next_ + 1) % cpus_.size();
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_], &one);
        if (sched_setaffinity(0, sizeof(one), &one) == 0)
            ++hops_;
    }

    u64 hops() const { return hops_; }

  private:
    static constexpr double kSlowFactor = 1.2;
    cpu_set_t original_;
    std::vector<int> cpus_;
    std::size_t next_ = 0;
    u64 hops_ = 0;
};

// --- server ------------------------------------------------------------

/** BENCH_server defaults. */
struct ServerSettings
{
    u32 mailboxes = 64;
    u32 docs = 256;
    double theta = 0.99;
    double mixMail = 0.5;
    double mixDoc = 0.3;
    u64 rotateBytes = 256 * 1024;
    /** Nominal host rate: timed ops = seconds x this. */
    static constexpr u64 kOpsPerSecond = 30'000;
    /** Requests per timed window. */
    static constexpr u64 kWindowOps = 1'000;
};

core::RioOptions
rioOptionsFor(const os::KernelConfig &kernelConfig, bool checksums)
{
    core::RioOptions options;
    options.protection = kernelConfig.protection;
    options.maintainChecksums = checksums;
    options.nvBacked = kernelConfig.rioNvMirror;
    return options;
}

wl::ServerClient::Config
serverClientConfig(const ServerSettings &s)
{
    wl::ServerClient::Config config;
    config.mailboxes = s.mailboxes;
    config.docs = s.docs;
    config.mailboxRotateBytes = s.rotateBytes;
    return config;
}

/** A booted, pre-populated file server. */
struct ServerRig
{
    ServerRig(u64 seed, const ServerSettings &s)
        : machine(harness::perfMachineConfig(seed)),
          kernelConfig(os::systemPreset(os::SystemPreset::RioProtected)),
          rio(machine, rioOptionsFor(kernelConfig, false)),
          kernel(machine, kernelConfig),
          // Same seed derivations as bench/bench_server.cc.
          client(serverClientConfig(s), seed * 2654435761u + 7)
    {
        kernel.boot(&rio, true);
        client.createDirs(kernel);
        // Every file exists before the first request, so zipf-tail
        // reads hit real documents.
        for (u64 doc = 0; doc < s.docs; ++doc)
            client.overwriteDoc(kernel, model, doc);
        for (u64 box = 0; box < s.mailboxes; ++box)
            client.deliverMail(kernel, model, box);
    }

    sim::Machine machine;
    os::KernelConfig kernelConfig;
    core::RioSystem rio;
    os::Kernel kernel;
    wl::ServerClient client;
    wl::ModelFs model;
};

/** Machine and kernel counters of a server rig. */
Counters
serverCounters(ServerRig &rig)
{
    Counters c = machineCounters(rig.machine);
    const core::RioStats rio = rig.rio.stats();
    const os::UbcStats ubc = rig.kernel.ubc().stats();
    const os::BufStats buf = rig.kernel.bufferCache().stats();
    c["vfs.syscalls"] = static_cast<double>(rig.kernel.vfs().syscallCount());
    c["rio.page_opens"] = static_cast<double>(rio.pageOpens);
    c["rio.registry_updates"] = static_cast<double>(rio.registryUpdates);
    c["rio.shadow_copies"] = static_cast<double>(rio.shadowCopies);
    c["ubc.hits"] = static_cast<double>(ubc.hits);
    c["ubc.misses"] = static_cast<double>(ubc.misses);
    c["ubc.evictions"] = static_cast<double>(ubc.evictions);
    c["buf.hits"] = static_cast<double>(buf.hits);
    c["buf.misses"] = static_cast<double>(buf.misses);
    c["buf.disk_writes"] =
        static_cast<double>(buf.diskWritesSync + buf.diskWritesAsync);
    return c;
}

enum ServerOp
{
    kAppendMail,
    kOverwriteDoc,
    kRead,
    kServerOps
};

constexpr const char *kServerOpNames[kServerOps] = {
    "append_mail", "overwrite_doc", "read"};

RunResult
runServer(u64 seed, u32 seconds, bool traced)
{
    const ServerSettings s;
    const u64 windowsPerRound = std::max<u64>(
        1, ServerSettings::kOpsPerSecond * seconds /
               (ServerSettings::kWindowOps * kRounds));
    const u64 roundOps = windowsPerRound * ServerSettings::kWindowOps;
    const u64 warmup = roundOps / 20;

    RunResult result;
    result.windowOps = ServerSettings::kWindowOps;
    result.config.str("preset", "RioProtected")
        .str("machine", "perfMachineConfig")
        .flag("maintain_checksums", false)
        .count("mailboxes", s.mailboxes)
        .count("docs", s.docs)
        .num("zipf_theta", s.theta)
        .num("mix_mail", s.mixMail)
        .num("mix_doc", s.mixDoc)
        .num("mix_read", 1.0 - s.mixMail - s.mixDoc)
        .count("mailbox_rotate_bytes", s.rotateBytes)
        .count("rounds", kRounds)
        .count("warmup_ops_per_round", warmup)
        .count("timed_ops_per_round", roundOps)
        .count("window_ops", ServerSettings::kWindowOps);

    const harness::Zipfian zipfMail(s.mailboxes, s.theta);
    const harness::Zipfian zipfDocs(s.docs, s.theta);
    harness::LatencyHistogram latency[kServerOps];
    harness::LatencyHistogram all;
    double hostSpan[kServerOps] = {};
    Counters delta, sums;
    u64 failedRequests = 0, warmupFailures = 0;
    double setupSimMs = 0, timedSimS = 0;

    CpuHopper hopper;
    double fastestSetup = 1e300, fastestWindow = 1e300;
    for (u32 round = 0; round < kRounds; ++round) {
        std::unique_ptr<ServerRig> rig;
        for (int i = 0; i < kServerSetups; ++i) {
            rig.reset();
            const auto t0 = HostClock::now();
            rig = std::make_unique<ServerRig>(seed, s);
            const double setupSeconds = secondsSince(t0);
            result.setupSeconds.push_back(setupSeconds);
            fastestSetup = std::min(fastestSetup, setupSeconds);
            hopper.after(setupSeconds, fastestSetup);
        }
        setupSimMs =
            static_cast<double>(rig->machine.clock().now()) * kMsPerNs;
        sim::Machine &machine = rig->machine;
        os::Kernel &kernel = rig->kernel;
        // Every round builds the same server; its request stream is
        // its own.
        support::Rng pick(seed * 0x9e3779b97f4a7c15ull + 1 + round);

        auto request = [&](ServerOp &op) {
            const double roll = pick.real();
            if (roll < s.mixMail) {
                op = kAppendMail;
                return rig->client.deliverMail(kernel, rig->model,
                                               zipfMail.sample(pick));
            }
            if (roll < s.mixMail + s.mixDoc) {
                op = kOverwriteDoc;
                return rig->client.overwriteDoc(kernel, rig->model,
                                                zipfDocs.sample(pick));
            }
            op = kRead;
            return rig->client.readDoc(kernel, rig->model,
                                       zipfDocs.sample(pick));
        };

        for (u64 i = 0; i < warmup; ++i) {
            ServerOp op = kRead;
            if (!request(op))
                ++warmupFailures;
        }

        const Counters before = serverCounters(*rig);
        const SimNs simStart = machine.clock().now();
        for (u64 w = 0; w < windowsPerRound; ++w) {
            const auto windowStart = HostClock::now();
            for (u64 i = 0; i < ServerSettings::kWindowOps; ++i) {
                ServerOp op = kRead;
                const SimNs t0 = machine.clock().now();
                bool ok;
                if (traced) {
                    const auto h0 = HostClock::now();
                    ok = request(op);
                    hostSpan[op] += secondsSince(h0);
                } else {
                    ok = request(op);
                }
                const u64 ns = machine.clock().now() - t0;
                latency[op].record(ns);
                all.record(ns);
                if (!ok)
                    ++failedRequests;
            }
            const double windowSeconds = secondsSince(windowStart);
            result.timedSeconds += windowSeconds;
            fastestWindow = std::min(fastestWindow, windowSeconds);
            hopper.after(windowSeconds, fastestWindow);
        }
        result.attempted += roundOps;
        addDelta(delta, before, serverCounters(*rig));
        timedSimS += static_cast<double>(machine.clock().now() - simStart) *
                     1e-9;

        const wl::ServerClient::AuditResult audit =
            rig->client.audit(kernel, rig->model);
        for (u64 i = 0; i < rig->client.readMismatches(); ++i)
            result.fail("read mismatch");
        for (u64 i = 0; i < audit.damaged; ++i)
            result.fail("audit: damaged file");
        sums["sim_end_ns"] += static_cast<double>(machine.clock().now());
        sums["bus_loads"] += static_cast<double>(machine.bus().stats().loads);
        sums["bus_stores"] +=
            static_cast<double>(machine.bus().stats().stores);
        sums["disk_sectors_written"] +=
            static_cast<double>(machine.disk().stats().sectorsWritten);
        sums["swap_sectors_written"] +=
            static_cast<double>(machine.swap().stats().sectorsWritten);
        sums["audit_intact"] += static_cast<double>(audit.intact);
    }
    result.fastestWindowSeconds = fastestWindow;
    if (warmupFailures > 0)
        result.fail("warm-up requests failed: " +
                    std::to_string(warmupFailures));
    for (u64 i = 0; i < failedRequests; ++i)
        result.fail("request did not fully succeed");

    const u64 p50 = all.percentile(50);
    const u64 p99 = all.percentile(99);
    const u64 p999 = all.percentile(99.9);
    result.sim.num("setup_sim_ms", setupSimMs)
        .count("requests", result.attempted)
        .num("sim_p50_us", static_cast<double>(p50) * kUsPerNs)
        .num("sim_p99_us", static_cast<double>(p99) * kUsPerNs)
        .num("sim_p999_us", static_cast<double>(p999) * kUsPerNs)
        .num("sim_timed_s", timedSimS);
    result.host.count("cpu_hops", hopper.hops());

    Fingerprint &fp = result.fingerprint;
    for (const auto &[name, value] : sums)
        fp.add(name + "_sum", static_cast<u64>(value));
    fp.add("latency_p50_ns", p50);
    fp.add("latency_p999_ns", p999);

    if (!traced)
        return result;

    LayerValues &L = result.layer;
    for (int op = 0; op < kServerOps; ++op) {
        const std::string base =
            std::string("wl.serverclient.") + kServerOpNames[op];
        const double calls = static_cast<double>(latency[op].count());
        L[base + ".host_us"] = ratio(hostSpan[op] * 1e6, calls);
        L[base + ".sim_p50_us"] =
            static_cast<double>(latency[op].percentile(50)) * kUsPerNs;
        L[base + ".sim_p99_us"] =
            static_cast<double>(latency[op].percentile(99)) * kUsPerNs;
    }
    putMachineLayers(L, delta, result.attempted);
    const double n = static_cast<double>(result.attempted);
    L["os.vfs.syscalls_per_op"] = delta["vfs.syscalls"] / n;
    L["core.rio.page_opens_per_op"] = delta["rio.page_opens"] / n;
    L["core.rio.registry_updates_per_op"] =
        delta["rio.registry_updates"] / n;
    L["core.rio.shadow_copies_per_op"] = delta["rio.shadow_copies"] / n;
    L["os.ubc.hit_ratio"] = ratio(
        delta["ubc.hits"], delta["ubc.hits"] + delta["ubc.misses"]);
    L["os.ubc.evictions"] = delta["ubc.evictions"];
    L["os.buf.hit_ratio"] = ratio(
        delta["buf.hits"], delta["buf.hits"] + delta["buf.misses"]);
    L["os.buf.disk_writes"] = delta["buf.disk_writes"];
    return result;
}

// --- recovery ------------------------------------------------------------

/** memTest steps per powered segment. */
constexpr u64 kStepsPerCycle = 2000;
/** Nominal host rate: timed cycles = seconds x this. */
constexpr double kCyclesPerSecond = 2.5;

/** Recovery spans, in cycle order. */
enum RecoverySpan
{
    kMemtestRun,
    kVerifyChecksums,
    kMachineReset,
    kDumpRestoreMetadata,
    kKernelBoot,
    kRestoreData,
    kMemtestVerify,
    kRecoverySpans
};

constexpr const char *kRecoverySpanNames[kRecoverySpans] = {
    "wl.memtest.run",
    "core.rio.verify_checksums",
    "sim.machine.reset",
    "core.warmreboot.dump_restore_metadata",
    "os.kernel.boot",
    "core.warmreboot.restore_data",
    "wl.memtest.verify",
};

os::KernelConfig
rioProtectedKernel()
{
    os::KernelConfig config =
        os::systemPreset(os::SystemPreset::RioProtected);
    // CampaignConfig's defaults, set explicitly.
    config.ioRetry.enabled = true;
    config.lockdep = true;
    return config;
}

/** A booted memTest machine that survives power-loss cycles. */
struct RecoveryRig
{
    explicit RecoveryRig(u64 seed)
        : machine(harness::crashMachineConfig(seed)),
          kernelConfig(rioProtectedKernel()),
          rioOptions(rioOptionsFor(kernelConfig, true))
    {
        rio = std::make_unique<core::RioSystem>(machine, rioOptions);
        kernel = std::make_unique<os::Kernel>(machine, kernelConfig);
        rio->bindNvLock(kernel->locks());
        kernel->boot(rio.get(), true);
        wl::MemTestConfig memtestConfig;
        // Same derivation as CrashCampaign::runPowerCycle.
        memtestConfig.seed = seed * 17 + 3;
        memtestConfig.fsyncEveryWrite = false;
        memtest = std::make_unique<wl::MemTest>(*kernel, memtestConfig);
        memtest->setup();
    }

    sim::Machine machine;
    os::KernelConfig kernelConfig;
    core::RioOptions rioOptions;
    std::unique_ptr<core::RioSystem> rio;
    std::unique_ptr<os::Kernel> kernel;
    std::unique_ptr<wl::MemTest> memtest;
};

struct CycleRecord
{
    double hostSeconds[kRecoverySpans] = {};
    SimNs simNs[kRecoverySpans] = {};
    double cycleSeconds = 0;
    SimNs recoveryNs = 0; ///< Warm reset done -> restoreData done.
    u64 checksumMismatches = 0;
    bool verifyCorrupt = false;
    std::string error; ///< Non-empty: recovery threw.
    core::WarmRebootReport warm;
    u64 swapSectorsWritten = 0;
};

/** Times one library call as a recovery span. */
class SpanTimer
{
  public:
    SpanTimer(sim::Machine &machine, CycleRecord &record)
        : machine_(machine), record_(record)
    {
    }
    void
    start()
    {
        host_ = HostClock::now();
        sim_ = machine_.clock().now();
    }
    void
    stop(RecoverySpan span)
    {
        record_.hostSeconds[span] += secondsSince(host_);
        record_.simNs[span] += machine_.clock().now() - sim_;
    }

  private:
    sim::Machine &machine_;
    CycleRecord &record_;
    HostClock::time_point host_;
    SimNs sim_ = 0;
};

/**
 * One power-loss cycle, the sequence of CrashCampaign::runPowerCycle
 * with the crash placed after a fixed number of memTest steps.
 */
CycleRecord
runCycle(RecoveryRig &rig, const core::RestorePolicy &policy)
{
    CycleRecord rec;
    sim::Machine &machine = rig.machine;
    SpanTimer span(machine, rec);
    const u64 swapBefore = machine.swap().stats().sectorsWritten;
    const auto cycleStart = HostClock::now();

    const std::string powerLoss = "power loss: benchmark cycle";
    span.start();
    try {
        for (u64 i = 0; i < kStepsPerCycle; ++i)
            rig.memtest->step();
        machine.crash(sim::CrashCause::KernelPanic, powerLoss);
    } catch (const sim::CrashException &crash) {
        machine.noteCrash(crash.when());
        if (crash.message() != powerLoss)
            rec.error = std::string("traffic crashed: ") + crash.what();
    }
    span.stop(kMemtestRun);

    try {
        span.start();
        rec.checksumMismatches = rig.rio->verifyChecksums().mismatches;
        span.stop(kVerifyChecksums);
        rig.rio->deactivate();
        rig.rio.reset();
        rig.kernel.reset();

        span.start();
        machine.reset(sim::ResetKind::Warm);
        span.stop(kMachineReset);
        // The reset's fixed firmware time is not part of recovery.
        const SimNs recoveryStart = machine.clock().now();

        core::WarmReboot warmReboot(machine, policy);
        warmReboot.setIoPolicy(rig.kernelConfig.ioRetry);
        span.start();
        rec.warm = warmReboot.dumpAndRestoreMetadata();
        span.stop(kDumpRestoreMetadata);

        rig.rio =
            std::make_unique<core::RioSystem>(machine, rig.rioOptions);
        rig.kernel =
            std::make_unique<os::Kernel>(machine, rig.kernelConfig);
        rig.rio->bindNvLock(rig.kernel->locks());
        span.start();
        rig.kernel->boot(rig.rio.get(), false);
        span.stop(kKernelBoot);

        span.start();
        warmReboot.restoreData(rig.kernel->vfs(), rec.warm);
        span.stop(kRestoreData);
        rec.recoveryNs = machine.clock().now() - recoveryStart;

        rig.memtest->rebind(*rig.kernel);
        span.start();
        rec.verifyCorrupt = rig.memtest->verify(*rig.kernel).corrupt();
        span.stop(kMemtestVerify);
    } catch (const sim::CrashException &crash) {
        rec.error = std::string("recovery crashed: ") + crash.what();
    }
    rec.swapSectorsWritten =
        machine.swap().stats().sectorsWritten - swapBefore;
    rec.cycleSeconds = secondsSince(cycleStart);
    return rec;
}

RunResult
runRecovery(u64 seed, u32 seconds, bool traced)
{
    const u64 cyclesPerRound = std::max<u64>(
        1, static_cast<u64>(kCyclesPerSecond *
                                static_cast<double>(seconds) / kRounds +
                            0.5));
    const u64 warmupCycles = 1;
    const core::RestorePolicy policy = core::RestorePolicy::hardened();

    RunResult result;
    result.config.str("preset", "RioProtected")
        .str("machine", "crashMachineConfig")
        .flag("maintain_checksums", true)
        .str("restore_policy", "hardened")
        .flag("reentrant_recovery", policy.reentrantRecovery)
        .flag("io_retry", true)
        .flag("lockdep", true)
        .count("steps_per_cycle", kStepsPerCycle)
        .count("rounds", kRounds)
        .count("warmup_cycles_per_round", warmupCycles)
        .count("timed_cycles_per_round", cyclesPerRound);

    auto judge = [&](const CycleRecord &rec, const char *phase) {
        if (!rec.error.empty())
            result.fail(std::string(phase) + ": " + rec.error);
        else if (rec.checksumMismatches > 0)
            result.fail(std::string(phase) + ": checksum mismatch");
        else if (rec.verifyCorrupt)
            result.fail(std::string(phase) + ": memTest verify corrupt");
        return rec.error.empty();
    };

    std::vector<CycleRecord> records;
    Counters delta, sums;
    double setupSimMs = 0;
    bool intact = true;
    CpuHopper hopper;
    double fastestSetup = 1e300, fastestCycle = 1e300;
    for (u32 round = 0; round < kRounds && intact; ++round) {
        std::unique_ptr<RecoveryRig> rig;
        for (int i = 0; i < kRecoverySetups; ++i) {
            rig.reset();
            const auto t0 = HostClock::now();
            rig = std::make_unique<RecoveryRig>(seed);
            const double setupSeconds = secondsSince(t0);
            result.setupSeconds.push_back(setupSeconds);
            fastestSetup = std::min(fastestSetup, setupSeconds);
            hopper.after(setupSeconds, fastestSetup);
        }
        sim::Machine &machine = rig->machine;
        setupSimMs = static_cast<double>(machine.clock().now()) * kMsPerNs;
        for (u64 i = 0; i < warmupCycles && intact; ++i)
            intact = judge(runCycle(*rig, policy), "warm-up");

        const Counters before = machineCounters(machine);
        for (u64 i = 0; i < cyclesPerRound && intact; ++i) {
            records.push_back(runCycle(*rig, policy));
            ++result.attempted;
            const double cycleSeconds = records.back().cycleSeconds;
            result.timedSeconds += cycleSeconds;
            fastestCycle = std::min(fastestCycle, cycleSeconds);
            hopper.after(cycleSeconds, fastestCycle);
            intact = judge(records.back(), "cycle");
        }
        addDelta(delta, before, machineCounters(machine));
        // Every round replays the same cycles, so the per-round
        // outcome is summed into the fingerprint.
        sums["sim_end_ns"] += static_cast<double>(machine.clock().now());
        sums["bus_loads"] += static_cast<double>(machine.bus().stats().loads);
        sums["bus_stores"] +=
            static_cast<double>(machine.bus().stats().stores);
        sums["disk_sectors_written"] +=
            static_cast<double>(machine.disk().stats().sectorsWritten);
        sums["swap_sectors_written"] +=
            static_cast<double>(machine.swap().stats().sectorsWritten);
        sums["memtest_ops"] +=
            static_cast<double>(rig->memtest->opsCompleted());
    }

    std::vector<double> recoveryMs;
    u64 metadataRestored = 0, dataPagesRestored = 0;
    u64 restoredBytes = 0, dumpBytes = 0, swapSectors = 0;
    for (const CycleRecord &rec : records) {
        recoveryMs.push_back(static_cast<double>(rec.recoveryNs) *
                             kMsPerNs);
        metadataRestored += rec.warm.metadataRestored;
        dataPagesRestored += rec.warm.dataPagesRestored;
        restoredBytes += rec.warm.metadataRestored * sim::kPageSize +
                         rec.warm.dataBytesRestored;
        dumpBytes += rec.warm.dumpBytes;
        swapSectors += rec.swapSectorsWritten;
    }
    result.host.count("cpu_hops", hopper.hops());
    result.sim.num("setup_sim_ms", setupSimMs)
        .count("cycles", records.size())
        .num("sim_recovery_ms", median(recoveryMs));

    Fingerprint &fp = result.fingerprint;
    for (const auto &[name, value] : sums)
        fp.add(name + "_sum", static_cast<u64>(value));
    fp.add("metadata_restored", metadataRestored);
    fp.add("data_pages_restored", dataPagesRestored);

    if (!traced)
        return result;

    LayerValues &L = result.layer;
    putMachineLayers(L, delta, records.size());
    const double n = static_cast<double>(std::max<std::size_t>(
        records.size(), 1));
    double spansTotal = 0, cycleTotal = 0;
    for (int sp = 0; sp < kRecoverySpans; ++sp) {
        double host = 0;
        SimNs simNs = 0;
        for (const CycleRecord &rec : records) {
            host += rec.hostSeconds[sp];
            simNs += rec.simNs[sp];
        }
        spansTotal += host;
        const std::string name = kRecoverySpanNames[sp];
        L[name + ".host_ms"] = host * 1e3 / n;
        if (sp != kVerifyChecksums) // The sweep does not advance sim time.
            L[name + ".sim_ms"] =
                static_cast<double>(simNs) * kMsPerNs / n;
    }
    for (const CycleRecord &rec : records)
        cycleTotal += rec.cycleSeconds;
    L["perfbench.recovery.cycle.host_ms"] = cycleTotal * 1e3 / n;
    L["perfbench.recovery.remainder.host_ms"] =
        (cycleTotal - spansTotal) * 1e3 / n;
    L["core.warmreboot.metadata_restored"] =
        static_cast<double>(metadataRestored) / n;
    L["core.warmreboot.data_pages_restored"] =
        static_cast<double>(dataPagesRestored) / n;
    L["core.warmreboot.dump_useful_ratio"] =
        ratio(static_cast<double>(restoredBytes),
              static_cast<double>(dumpBytes));
    L["sim.disk.swap_sectors_written"] =
        static_cast<double>(swapSectors) / n;
    return result;
}

// --- crashmc ---------------------------------------------------------------

/** Nominal host rate for the shadow-flip subset: sampled points =
 *  seconds x this (capped at the trace length). */
constexpr u64 kShadowPointsPerSecond = 13;

/**
 * Workload seed of the crashed machines: the checker's default, at
 * which every point of both kinds recovers. Other workload seeds hit
 * a recovery defect at some shadow-flip points (see README.md), so
 * the benchmark seed picks which points run, not the machine.
 */
constexpr u64 kCrashMcMachineSeed = 1;

/**
 * Evenly spaced subset of @p trace holding about @p want points,
 * spaced within each event class so every class present keeps at
 * least one point. @p seed rotates where each class's spacing
 * starts. Returned in event order.
 */
std::vector<u64>
stratifiedSubset(const std::vector<harness::McEvent> &trace, u64 want,
                 u64 seed)
{
    if (want >= trace.size()) {
        std::vector<u64> all(trace.size());
        for (u64 k = 0; k < trace.size(); ++k)
            all[k] = k;
        return all;
    }
    std::vector<std::vector<u64>> byClass(harness::kMcNumEventClasses);
    for (u64 k = 0; k < trace.size(); ++k)
        byClass[static_cast<u32>(trace[k].cls)].push_back(k);
    std::vector<u64> picked;
    for (const std::vector<u64> &events : byClass) {
        if (events.empty())
            continue;
        const u64 take = std::clamp<u64>(
            want * events.size() / trace.size(), 1, events.size());
        const u64 shift = seed * 0x9e3779b97f4a7c15ull % events.size();
        for (u64 i = 0; i < take; ++i)
            picked.push_back(
                events[(i * events.size() / take + shift) % events.size()]);
    }
    std::sort(picked.begin(), picked.end());
    return picked;
}

struct PointJob
{
    harness::McWorkloadKind kind;
    u64 k;
};

RunResult
runCrashMc(u64 seed, u32 seconds, bool traced)
{
    using harness::McWorkloadKind;
    harness::CrashMcConfig config;
    config.seed = kCrashMcMachineSeed;
    config.jobs = 1;
    harness::CrashMc checker(config);

    const McWorkloadKind kinds[] = {McWorkloadKind::JournalOrdered,
                                    McWorkloadKind::ShadowFlip};
    RunResult result;
    std::map<McWorkloadKind, std::vector<harness::McEvent>> traces;
    std::map<McWorkloadKind, std::vector<double>> recordSeconds;
    CpuHopper hopper;
    // Fastest set-up and fastest point of each kind so far.
    double fastestSetup = 1e300;
    std::map<McWorkloadKind, double> fastestPoint;
    // One round's set-up: the record passes. Recording is
    // deterministic, so a later pass must reproduce the first trace.
    auto recordAll = [&] {
        for (int i = 0; i < kCrashMcSetups; ++i) {
            const auto t0 = HostClock::now();
            for (const McWorkloadKind kind : kinds) {
                const auto r0 = HostClock::now();
                std::vector<harness::McEvent> trace = checker.record(kind);
                recordSeconds[kind].push_back(secondsSince(r0));
                if (traces.count(kind) && trace.size() != traces[kind].size())
                    result.fail(std::string(harness::mcWorkloadName(kind)) +
                                ": record pass drifted");
                traces[kind] = std::move(trace);
            }
            const double setupSeconds = secondsSince(t0);
            result.setupSeconds.push_back(setupSeconds);
            fastestSetup = std::min(fastestSetup, setupSeconds);
            hopper.after(setupSeconds, fastestSetup);
        }
    };
    recordAll();

    const std::vector<harness::McEvent> &journal =
        traces[McWorkloadKind::JournalOrdered];
    const std::vector<harness::McEvent> &shadow =
        traces[McWorkloadKind::ShadowFlip];
    const u64 shadowWant = kShadowPointsPerSecond * seconds;
    std::vector<PointJob> jobs;
    for (u64 k = 0; k < journal.size(); ++k)
        jobs.push_back({McWorkloadKind::JournalOrdered, k});
    for (const u64 k : stratifiedSubset(shadow, shadowWant, seed))
        jobs.push_back({McWorkloadKind::ShadowFlip, k});

    result.config.count("mc_seed", config.seed)
        .count("mc_ops", config.ops)
        .flag("hardened", config.hardened)
        .flag("shadow_metadata", config.shadowMetadata)
        .flag("nv_backed", config.nvBacked)
        .flag("journal_checksum", config.journalChecksum)
        .flag("torn_commit", config.tornCommit)
        .count("journal_ordered_events", journal.size())
        .count("shadow_flip_events", shadow.size())
        .count("shadow_flip_points", jobs.size() - journal.size())
        .count("rounds", kRounds)
        .count("warmup_points_per_round", 1);

    u64 perClass[harness::kMcNumEventClasses] = {};
    double classSeconds[harness::kMcNumEventClasses] = {};
    u64 recovered = 0, drift = 0, opsCompleted = 0, metadata = 0;
    for (u32 round = 0; round < kRounds; ++round) {
        if (round > 0)
            recordAll();
        // Round r judges every kRounds-th point from r on, so every
        // round spans the whole trace. Its last point warms up first.
        std::vector<PointJob> roundJobs;
        for (std::size_t j = round; j < jobs.size(); j += kRounds)
            roundJobs.push_back(jobs[j]);
        if (roundJobs.empty())
            continue;
        checker.runPoint(roundJobs.back().kind, roundJobs.back().k,
                         traces[roundJobs.back().kind]);

        for (const PointJob &job : roundJobs) {
            const auto p0 = HostClock::now();
            const harness::McPointRecord rec =
                checker.runPoint(job.kind, job.k, traces[job.kind]);
            const double pointSeconds = secondsSince(p0);
            result.timedSeconds += pointSeconds;
            auto fastest = fastestPoint.try_emplace(job.kind, 1e300).first;
            fastest->second = std::min(fastest->second, pointSeconds);
            hopper.after(pointSeconds, fastest->second);
            classSeconds[rec.eventClass] += pointSeconds;
            ++perClass[rec.eventClass];
            ++result.attempted;
            opsCompleted += rec.opsCompleted;
            metadata += rec.metadataRestored;
            if (!rec.crashed) {
                ++drift;
                result.fail(std::string(harness::mcWorkloadName(job.kind)) +
                            " point " + std::to_string(job.k) +
                            ": crash never fired (drift)");
            } else if (!rec.recovered) {
                result.fail(std::string(harness::mcWorkloadName(job.kind)) +
                            " point " + std::to_string(job.k) + ": " +
                            rec.failure);
            } else {
                ++recovered;
            }
        }
    }

    Fingerprint &fp = result.fingerprint;
    fp.add("journal_ordered_events", journal.size());
    fp.add("shadow_flip_events", shadow.size());
    for (u32 c = 0; c < harness::kMcNumEventClasses; ++c)
        fp.add(std::string("points.") +
                   harness::mcEventClassName(
                       static_cast<harness::McEventClass>(c)),
               perClass[c]);
    fp.add("recovered", recovered);
    fp.add("ops_completed", opsCompleted);
    fp.add("metadata_restored", metadata);
    result.host.count("cpu_hops", hopper.hops());
    result.sim.count("points", result.attempted)
        .count("recovered", recovered)
        .count("drift", drift);

    if (!traced)
        return result;

    LayerValues &L = result.layer;
    for (u32 c = 0; c < harness::kMcNumEventClasses; ++c) {
        const std::string name =
            std::string("harness.crashmc.point.host_ms.") +
            harness::mcEventClassName(static_cast<harness::McEventClass>(c));
        if (perClass[c] > 0)
            L[name] = classSeconds[c] * 1e3 /
                      static_cast<double>(perClass[c]);
    }
    for (const McWorkloadKind kind : kinds)
        L[std::string("harness.crashmc.record.host_ms.") +
          harness::mcWorkloadName(kind)] = median(recordSeconds[kind]) * 1e3;
    L["harness.crashmc.points"] = static_cast<double>(result.attempted);
    L["harness.crashmc.recovered"] = static_cast<double>(recovered);
    L["harness.crashmc.drift"] = static_cast<double>(drift);
    return result;
}

// --- Command line and output ---------------------------------------------

struct Args
{
    std::string workload;
    u64 seed = 1;
    u32 seconds = 10;
    bool trace = false;
};

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "server|recovery|crashmc --seed N --seconds S "
                 "--trace 0|1\n",
                 why.c_str());
    std::exit(2);
}

u64
parseCount(const std::string &flag, const char *text, u64 minValue)
{
    char *end = nullptr;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || std::strchr(text, '-') ||
        value < minValue)
        usage("bad value for " + flag + ": " + text);
    return value;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const char *value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = parseCount(flag, value, 0);
        else if (flag == "--seconds")
            args.seconds =
                static_cast<u32>(parseCount(flag, value, 1));
        else if (flag == "--trace")
            args.trace = parseCount(flag, value, 0) != 0;
        else
            usage("unknown flag " + flag);
    }
    if (args.seconds > 600)
        usage("--seconds above 600");
    return args;
}

/** Remove every inherited RIO_* variable; returns their names. */
std::vector<std::string>
clearRioEnvironment()
{
    std::vector<std::string> names;
    for (char **env = environ; *env != nullptr; ++env) {
        const std::string entry = *env;
        if (entry.rfind("RIO_", 0) == 0)
            names.push_back(entry.substr(0, entry.find('=')));
    }
    for (const std::string &name : names)
        unsetenv(name.c_str());
    return names;
}

RunResult
runWorkload(const Args &args, bool traced)
{
    if (args.workload == "server")
        return runServer(args.seed, args.seconds, traced);
    if (args.workload == "recovery")
        return runRecovery(args.seed, args.seconds, traced);
    return runCrashMc(args.seed, args.seconds, traced);
}

struct Usage
{
    double userSeconds = 0;
    double sysSeconds = 0;
    double minorFaults = 0;
    double maxRssMiB = 0;
};

Usage
processUsage()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    Usage u;
    u.userSeconds = static_cast<double>(ru.ru_utime.tv_sec) +
                    static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
    u.sysSeconds = static_cast<double>(ru.ru_stime.tv_sec) +
                   static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
    u.minorFaults = static_cast<double>(ru.ru_minflt);
    u.maxRssMiB = static_cast<double>(ru.ru_maxrss) / 1024.0;
    return u;
}

std::string
metricJson(double value, const char *unit)
{
    return JsonObj().num("value", value).str("unit", unit).text();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::vector<std::string> cleared = clearRioEnvironment();
    const Args args = parseArgs(argc, argv);
    if (args.workload != "server" && args.workload != "recovery" &&
        args.workload != "crashmc")
        usage("unknown workload \"" + args.workload + "\"");

    RunResult run;
    Usage tracedStart;
    double untracedOpsPerSecond = 0;
    bool fingerprintsAgree = true;
    try {
        run = runWorkload(args, false);
        if (args.trace) {
            untracedOpsPerSecond = run.opsPerSecond();
            const std::string untracedFp = run.fingerprint.hex();
            const u64 untracedFailed = run.failed;
            tracedStart = processUsage();
            run = runWorkload(args, true);
            run.failed += untracedFailed;
            fingerprintsAgree = run.fingerprint.hex() == untracedFp;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s workload threw: %s\n",
                     args.workload.c_str(), e.what());
        return 1;
    }
    const Usage usage = processUsage();
    for (const std::string &why : run.failures)
        std::fprintf(stderr, "perfbench: FAILED: %s\n", why.c_str());
    if (!fingerprintsAgree)
        std::fprintf(stderr, "perfbench: FAILED: traced run's sim "
                             "fingerprint differs from the untraced "
                             "run's\n");
    bool correct =
        run.failed == 0 && fingerprintsAgree && run.attempted > 0;

    std::string clearedList = "[";
    for (std::size_t i = 0; i < cleared.size(); ++i)
        clearedList += (i ? ", " : "") + quoted(cleared[i]);
    clearedList += "]";
    run.config.str("workload", args.workload)
        .count("seed", args.seed)
        .count("seconds", args.seconds)
        .flag("trace", args.trace)
        .count("threads", 1)
        .raw("cleared_env", clearedList);

    std::printf("perfbench %s: %llu ops in %.3f s (mean %.1f ops/s, "
                "reported %.1f ops/s), setup median %.3f s, "
                "fingerprint %s\n",
                args.workload.c_str(),
                static_cast<unsigned long long>(run.attempted),
                run.timedSeconds, run.meanOpsPerSecond(),
                run.opsPerSecond(), median(run.setupSeconds),
                run.fingerprint.hex().c_str());

    JsonObj detail;
    detail.raw("config", run.config.text())
        .str("fingerprint", run.fingerprint.hex())
        .raw("fingerprint_parts", run.fingerprint.parts().text())
        .raw("sim", run.sim.text())
        .num("timed_s", run.timedSeconds)
        .num("mean_ops_per_s", run.meanOpsPerSecond())
        .raw("host", run.host.text());
    std::string setups = "[";
    for (std::size_t i = 0; i < run.setupSeconds.size(); ++i)
        setups += (i ? ", " : "") + numberText(run.setupSeconds[i]);
    detail.raw("setup_samples_s", setups + "]");
    std::printf("%s\n", JsonObj().raw("detail", detail.text()).text().c_str());

    JsonObj metrics;
    if (!args.trace) {
        metrics.raw("ops_per_s", metricJson(run.opsPerSecond(), "1/s"))
            .raw("setup_s", metricJson(median(run.setupSeconds), "s"))
            .raw("peak_rss_mib", metricJson(usage.maxRssMiB, "MiB"));
    } else {
        LayerValues &L = run.layer;
        // The traced run's own share of the process's usage.
        L["process.user_s"] = usage.userSeconds - tracedStart.userSeconds;
        L["process.sys_s"] = usage.sysSeconds - tracedStart.sysSeconds;
        L["process.minflt"] = usage.minorFaults - tracedStart.minorFaults;
        L["perfbench.trace_overhead_ratio"] =
            ratio(run.opsPerSecond(), untracedOpsPerSecond);
        std::size_t known = 0;
        for (const LayerMetricDef &def : kLayerMetrics) {
            const auto it = L.find(def.name);
            known += it != L.end();
            metrics.raw(def.name,
                        metricJson(it == L.end() ? 0.0 : it->second,
                                   def.unit));
        }
        if (known != L.size()) {
            std::fprintf(stderr, "perfbench: FAILED: a measured layer "
                                 "metric is missing from kLayerMetrics\n");
            correct = false;
        }
    }
    std::printf("%s\n", JsonObj()
                            .flag("correct", correct)
                            .count("attempted", run.attempted)
                            .count("failed", run.failed)
                            .raw("metrics", metrics.text())
                            .text()
                            .c_str());
    return correct ? 0 : 1;
}
