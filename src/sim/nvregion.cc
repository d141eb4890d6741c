#include "sim/nvregion.hh"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <stdexcept>
#include <string>

namespace rio::sim
{

NvRegion::NvRegion(u64 bytes, const CostModel &costs)
    : store_(bytes), costs_(costs)
{
    assert(bytes % kNvLineSize == 0);
}

void
NvRegion::checkRange(u64 offset, u64 len, const char *what) const
{
    if (offset > store_.size() || len > store_.size() - offset) {
        throw std::out_of_range(
            std::string("NvRegion: ") + what + " past end of region");
    }
}

void
NvRegion::read(u64 offset, std::span<u8> out, SimClock &clock)
{
    checkRange(offset, out.size(), "read");
    clock.advance(costs_.nvAccessNs +
                  static_cast<SimNs>(costs_.nvNsPerByte *
                                     static_cast<double>(out.size())));
    // riolint:allow(R1) NV controller moves bytes host-side; the bus
    // only mediates stores into *volatile* physical memory.
    std::memcpy(out.data(), store_.data() + offset, out.size());
    ++stats_.reads;
    stats_.bytesRead += out.size();
}

void
NvRegion::write(u64 offset, std::span<const u8> data, SimClock &clock)
{
    checkRange(offset, data.size(), "write");
    clock.advance(costs_.nvAccessNs +
                  static_cast<SimNs>(costs_.nvNsPerByte *
                                     static_cast<double>(data.size())));
    // riolint:allow(R1) NV controller moves bytes host-side; the bus
    // only mediates stores into *volatile* physical memory.
    std::memcpy(store_.data() + offset, data.data(), data.size());
    ++stats_.writes;
    stats_.bytesWritten += data.size();
    noteLines(offset, data.size());
    if (!data.empty())
        emit(sink_, EventKind::NvWrite, offset, data.size());
}

void
NvRegion::noteLines(u64 offset, u64 len)
{
    if (len == 0)
        return;
    const u64 first = offset / kNvLineSize;
    const u64 last = (offset + len - 1) / kNvLineSize;
    for (u64 line = first; line <= last; ++line) {
        const auto it =
            std::find(recentLines_.begin(), recentLines_.end(), line);
        if (it != recentLines_.end())
            recentLines_.erase(it); // Re-written: move to youngest end.
        recentLines_.push_back(line);
        if (recentLines_.size() > kNvMaxRecentLines)
            recentLines_.pop_front(); // Oldest line is now durable.
    }
}

std::span<u8>
NvRegion::hostLine(u64 line)
{
    checkRange(line * kNvLineSize, kNvLineSize, "hostLine");
    return {store_.data() + line * kNvLineSize, kNvLineSize};
}

void
NvRegion::onCrash(SimNs when)
{
    ++stats_.crashes;
    if (faults_ != nullptr)
        faults_->onCrash(*this, when);
    recentLines_.clear();
}

} // namespace rio::sim
