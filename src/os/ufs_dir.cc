/**
 * @file
 * UFS directory contents and path resolution. Directory blocks are
 * metadata: they live in the buffer cache keyed by their disk block
 * number (paper section 2), so in the Rio configuration they are
 * restored to disk by the warm reboot's metadata pass.
 */

#include <algorithm>
#include <array>
#include <span>

#include "os/ufs.hh"
#include "support/bytes.hh"

namespace rio::os
{

namespace
{

/** Serialize a directory entry into a 64-byte slot image. */
void
makeDirent(std::span<u8> slot, std::string_view name, InodeNo ino,
           FileType type)
{
    support::fillBytes(slot, 0, Ufs::kDirentSize, 0);
    support::storeLE<u32>(slot, 0, ino);
    slot[4] = static_cast<u8>(type);
    slot[5] = static_cast<u8>(name.size());
    support::copyBytes(
        slot, 6,
        {reinterpret_cast<const u8 *>(name.data()), name.size()});
}

struct RawDirent
{
    InodeNo ino;
    FileType type;
    std::string name;
};

RawDirent
parseDirent(std::span<const u8> slot)
{
    RawDirent entry;
    entry.ino = support::loadLE<u32>(slot, 0);
    entry.type = static_cast<FileType>(slot[4]);
    const u8 len = std::min<u8>(slot[5],
                                static_cast<u8>(Ufs::kNameMax));
    entry.name.assign(
        reinterpret_cast<const char *>(slot.data() + 6), len);
    return entry;
}

/** Split an absolute path into components. */
std::vector<std::string>
splitPath(std::string_view path)
{
    std::vector<std::string> parts;
    std::size_t i = 0;
    while (i < path.size()) {
        while (i < path.size() && path[i] == '/')
            ++i;
        std::size_t j = i;
        while (j < path.size() && path[j] != '/')
            ++j;
        if (j > i)
            parts.emplace_back(path.substr(i, j - i));
        i = j;
    }
    return parts;
}

std::string
joinPath(const std::vector<std::string> &parts, std::size_t count)
{
    std::string out;
    for (std::size_t i = 0; i < count && i < parts.size(); ++i) {
        out += '/';
        out += parts[i];
    }
    if (out.empty())
        out += '/';
    return out;
}

} // namespace

Result<InodeNo>
Ufs::dirLookup(InodeNo dir, std::string_view name)
{
    procs_.enter(ProcId::UfsDirLookup);
    auto dirInode = iget(dir);
    if (!dirInode.ok())
        return dirInode.status();
    if (dirInode.value().type != FileType::Dir)
        return OsStatus::NotDir;

    const u64 blocks =
        (dirInode.value().size + kBlockSize - 1) / kBlockSize;
    for (u64 fb = 0; fb < blocks; ++fb) {
        auto block = bmap(dir, dirInode.value(), fb, false);
        if (!block.ok())
            return block.status();
        if (block.value() == 0)
            continue;
        const auto ref = buf_.bread(dev_, block.value());
        const u64 bytes = std::min<u64>(
            kBlockSize, dirInode.value().size - fb * kBlockSize);
        buf_.readData(ref, 0, std::span<u8>(scratch_.data(), bytes));
        buf_.brelse(ref);
        for (u64 off = 0; off + kDirentSize <= bytes;
             off += kDirentSize) {
            const RawDirent entry = parseDirent(
                std::span<const u8>(scratch_).subspan(
                    off, kDirentSize));
            if (entry.ino != 0 && entry.name == name)
                return entry.ino;
        }
    }
    return OsStatus::NoEnt;
}

Result<void>
Ufs::dirEnter(InodeNo dir, std::string_view name, InodeNo ino,
              FileType type)
{
    procs_.enter(ProcId::UfsDirEnter);
    if (name.empty() || name.size() > kNameMax)
        return OsStatus::NameTooLong;
    auto dirInodeRes = iget(dir);
    if (!dirInodeRes.ok())
        return dirInodeRes.status();
    InodeData dirInode = dirInodeRes.value();
    if (dirInode.type != FileType::Dir)
        return OsStatus::NotDir;

    // One pass: find a duplicate or remember the first hole.
    u64 holeOffset = ~0ull;
    const u64 blocks = (dirInode.size + kBlockSize - 1) / kBlockSize;
    for (u64 fb = 0; fb < blocks; ++fb) {
        auto block = bmap(dir, dirInode, fb, false);
        if (!block.ok())
            return block.status();
        if (block.value() == 0)
            continue;
        const auto ref = buf_.bread(dev_, block.value());
        const u64 bytes =
            std::min<u64>(kBlockSize, dirInode.size - fb * kBlockSize);
        buf_.readData(ref, 0, std::span<u8>(scratch_.data(), bytes));
        buf_.brelse(ref);
        for (u64 off = 0; off + kDirentSize <= bytes;
             off += kDirentSize) {
            const RawDirent entry = parseDirent(
                std::span<const u8>(scratch_).subspan(
                    off, kDirentSize));
            if (entry.ino == 0) {
                if (holeOffset == ~0ull)
                    holeOffset = fb * kBlockSize + off;
            } else if (entry.name == name) {
                return OsStatus::Exist;
            }
        }
    }

    std::array<u8, kDirentSize> slot;
    makeDirent(slot, name, ino, type);

    const u64 target =
        holeOffset != ~0ull ? holeOffset : dirInode.size;
    const u64 fb = target / kBlockSize;
    const u64 off = target % kBlockSize;
    auto block = bmap(dir, dirInode, fb, true);
    if (!block.ok())
        return block.status();

    if (target == dirInode.size && off == 0) {
        // Fresh directory block: zero it before use.
        const auto ref = buf_.getblk(dev_, block.value());
        {
            BufferCache::WriteWindow window(buf_, ref);
            window.zero(0, kBlockSize);
            window.copyIn(0, std::span<const u8>(slot));
        }
        buf_.releaseWrite(ref);
    } else {
        const auto ref = buf_.bread(dev_, block.value());
        {
            BufferCache::WriteWindow window(buf_, ref);
            window.copyIn(off, std::span<const u8>(slot));
        }
        buf_.releaseWrite(ref);
    }

    if (target == dirInode.size) {
        dirInode.size += kDirentSize;
        dirInode.mtime = machine_.clock().now();
        iupdate(dir, dirInode);
    }
    return {};
}

Result<void>
Ufs::dirRemove(InodeNo dir, std::string_view name)
{
    procs_.enter(ProcId::UfsDirRemove);
    auto dirInodeRes = iget(dir);
    if (!dirInodeRes.ok())
        return dirInodeRes.status();
    InodeData dirInode = dirInodeRes.value();
    if (dirInode.type != FileType::Dir)
        return OsStatus::NotDir;

    const u64 blocks = (dirInode.size + kBlockSize - 1) / kBlockSize;
    for (u64 fb = 0; fb < blocks; ++fb) {
        auto block = bmap(dir, dirInode, fb, false);
        if (!block.ok())
            return block.status();
        if (block.value() == 0)
            continue;
        const auto ref = buf_.bread(dev_, block.value());
        const u64 bytes =
            std::min<u64>(kBlockSize, dirInode.size - fb * kBlockSize);
        buf_.readData(ref, 0, std::span<u8>(scratch_.data(), bytes));
        for (u64 off = 0; off + kDirentSize <= bytes;
             off += kDirentSize) {
            const RawDirent entry = parseDirent(
                std::span<const u8>(scratch_).subspan(
                    off, kDirentSize));
            if (entry.ino != 0 && entry.name == name) {
                {
                    BufferCache::WriteWindow window(buf_, ref);
                    window.zero(off, kDirentSize);
                }
                buf_.releaseWrite(ref);
                dirInode.mtime = machine_.clock().now();
                iupdate(dir, dirInode);
                return {};
            }
        }
        buf_.brelse(ref);
    }
    return OsStatus::NoEnt;
}

Result<bool>
Ufs::dirIsEmpty(InodeNo dir)
{
    auto entries = dirList(dir);
    if (!entries.ok())
        return entries.status();
    return entries.value().empty();
}

Result<std::vector<DirEntry>>
Ufs::dirList(InodeNo dir)
{
    auto dirInodeRes = iget(dir);
    if (!dirInodeRes.ok())
        return dirInodeRes.status();
    InodeData dirInode = dirInodeRes.value();
    if (dirInode.type != FileType::Dir)
        return OsStatus::NotDir;

    std::vector<DirEntry> out;
    const u64 blocks = (dirInode.size + kBlockSize - 1) / kBlockSize;
    for (u64 fb = 0; fb < blocks; ++fb) {
        auto block = bmap(dir, dirInode, fb, false);
        if (!block.ok())
            return block.status();
        if (block.value() == 0)
            continue;
        const auto ref = buf_.bread(dev_, block.value());
        const u64 bytes =
            std::min<u64>(kBlockSize, dirInode.size - fb * kBlockSize);
        buf_.readData(ref, 0, std::span<u8>(scratch_.data(), bytes));
        buf_.brelse(ref);
        for (u64 off = 0; off + kDirentSize <= bytes;
             off += kDirentSize) {
            RawDirent entry = parseDirent(
                std::span<const u8>(scratch_).subspan(
                    off, kDirentSize));
            if (entry.ino != 0) {
                out.push_back(
                    {std::move(entry.name), entry.ino, entry.type});
            }
        }
    }
    return out;
}

Result<std::string>
Ufs::readlink(std::string_view path)
{
    auto ino = nameiNoFollow(path);
    if (!ino.ok())
        return ino.status();
    auto inode = iget(ino.value());
    if (!inode.ok())
        return inode.status();
    if (inode.value().type != FileType::Symlink)
        return OsStatus::Inval;
    if (inode.value().size > kBlockSize || inode.value().direct[0] == 0)
        return OsStatus::Io;
    const auto ref = buf_.bread(dev_, inode.value().direct[0]);
    std::string target(inode.value().size, '\0');
    buf_.readData(ref, 0,
                  std::span<u8>(reinterpret_cast<u8 *>(target.data()),
                                target.size()));
    buf_.brelse(ref);
    return target;
}

Result<InodeNo>
Ufs::nameiFrom(std::string_view path, int depth)
{
    if (depth > 8)
        return OsStatus::Loop;
    const std::vector<std::string> parts = splitPath(path);
    InodeNo cur = kRootIno;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        auto ino = dirLookup(cur, parts[i]);
        if (!ino.ok())
            return ino.status();
        auto inode = iget(ino.value());
        if (!inode.ok())
            return inode.status();
        if (inode.value().type == FileType::Symlink) {
            // Follow: rebuild the remaining path through the target.
            if (inode.value().direct[0] == 0 ||
                inode.value().size == 0 ||
                inode.value().size > kBlockSize) {
                return OsStatus::Io;
            }
            const auto ref = buf_.bread(dev_, inode.value().direct[0]);
            std::string target(inode.value().size, '\0');
            buf_.readData(
                ref, 0,
                std::span<u8>(reinterpret_cast<u8 *>(target.data()),
                              target.size()));
            buf_.brelse(ref);
            std::string next;
            if (!target.empty() && target[0] == '/')
                next = target;
            else
                next = joinPath(parts, i) + "/" + target;
            for (std::size_t j = i + 1; j < parts.size(); ++j)
                next += "/" + parts[j];
            return nameiFrom(next, depth + 1);
        }
        if (i + 1 < parts.size() &&
            inode.value().type != FileType::Dir) {
            return OsStatus::NotDir;
        }
        cur = ino.value();
    }
    return cur;
}

Result<InodeNo>
Ufs::namei(std::string_view path)
{
    return nameiFrom(path, 0);
}

Result<InodeNo>
Ufs::nameiNoFollow(std::string_view path)
{
    const std::vector<std::string> parts = splitPath(path);
    if (parts.empty())
        return kRootIno;
    auto parent = nameiParent(path);
    if (!parent.ok())
        return parent.status();
    return dirLookup(parent.value().first, parent.value().second);
}

Result<std::pair<InodeNo, std::string>>
Ufs::nameiParent(std::string_view path)
{
    std::vector<std::string> parts = splitPath(path);
    if (parts.empty())
        return OsStatus::Inval;
    const std::string last = parts.back();
    if (last.size() > kNameMax)
        return OsStatus::NameTooLong;
    const std::string dirPath = joinPath(parts, parts.size() - 1);
    auto dir = nameiFrom(dirPath, 0);
    if (!dir.ok())
        return dir.status();
    auto dirInode = iget(dir.value());
    if (!dirInode.ok())
        return dirInode.status();
    if (dirInode.value().type != FileType::Dir)
        return OsStatus::NotDir;
    return std::make_pair(dir.value(), last);
}

Result<InodeNo>
Ufs::create(std::string_view path, FileType type)
{
    if (readOnly_)
        return OsStatus::RoFs;
    procs_.enter(type == FileType::Dir ? ProcId::UfsMkdir
                                       : ProcId::UfsCreate);
    LockTable::Guard guard(locks_, fsLock_);
    auto parent = nameiParent(path);
    if (!parent.ok())
        return parent.status();
    auto existing = dirLookup(parent.value().first,
                              parent.value().second);
    if (existing.ok())
        return OsStatus::Exist;
    if (existing.status() != OsStatus::NoEnt)
        return existing.status();
    auto ino = ialloc(type);
    if (!ino.ok())
        return ino.status();
    // Careful ordering: the inode is initialized before the name
    // points at it (paper section 2.3 — metadata updates in the
    // buffer cache must be as carefully ordered as those to disk).
    auto entered = dirEnter(parent.value().first, parent.value().second,
                            ino.value(), type);
    if (!entered.ok()) {
        ifree(ino.value());
        return entered.status();
    }
    return ino.value();
}

Result<void>
Ufs::mkdir(std::string_view path)
{
    auto ino = create(path, FileType::Dir);
    if (!ino.ok())
        return ino.status();
    return {};
}

Result<void>
Ufs::link(std::string_view existing, std::string_view linkpath)
{
    if (readOnly_)
        return OsStatus::RoFs;
    procs_.enter(ProcId::UfsCreate);
    LockTable::Guard guard(locks_, fsLock_);
    auto ino = namei(existing);
    if (!ino.ok())
        return ino.status();
    auto inodeRes = iget(ino.value());
    if (!inodeRes.ok())
        return inodeRes.status();
    InodeData inode = inodeRes.value();
    if (inode.type == FileType::Dir)
        return OsStatus::IsDir; // No hard links to directories.
    auto parent = nameiParent(linkpath);
    if (!parent.ok())
        return parent.status();
    auto clash = dirLookup(parent.value().first,
                           parent.value().second);
    if (clash.ok())
        return OsStatus::Exist;
    if (clash.status() != OsStatus::NoEnt)
        return clash.status();
    // Bump the link count before the new name becomes visible
    // (careful metadata ordering, section 2.3).
    inode.nlink++;
    iupdate(ino.value(), inode);
    auto entered = dirEnter(parent.value().first,
                            parent.value().second, ino.value(),
                            inode.type);
    if (!entered.ok()) {
        inode.nlink--;
        iupdate(ino.value(), inode);
        return entered.status();
    }
    return {};
}

Result<void>
Ufs::remove(std::string_view path)
{
    if (readOnly_)
        return OsStatus::RoFs;
    procs_.enter(ProcId::UfsRemove);
    LockTable::Guard guard(locks_, fsLock_);
    auto parent = nameiParent(path);
    if (!parent.ok())
        return parent.status();
    auto ino = dirLookup(parent.value().first, parent.value().second);
    if (!ino.ok())
        return ino.status();
    auto inodeRes = iget(ino.value());
    if (!inodeRes.ok())
        return inodeRes.status();
    InodeData inode = inodeRes.value();
    if (inode.type == FileType::Dir)
        return OsStatus::IsDir;
    auto removed = dirRemove(parent.value().first,
                             parent.value().second);
    if (!removed.ok())
        return removed.status();
    if (inode.nlink > 1) {
        // Other names still reference the file.
        inode.nlink--;
        iupdate(ino.value(), inode);
        return {};
    }
    ubc_.invalidateFile(dev_, ino.value());
    freeFileBlocks(ino.value(), inode, 0);
    ifree(ino.value());
    return {};
}

Result<void>
Ufs::rmdir(std::string_view path)
{
    if (readOnly_)
        return OsStatus::RoFs;
    procs_.enter(ProcId::UfsRmdir);
    LockTable::Guard guard(locks_, fsLock_);
    auto parent = nameiParent(path);
    if (!parent.ok())
        return parent.status();
    auto ino = dirLookup(parent.value().first, parent.value().second);
    if (!ino.ok())
        return ino.status();
    if (ino.value() == kRootIno)
        return OsStatus::Access;
    auto inodeRes = iget(ino.value());
    if (!inodeRes.ok())
        return inodeRes.status();
    InodeData inode = inodeRes.value();
    if (inode.type != FileType::Dir)
        return OsStatus::NotDir;
    auto empty = dirIsEmpty(ino.value());
    if (!empty.ok())
        return empty.status();
    if (!empty.value())
        return OsStatus::NotEmpty;
    auto removed = dirRemove(parent.value().first,
                             parent.value().second);
    if (!removed.ok())
        return removed.status();
    freeFileBlocks(ino.value(), inode, 0);
    ifree(ino.value());
    return {};
}

Result<void>
Ufs::rename(std::string_view from, std::string_view to)
{
    if (readOnly_)
        return OsStatus::RoFs;
    procs_.enter(ProcId::UfsRename);
    LockTable::Guard guard(locks_, fsLock_);
    auto fromParent = nameiParent(from);
    if (!fromParent.ok())
        return fromParent.status();
    auto srcIno = dirLookup(fromParent.value().first,
                            fromParent.value().second);
    if (!srcIno.ok())
        return srcIno.status();
    auto srcInode = iget(srcIno.value());
    if (!srcInode.ok())
        return srcInode.status();

    // A directory must not be moved into its own subtree (the
    // classic EINVAL): the tree would become unreachable.
    if (srcInode.value().type == FileType::Dir) {
        std::string prefix(from);
        while (!prefix.empty() && prefix.back() == '/')
            prefix.pop_back();
        prefix += '/';
        if (std::string(to).rfind(prefix, 0) == 0)
            return OsStatus::Inval;
    }

    auto toParent = nameiParent(to);
    if (!toParent.ok())
        return toParent.status();

    auto dstIno = dirLookup(toParent.value().first,
                            toParent.value().second);
    if (dstIno.ok()) {
        if (dstIno.value() == srcIno.value())
            return {};
        auto dstInode = iget(dstIno.value());
        if (!dstInode.ok())
            return dstInode.status();
        if (dstInode.value().type == FileType::Dir) {
            if (srcInode.value().type != FileType::Dir)
                return OsStatus::IsDir;
            auto empty = dirIsEmpty(dstIno.value());
            if (!empty.ok())
                return empty.status();
            if (!empty.value())
                return OsStatus::NotEmpty;
            auto removed = dirRemove(toParent.value().first,
                                     toParent.value().second);
            if (!removed.ok())
                return removed.status();
            InodeData dead = dstInode.value();
            freeFileBlocks(dstIno.value(), dead, 0);
            ifree(dstIno.value());
        } else {
            if (srcInode.value().type == FileType::Dir)
                return OsStatus::NotDir;
            auto removed = dirRemove(toParent.value().first,
                                     toParent.value().second);
            if (!removed.ok())
                return removed.status();
            InodeData dead = dstInode.value();
            if (dead.nlink > 1) {
                // Another hard link still references the file.
                dead.nlink--;
                iupdate(dstIno.value(), dead);
            } else {
                ubc_.invalidateFile(dev_, dstIno.value());
                freeFileBlocks(dstIno.value(), dead, 0);
                ifree(dstIno.value());
            }
        }
    } else if (dstIno.status() != OsStatus::NoEnt) {
        return dstIno.status();
    }

    // Link under the new name, then unlink the old one. A crash in
    // between leaves an extra link; fsck repairs the count.
    auto entered =
        dirEnter(toParent.value().first, toParent.value().second,
                 srcIno.value(), srcInode.value().type);
    if (!entered.ok())
        return entered.status();
    return dirRemove(fromParent.value().first,
                     fromParent.value().second);
}

Result<void>
Ufs::symlink(std::string_view target, std::string_view linkpath)
{
    if (readOnly_)
        return OsStatus::RoFs;
    procs_.enter(ProcId::UfsSymlink);
    if (target.empty() || target.size() > kBlockSize)
        return OsStatus::Inval;
    auto ino = create(linkpath, FileType::Symlink);
    if (!ino.ok())
        return ino.status();
    auto inodeRes = iget(ino.value());
    if (!inodeRes.ok())
        return inodeRes.status();
    InodeData inode = inodeRes.value();
    auto block = balloc();
    if (!block.ok())
        return block.status();
    const auto ref = buf_.getblk(dev_, block.value());
    {
        BufferCache::WriteWindow window(buf_, ref);
        window.zero(0, kBlockSize);
        window.copyIn(0, std::span<const u8>(
                             reinterpret_cast<const u8 *>(target.data()),
                             target.size()));
    }
    buf_.releaseWrite(ref);
    inode.direct[0] = block.value();
    inode.size = target.size();
    inode.mtime = machine_.clock().now();
    iupdate(ino.value(), inode);
    return {};
}

} // namespace rio::os
