#include "arch/memory.hh"

#include <algorithm>
#include <cstring>

#include "common/bitutils.hh"
#include "common/log.hh"
#include "common/serialize.hh"

namespace sdv {

const SparseMemory::Page *
SparseMemory::findPage(Addr page_addr) const
{
    if (page_addr == mruAddr_)
        return mruPage_;
    auto it = pages_.find(page_addr);
    if (it == pages_.end())
        return nullptr;
    mruAddr_ = page_addr;
    // The cache is shared with the mutable path; writes only ever go
    // through it when the SparseMemory object itself is mutable.
    mruPage_ = const_cast<Page *>(&it->second);
    return mruPage_;
}

SparseMemory::Page &
SparseMemory::getPage(Addr page_addr)
{
    if (page_addr == mruAddr_)
        return *mruPage_;
    auto it = pages_.find(page_addr);
    if (it == pages_.end())
        it = pages_.emplace(page_addr, Page(pageBytes, 0)).first;
    mruAddr_ = page_addr;
    mruPage_ = &it->second;
    return *mruPage_;
}

std::uint64_t
SparseMemory::read(Addr addr, unsigned size) const
{
    sdv_assert(size == 1 || size == 2 || size == 4 || size == 8,
               "bad access size ", size);
    const Addr page_addr = alignDown(addr, pageBytes);
    const unsigned offset = unsigned(addr - page_addr);
    std::uint64_t v = 0;
    if (offset + size <= pageBytes) {
        // Fast path: access within a single page.
        if (const Page *page = findPage(page_addr))
            std::memcpy(&v, page->data() + offset, size);
        return v;
    }
    // Straddles a page boundary: two lookups, two spans.
    const unsigned first = pageBytes - offset;
    if (const Page *page = findPage(page_addr))
        std::memcpy(&v, page->data() + offset, first);
    if (const Page *page = findPage(page_addr + pageBytes)) {
        std::uint64_t rest = 0;
        std::memcpy(&rest, page->data(), size - first);
        v |= rest << (8 * first);
    }
    return v;
}

void
SparseMemory::write(Addr addr, std::uint64_t value, unsigned size)
{
    sdv_assert(size == 1 || size == 2 || size == 4 || size == 8,
               "bad access size ", size);
    const Addr page_addr = alignDown(addr, pageBytes);
    const unsigned offset = unsigned(addr - page_addr);
    if (offset + size <= pageBytes) {
        std::memcpy(getPage(page_addr).data() + offset, &value, size);
        return;
    }
    const unsigned first = pageBytes - offset;
    std::memcpy(getPage(page_addr).data() + offset, &value, first);
    const std::uint64_t rest = value >> (8 * first);
    std::memcpy(getPage(page_addr + pageBytes).data(), &rest,
                size - first);
}

void
SparseMemory::readBytes(Addr addr, std::uint8_t *out, size_t len) const
{
    while (len > 0) {
        const Addr page_addr = alignDown(addr, pageBytes);
        const unsigned offset = unsigned(addr - page_addr);
        const size_t span =
            len < size_t(pageBytes - offset) ? len : pageBytes - offset;
        if (const Page *page = findPage(page_addr))
            std::memcpy(out, page->data() + offset, span);
        else
            std::memset(out, 0, span);
        addr += span;
        out += span;
        len -= span;
    }
}

void
SparseMemory::writeBytes(Addr addr, const std::uint8_t *data, size_t len)
{
    while (len > 0) {
        const Addr page_addr = alignDown(addr, pageBytes);
        const unsigned offset = unsigned(addr - page_addr);
        const size_t span =
            len < size_t(pageBytes - offset) ? len : pageBytes - offset;
        std::memcpy(getPage(page_addr).data() + offset, data, span);
        addr += span;
        data += span;
        len -= span;
    }
}

std::vector<Addr>
SparseMemory::pageAddrs() const
{
    std::vector<Addr> addrs;
    addrs.reserve(pages_.size());
    for (const auto &[page_addr, page] : pages_)
        addrs.push_back(page_addr);
    std::sort(addrs.begin(), addrs.end());
    return addrs;
}

void
SparseMemory::saveState(Serializer &ser, const SparseMemory &base) const
{
    std::vector<Addr> addrs = pageAddrs();
    std::size_t shared = 0;
    std::erase_if(addrs, [&](Addr a) {
        auto it = base.pages_.find(a);
        if (it == base.pages_.end())
            return false;
        ++shared;
        return std::memcmp(pages_.at(a).data(), it->second.data(),
                           pageBytes) == 0;
    });
    sdv_assert(shared == base.pages_.size(),
               "memory image lost pages of its base");

    ser.u32(pageBytes);
    ser.u64(addrs.size());
    for (Addr a : addrs) {
        ser.u64(a);
        ser.bytes(pages_.at(a).data(), pageBytes);
    }
}

void
SparseMemory::loadState(Deserializer &des)
{
    if (des.u32() != pageBytes) {
        des.fail();
        return;
    }
    const std::uint64_t n = des.u64();
    for (std::uint64_t i = 0; i < n && des.ok(); ++i) {
        const Addr a = des.u64();
        if (!des.bytes(getPage(a).data(), pageBytes))
            return;
    }
}

bool
SparseMemory::equals(const SparseMemory &other) const
{
    auto covered = [](const SparseMemory &a, const SparseMemory &b) {
        static const Page zeros(pageBytes, 0);
        for (const auto &[page_addr, page] : a.pages_) {
            auto it = b.pages_.find(page_addr);
            const Page &ref = it == b.pages_.end() ? zeros : it->second;
            if (std::memcmp(page.data(), ref.data(), pageBytes) != 0)
                return false;
        }
        return true;
    };
    return covered(*this, other) && covered(other, *this);
}

} // namespace sdv
