/**
 * @file
 * Minimal binary serialization used by the checkpoint layer: fixed
 * little-endian encodings into a growable byte buffer, with a 64-bit
 * checksum trailer (checksum64) so truncated or corrupted snapshots are
 * rejected before any state is overwritten.
 *
 * Deserialization never throws: reads past the end (or after a failed
 * structural check) latch a sticky failure flag and return zeros, and
 * the caller checks ok() once at the end.
 */

#ifndef SDV_COMMON_SERIALIZE_HH
#define SDV_COMMON_SERIALIZE_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

namespace sdv {

/** FNV-1a over a byte range (identity hashing of short keys). */
inline std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t len,
      std::uint64_t seed = 1469598103934665603ULL)
{
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; ++i)
        h = (h ^ data[i]) * 1099511628211ULL;
    return h;
}

/**
 * Image checksum: a word-at-a-time 64-bit hash of a byte range. Four
 * independent lanes each take every fourth little-endian 8-byte word
 * through the xxHash64 round (multiply, rotate, multiply), so the
 * multiplies of neighbouring words overlap instead of chaining byte by
 * byte as in fnv1a. The lanes, the length and the zero-padded tail
 * words are then folded into one value and avalanched. Every step is a
 * bijection of the running state for a fixed input word, so changing
 * any single bit of the range always changes the result.
 */
inline std::uint64_t
checksum64(const std::uint8_t *data, std::size_t len)
{
    constexpr std::uint64_t p1 = 0x9E3779B185EBCA87ULL;
    constexpr std::uint64_t p2 = 0xC2B2AE3D27D4EB4FULL;
    constexpr std::uint64_t p3 = 0x165667B19E3779F9ULL;
    constexpr std::uint64_t p4 = 0x85EBCA77C2B2AE63ULL;
    auto round = [](std::uint64_t acc, std::uint64_t word) {
        return std::rotl(acc + word * p2, 31) * p1;
    };
    auto word = [](const std::uint8_t *at, std::size_t n) {
        std::uint64_t w = 0;
        std::memcpy(&w, at, n);
        if constexpr (std::endian::native == std::endian::big)
            w = __builtin_bswap64(w);
        return w;
    };
    std::uint64_t lane[4] = {p1 + p2, p2, 0, 0 - p1};
    std::size_t i = 0;
    for (; i + 32 <= len; i += 32)
        for (unsigned k = 0; k < 4; ++k)
            lane[k] = round(lane[k], word(data + i + 8 * k, 8));
    std::uint64_t h = len * p3;
    for (std::uint64_t l : lane)
        h = (h ^ round(0, l)) * p1 + p4;
    for (; i < len; i += 8) {
        const std::size_t n = len - i < 8 ? len - i : 8;
        h = std::rotl(h ^ round(0, word(data + i, n)), 27) * p1 + p4;
    }
    h ^= h >> 33;
    h *= p2;
    h ^= h >> 29;
    h *= p3;
    return h ^ (h >> 32);
}

/** Append-only little-endian byte sink. */
class Serializer
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(std::uint32_t v)
    {
        for (unsigned i = 0; i < 4; ++i)
            buf_.push_back(std::uint8_t(v >> (8 * i)));
    }

    void
    u64(std::uint64_t v)
    {
        for (unsigned i = 0; i < 8; ++i)
            buf_.push_back(std::uint8_t(v >> (8 * i)));
    }

    void i64(std::int64_t v) { u64(std::uint64_t(v)); }

    void b(bool v) { u8(v ? 1 : 0); }

    void
    bytes(const void *data, std::size_t len)
    {
        // resize + memcpy rather than insert: equivalent, and avoids a
        // GCC 12 -Wstringop-overflow false positive when a fixed-size
        // array insert is inlined under LTO.
        const std::size_t old = buf_.size();
        buf_.resize(old + len);
        if (len)
            std::memcpy(buf_.data() + old, data, len);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        bytes(s.data(), s.size());
    }

    /** @return current payload size in bytes. */
    std::size_t size() const { return buf_.size(); }

    /**
     * Seal the buffer: append the checksum64 of everything written so
     * far and return the finished byte image.
     */
    std::vector<std::uint8_t>
    finish()
    {
        const std::uint64_t sum = checksum64(buf_.data(), buf_.size());
        u64(sum);
        return std::move(buf_);
    }

  private:
    std::vector<std::uint8_t> buf_;
};

/** Sticky-failure little-endian byte source. */
class Deserializer
{
  public:
    explicit Deserializer(const std::vector<std::uint8_t> &buf)
        : data_(buf.data()), size_(buf.size())
    {
    }

    Deserializer(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {
    }

    /**
     * Validate the checksum trailer written by Serializer::finish and
     * shrink the readable window to the payload. Must be called before
     * reading; @return false (and latch failure) on a truncated or
     * corrupted image.
     */
    bool
    verifyChecksum()
    {
        if (size_ < 8) {
            ok_ = false;
            return false;
        }
        const std::size_t payload = size_ - 8;
        std::uint64_t stored = 0;
        for (unsigned i = 0; i < 8; ++i)
            stored |= std::uint64_t(data_[payload + i]) << (8 * i);
        if (checksum64(data_, payload) != stored) {
            ok_ = false;
            return false;
        }
        size_ = payload;
        return true;
    }

    std::uint8_t
    u8()
    {
        if (!ensure(1))
            return 0;
        return data_[pos_++];
    }

    std::uint32_t
    u32()
    {
        if (!ensure(4))
            return 0;
        std::uint32_t v = 0;
        for (unsigned i = 0; i < 4; ++i)
            v |= std::uint32_t(data_[pos_++]) << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        if (!ensure(8))
            return 0;
        std::uint64_t v = 0;
        for (unsigned i = 0; i < 8; ++i)
            v |= std::uint64_t(data_[pos_++]) << (8 * i);
        return v;
    }

    std::int64_t i64() { return std::int64_t(u64()); }

    bool b() { return u8() != 0; }

    bool
    bytes(void *out, std::size_t len)
    {
        if (!ensure(len))
            return false;
        if (len) // an empty destination vector may hand in a null out
            std::memcpy(out, data_ + pos_, len);
        pos_ += len;
        return true;
    }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        if (!ensure(n))
            return {};
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      std::size_t(n));
        pos_ += std::size_t(n);
        return s;
    }

    /** Latch a failure from a caller-side structural check (bad magic,
     *  geometry mismatch, ...). */
    void fail() { ok_ = false; }

    /** @return true while every read so far stayed in bounds. */
    bool ok() const { return ok_; }

    /** @return true when the whole payload was consumed. */
    bool atEnd() const { return ok_ && pos_ == size_; }

  private:
    bool
    ensure(std::size_t n)
    {
        if (!ok_ || size_ - pos_ < n) {
            ok_ = false;
            return false;
        }
        return true;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    bool ok_ = true;
};

} // namespace sdv

#endif // SDV_COMMON_SERIALIZE_HH
