// Wire-format primitives (DESIGN.md §10): little-endian integer encoding
// behind a growable writer and a strictly bounds-checked reader.
//
// Every decode path in src/wire/ is built on WireReader, whose accessors
// refuse to read past the end of the buffer and record the first error they
// hit. Decoders therefore never index out of bounds on truncated or
// corrupted input — they return a WireError instead (never abort/UB), which
// is what the malformed-frame fuzz corpus pins down.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace gossipc::wire {

/// Wire format version; bumped on any layout change. Shared by the frame
/// header and the body codec; golden byte-layout tests in tests/test_wire.cpp
/// pin version 3 against accidental drift (v2 added the u16 batch-component
/// count to every encoded value, DESIGN.md §14; v3 added the i32 group id to
/// every Paxos body, per-group heartbeat frontiers, and the cross-group
/// GroupBatch body, DESIGN.md §15).
inline constexpr std::uint8_t kWireVersion = 3;

/// Decode failure classification. Encoders cannot fail; every decoder
/// returns the first error encountered, leaving the partial output unused.
enum class WireError : std::uint8_t {
    None = 0,
    Truncated,      ///< input ended before the announced structure did
    TrailingBytes,  ///< structure ended but input bytes remain
    Oversized,      ///< announced length exceeds the wire-format cap
    BadMagic,       ///< frame does not start with kFrameMagic
    BadVersion,     ///< frame version is not kWireVersion
    BadFrameType,   ///< unknown frame type tag
    BadBodyKind,    ///< unknown body kind tag
    BadMsgType,     ///< unknown Paxos/Raft message type tag
    LimitExceeded,  ///< list length field exceeds its per-type cap
    BadField,       ///< field value outside its legal domain
};

const char* wire_error_name(WireError e);

/// Append-only little-endian byte sink.
class WireWriter {
public:
    void u8(std::uint8_t v) { buf_.push_back(v); }
    void u16(std::uint16_t v) { append(&v, sizeof v); }
    void u32(std::uint32_t v) { append(&v, sizeof v); }
    void u64(std::uint64_t v) { append(&v, sizeof v); }
    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
    void bytes(std::span<const std::uint8_t> b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

    std::size_t size() const { return buf_.size(); }
    const std::vector<std::uint8_t>& data() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

private:
    void append(const void* p, std::size_t n) {
        const auto* b = static_cast<const std::uint8_t*>(p);
        buf_.insert(buf_.end(), b, b + n);
        static_assert(std::endian::native == std::endian::little,
                      "wire format assumes a little-endian host");
    }

    std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian reader. The first failed read latches
/// `error()`; all subsequent reads return zero values and keep the error.
class WireReader {
public:
    explicit WireReader(std::span<const std::uint8_t> data) : data_(data) {}

    std::uint8_t u8() { return read<std::uint8_t>(); }
    std::uint16_t u16() { return read<std::uint16_t>(); }
    std::uint32_t u32() { return read<std::uint32_t>(); }
    std::uint64_t u64() { return read<std::uint64_t>(); }
    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    /// Views the next `n` bytes and advances past them. On underrun latches
    /// Truncated and returns an empty span.
    std::span<const std::uint8_t> bytes(std::size_t n) {
        if (!ok()) return {};
        if (remaining() < n) {
            fail(WireError::Truncated);
            return {};
        }
        const auto view = data_.subspan(pos_, n);
        pos_ += n;
        return view;
    }

    std::size_t remaining() const { return data_.size() - pos_; }
    std::size_t pos() const { return pos_; }
    bool ok() const { return error_ == WireError::None; }
    WireError error() const { return error_; }
    /// Offending tag byte of a latched BadBodyKind/BadMsgType (0 otherwise).
    std::uint8_t error_tag() const { return error_tag_; }
    /// Byte offset of the read that latched the error.
    std::size_t error_offset() const { return error_offset_; }

    /// Records a decode error (no-op if one is already latched, so the
    /// earliest failure wins).
    void fail(WireError e) { fail_at(e, 0, pos_); }

    /// Records a decode error caused by a specific tag byte: the unknown
    /// body-kind or message-type value and the offset it was read from.
    /// Feeds the typed DecodeError that decode_body() reports.
    void fail_at(WireError e, std::uint8_t tag, std::size_t offset) {
        if (error_ != WireError::None) return;
        error_ = e;
        error_tag_ = tag;
        error_offset_ = offset;
    }

    /// Decoding of one structure is complete: any unread bytes are an error.
    void expect_end() {
        if (ok() && remaining() != 0) fail(WireError::TrailingBytes);
    }

private:
    template <typename T>
    T read() {
        if (!ok()) return T{};
        if (remaining() < sizeof(T)) {
            fail(WireError::Truncated);
            return T{};
        }
        T v;
        std::memcpy(&v, data_.data() + pos_, sizeof(T));
        pos_ += sizeof(T);
        return v;
    }

    std::span<const std::uint8_t> data_;
    std::size_t pos_ = 0;
    WireError error_ = WireError::None;
    std::uint8_t error_tag_ = 0;
    std::size_t error_offset_ = 0;
};

}  // namespace gossipc::wire
