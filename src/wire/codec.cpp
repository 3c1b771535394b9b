#include "wire/codec.hpp"

#include <memory>
#include <optional>
#include <utility>

namespace gossipc::wire {

const char* wire_error_name(WireError e) {
    switch (e) {
        case WireError::None: return "none";
        case WireError::Truncated: return "truncated";
        case WireError::TrailingBytes: return "trailing-bytes";
        case WireError::Oversized: return "oversized";
        case WireError::BadMagic: return "bad-magic";
        case WireError::BadVersion: return "bad-version";
        case WireError::BadFrameType: return "bad-frame-type";
        case WireError::BadBodyKind: return "bad-body-kind";
        case WireError::BadMsgType: return "bad-msg-type";
        case WireError::LimitExceeded: return "limit-exceeded";
        case WireError::BadField: return "bad-field";
    }
    return "?";
}

namespace {

// Message type tags as written on the wire. Decoupled from the in-memory
// enums: the golden-layout tests pin these numbers, so a reorder of
// PaxosMsgType/RaftMsgType cannot silently change the format.
enum : std::uint8_t {
    kPaxosClientValue = 1,
    kPaxosPhase1a = 2,
    kPaxosPhase1b = 3,
    kPaxosPhase2a = 4,
    kPaxosPhase2b = 5,
    kPaxosPhase2bAggregate = 6,
    kPaxosDecision = 7,
    kPaxosLearnRequest = 8,
    kPaxosHeartbeat = 9,
    kPaxosGroupBatch = 10,
};

enum : std::uint8_t {
    kRaftClientForward = 1,
    kRaftAppend = 2,
    kRaftAck = 3,
    kRaftAckAggregate = 4,
    kRaftCommit = 5,
};

// Envelope flag bits (u8): the remaining bits must be zero on decode.
constexpr std::uint8_t kEnvelopeAggregated = 0x01;

// Tag-to-enum mapping, the single place unknown wire bytes are rejected.
// These switches are over raw u8 values, so a default arm is their
// unknown-input rejection path; every switch over the *enums* below is
// exhaustive with no default (enforced by -Wswitch-enum on this file and
// gclint's switch-exhaustiveness rule), so adding a message type fails the
// build until its decode case exists.
std::optional<PaxosMsgType> paxos_type_from_tag(std::uint8_t tag) {
    switch (tag) {
        case kPaxosClientValue: return PaxosMsgType::ClientValue;
        case kPaxosPhase1a: return PaxosMsgType::Phase1a;
        case kPaxosPhase1b: return PaxosMsgType::Phase1b;
        case kPaxosPhase2a: return PaxosMsgType::Phase2a;
        case kPaxosPhase2b: return PaxosMsgType::Phase2b;
        case kPaxosPhase2bAggregate: return PaxosMsgType::Phase2bAggregate;
        case kPaxosDecision: return PaxosMsgType::Decision;
        case kPaxosLearnRequest: return PaxosMsgType::LearnRequest;
        case kPaxosHeartbeat: return PaxosMsgType::Heartbeat;
        case kPaxosGroupBatch: return PaxosMsgType::GroupBatch;
        default: return std::nullopt;
    }
}

std::optional<RaftMsgType> raft_type_from_tag(std::uint8_t tag) {
    switch (tag) {
        case kRaftClientForward: return RaftMsgType::ClientForward;
        case kRaftAppend: return RaftMsgType::Append;
        case kRaftAck: return RaftMsgType::Ack;
        case kRaftAckAggregate: return RaftMsgType::AckAggregate;
        case kRaftCommit: return RaftMsgType::Commit;
        default: return std::nullopt;
    }
}

std::optional<WireBodyKind> body_kind_from_tag(std::uint8_t tag) {
    switch (tag) {
        case static_cast<std::uint8_t>(WireBodyKind::GossipEnvelope):
            return WireBodyKind::GossipEnvelope;
        case static_cast<std::uint8_t>(WireBodyKind::PullDigest):
            return WireBodyKind::PullDigest;
        case static_cast<std::uint8_t>(WireBodyKind::Paxos):
            return WireBodyKind::Paxos;
        case static_cast<std::uint8_t>(WireBodyKind::Raft):
            return WireBodyKind::Raft;
        default: return std::nullopt;
    }
}

// A value is the (client, seq, size) triple followed by a u16 component
// count: 0 for plain client values, else the coordinator-batch components
// (DESIGN.md §14), each encoded as a bare triple. Components carry no count
// of their own, so nested batches are unrepresentable on the wire.
void put_value(const Value& v, WireWriter& out) {
    out.i32(v.id.client);
    out.i64(v.id.seq);
    out.u32(v.size_bytes);
    out.u16(static_cast<std::uint16_t>(v.batch.size()));
    for (const Value& c : v.batch) {
        out.i32(c.id.client);
        out.i64(c.id.seq);
        out.u32(c.size_bytes);
    }
}

Value get_value(WireReader& in) {
    Value v;
    v.id.client = in.i32();
    v.id.seq = in.i64();
    v.size_bytes = in.u32();
    if (in.ok() && v.size_bytes > kMaxValueBytes) in.fail(WireError::Oversized);
    const std::uint16_t count = in.u16();
    if (in.ok() && count > kMaxBatchEntries) {
        in.fail(WireError::LimitExceeded);
        return v;
    }
    // Truncation pre-check before reserving: each component is 16 bytes.
    if (in.ok() && in.remaining() < static_cast<std::size_t>(count) * 16u) {
        in.fail(WireError::Truncated);
        return v;
    }
    v.batch.reserve(count);
    for (std::uint16_t i = 0; i < count && in.ok(); ++i) {
        Value c;
        c.id.client = in.i32();
        c.id.seq = in.i64();
        c.size_bytes = in.u32();
        if (in.ok() && c.size_bytes > kMaxValueBytes) in.fail(WireError::Oversized);
        v.batch.push_back(std::move(c));
    }
    return v;
}

void put_value_id(const ValueId& id, WireWriter& out) {
    out.i32(id.client);
    out.i64(id.seq);
}

ValueId get_value_id(WireReader& in) {
    ValueId id;
    id.client = in.i32();
    id.seq = in.i64();
    return id;
}

void put_senders(const std::vector<ProcessId>& senders, WireWriter& out) {
    out.u32(static_cast<std::uint32_t>(senders.size()));
    for (const ProcessId s : senders) out.i32(s);
}

std::vector<ProcessId> get_senders(WireReader& in) {
    const std::uint32_t count = in.u32();
    if (in.ok() && count > kMaxListEntries) {
        in.fail(WireError::LimitExceeded);
        return {};
    }
    // Cheap truncation pre-check before reserving: each entry is 4 bytes.
    if (in.ok() && in.remaining() < count * 4u) {
        in.fail(WireError::Truncated);
        return {};
    }
    std::vector<ProcessId> senders;
    senders.reserve(count);
    for (std::uint32_t i = 0; i < count && in.ok(); ++i) senders.push_back(in.i32());
    return senders;
}

// ---- Paxos ----------------------------------------------------------------

void encode_paxos(const PaxosMessage& msg, WireWriter& out) {
    switch (msg.type()) {
        case PaxosMsgType::ClientValue: {
            const auto& m = static_cast<const ClientValueMsg&>(msg);
            out.u8(kPaxosClientValue);
            out.i32(m.sender());
            out.i32(m.group());
            put_value(m.value(), out);
            out.i32(m.attempt());
            out.i32(m.target());
            out.u8(m.forwarded() ? 1 : 0);
            return;
        }
        case PaxosMsgType::Phase1a: {
            const auto& m = static_cast<const Phase1aMsg&>(msg);
            out.u8(kPaxosPhase1a);
            out.i32(m.sender());
            out.i32(m.group());
            out.i32(m.round());
            out.i64(m.from_instance());
            return;
        }
        case PaxosMsgType::Phase1b: {
            const auto& m = static_cast<const Phase1bMsg&>(msg);
            out.u8(kPaxosPhase1b);
            out.i32(m.sender());
            out.i32(m.group());
            out.i32(m.round());
            out.i64(m.from_instance());
            out.u32(static_cast<std::uint32_t>(m.accepted().size()));
            for (const AcceptedEntry& e : m.accepted()) {
                out.i64(e.instance);
                out.i32(e.vround);
                put_value(e.value, out);
            }
            return;
        }
        case PaxosMsgType::Phase2a: {
            const auto& m = static_cast<const Phase2aMsg&>(msg);
            out.u8(kPaxosPhase2a);
            out.i32(m.sender());
            out.i32(m.group());
            out.i64(m.instance());
            out.i32(m.round());
            put_value(m.value(), out);
            out.i32(m.attempt());
            return;
        }
        case PaxosMsgType::Phase2b: {
            const auto& m = static_cast<const Phase2bMsg&>(msg);
            out.u8(kPaxosPhase2b);
            out.i32(m.sender());
            out.i32(m.group());
            out.i64(m.instance());
            out.i32(m.round());
            put_value_id(m.value_id(), out);
            out.u64(m.value_digest());
            out.i32(m.attempt());
            return;
        }
        case PaxosMsgType::Phase2bAggregate: {
            const auto& m = static_cast<const Phase2bAggregateMsg&>(msg);
            out.u8(kPaxosPhase2bAggregate);
            out.i32(m.sender());
            out.i32(m.group());
            out.i64(m.instance());
            out.i32(m.round());
            put_value_id(m.value_id(), out);
            out.u64(m.value_digest());
            put_senders(m.senders(), out);
            out.i32(m.attempt());
            return;
        }
        case PaxosMsgType::Decision: {
            const auto& m = static_cast<const DecisionMsg&>(msg);
            out.u8(kPaxosDecision);
            out.i32(m.sender());
            out.i32(m.group());
            out.i64(m.instance());
            put_value_id(m.value_id(), out);
            out.u64(m.value_digest());
            out.u8(m.full_value() ? 1 : 0);
            if (m.full_value()) put_value(*m.full_value(), out);
            out.i32(m.attempt());
            return;
        }
        case PaxosMsgType::LearnRequest: {
            const auto& m = static_cast<const LearnRequestMsg&>(msg);
            out.u8(kPaxosLearnRequest);
            out.i32(m.sender());
            out.i32(m.group());
            out.i64(m.instance());
            out.i32(m.attempt());
            out.i32(m.target());
            return;
        }
        case PaxosMsgType::Heartbeat: {
            const auto& m = static_cast<const HeartbeatMsg&>(msg);
            out.u8(kPaxosHeartbeat);
            out.i32(m.sender());
            out.i32(m.group());
            out.u64(m.seq());
            // v3: one frontier per group (count >= 1 by construction).
            out.u16(static_cast<std::uint16_t>(m.frontiers().size()));
            for (const InstanceId f : m.frontiers()) out.i64(f);
            return;
        }
        case PaxosMsgType::GroupBatch: {
            const auto& m = static_cast<const GroupBatchMsg&>(msg);
            out.u8(kPaxosGroupBatch);
            out.i32(m.sender());
            out.i32(m.group());
            out.u8(m.verb() == PaxosMsgType::Decision ? kPaxosDecision : kPaxosPhase2b);
            out.u16(static_cast<std::uint16_t>(m.entries().size()));
            // Entries are complete Paxos bodies (tag, sender, group, fields),
            // so the unpacked originals regenerate their exact gossip ids.
            for (const PaxosMessagePtr& e : m.entries()) encode_paxos(*e, out);
            return;
        }
    }
}

/// `nested` is true when decoding a GroupBatch entry: a batch inside a batch
/// is malformed (mirroring the envelope's nested-envelope rejection), which
/// also bounds decode recursion to depth two.
std::shared_ptr<PaxosMessage> decode_paxos(WireReader& in, bool nested = false) {
    const std::size_t tag_offset = in.pos();
    const std::uint8_t tag = in.u8();
    const ProcessId sender = in.i32();
    const GroupId group = in.i32();
    if (!in.ok()) return nullptr;
    const std::optional<PaxosMsgType> type = paxos_type_from_tag(tag);
    if (!type) {
        in.fail_at(WireError::BadMsgType, tag, tag_offset);
        return nullptr;
    }
    std::shared_ptr<PaxosMessage> msg;
    switch (*type) {
        case PaxosMsgType::ClientValue: {
            const Value value = get_value(in);
            const std::int32_t attempt = in.i32();
            const ProcessId target = in.i32();
            const std::uint8_t forwarded = in.u8();
            if (in.ok() && forwarded > 1) in.fail(WireError::BadField);
            if (!in.ok()) return nullptr;
            msg = std::make_shared<ClientValueMsg>(sender, value, attempt, target,
                                                   forwarded != 0);
            break;
        }
        case PaxosMsgType::Phase1a: {
            const Round round = in.i32();
            const InstanceId from = in.i64();
            if (!in.ok()) return nullptr;
            msg = std::make_shared<Phase1aMsg>(sender, round, from);
            break;
        }
        case PaxosMsgType::Phase1b: {
            const Round round = in.i32();
            const InstanceId from = in.i64();
            const std::uint32_t count = in.u32();
            if (in.ok() && count > kMaxListEntries) in.fail(WireError::LimitExceeded);
            // Each entry is at least 30 bytes (instance + vround + a plain
            // value with its u16 batch count); reject sizes the input
            // cannot hold.
            if (in.ok() && in.remaining() < count * 30u) in.fail(WireError::Truncated);
            if (!in.ok()) return nullptr;
            std::vector<AcceptedEntry> accepted;
            accepted.reserve(count);
            for (std::uint32_t i = 0; i < count && in.ok(); ++i) {
                AcceptedEntry e;
                e.instance = in.i64();
                e.vround = in.i32();
                e.value = get_value(in);
                accepted.push_back(e);
            }
            if (!in.ok()) return nullptr;
            msg = std::make_shared<Phase1bMsg>(sender, round, from, std::move(accepted));
            break;
        }
        case PaxosMsgType::Phase2a: {
            const InstanceId instance = in.i64();
            const Round round = in.i32();
            const Value value = get_value(in);
            const std::int32_t attempt = in.i32();
            if (!in.ok()) return nullptr;
            msg = std::make_shared<Phase2aMsg>(sender, instance, round, value, attempt);
            break;
        }
        case PaxosMsgType::Phase2b: {
            const InstanceId instance = in.i64();
            const Round round = in.i32();
            const ValueId id = get_value_id(in);
            const std::uint64_t digest = in.u64();
            const std::int32_t attempt = in.i32();
            if (!in.ok()) return nullptr;
            msg = std::make_shared<Phase2bMsg>(sender, instance, round, id, digest, attempt);
            break;
        }
        case PaxosMsgType::Phase2bAggregate: {
            const InstanceId instance = in.i64();
            const Round round = in.i32();
            const ValueId id = get_value_id(in);
            const std::uint64_t digest = in.u64();
            std::vector<ProcessId> senders = get_senders(in);
            const std::int32_t attempt = in.i32();
            if (!in.ok()) return nullptr;
            msg = std::make_shared<Phase2bAggregateMsg>(sender, instance, round, id, digest,
                                                        std::move(senders), attempt);
            break;
        }
        case PaxosMsgType::Decision: {
            const InstanceId instance = in.i64();
            const ValueId id = get_value_id(in);
            const std::uint64_t digest = in.u64();
            const std::uint8_t has_value = in.u8();
            if (in.ok() && has_value > 1) in.fail(WireError::BadField);
            std::optional<Value> full;
            if (in.ok() && has_value) full = get_value(in);
            const std::int32_t attempt = in.i32();
            if (!in.ok()) return nullptr;
            msg = std::make_shared<DecisionMsg>(sender, instance, id, digest, full, attempt);
            break;
        }
        case PaxosMsgType::LearnRequest: {
            const InstanceId instance = in.i64();
            const std::int32_t attempt = in.i32();
            const ProcessId target = in.i32();
            if (!in.ok()) return nullptr;
            msg = std::make_shared<LearnRequestMsg>(sender, instance, attempt, target);
            break;
        }
        case PaxosMsgType::Heartbeat: {
            const std::uint64_t seq = in.u64();
            const std::uint16_t count = in.u16();
            if (in.ok() && (count == 0 || count > kMaxGroupFrontiers)) {
                in.fail(WireError::BadField);
            }
            if (in.ok() && in.remaining() < static_cast<std::size_t>(count) * 8u) {
                in.fail(WireError::Truncated);
            }
            if (!in.ok()) return nullptr;
            std::vector<InstanceId> frontiers;
            frontiers.reserve(count);
            for (std::uint16_t i = 0; i < count && in.ok(); ++i) frontiers.push_back(in.i64());
            if (!in.ok()) return nullptr;
            msg = std::make_shared<HeartbeatMsg>(sender, seq, std::move(frontiers));
            break;
        }
        case PaxosMsgType::GroupBatch: {
            const std::size_t verb_offset = in.pos();
            const std::uint8_t verb_tag = in.u8();
            const std::uint16_t count = in.u16();
            if (!in.ok()) return nullptr;
            if (nested || (verb_tag != kPaxosPhase2b && verb_tag != kPaxosDecision)) {
                // Batches pack plain digest-sized messages only; a nested
                // batch (or any other verb) is malformed.
                in.fail_at(WireError::BadField, verb_tag, verb_offset);
                return nullptr;
            }
            if (count > kMaxBatchEntries) {
                in.fail(WireError::LimitExceeded);
                return nullptr;
            }
            const PaxosMsgType verb = verb_tag == kPaxosDecision ? PaxosMsgType::Decision
                                                                 : PaxosMsgType::Phase2b;
            std::vector<PaxosMessagePtr> entries;
            entries.reserve(count);
            for (std::uint16_t i = 0; i < count && in.ok(); ++i) {
                std::shared_ptr<PaxosMessage> entry = decode_paxos(in, /*nested=*/true);
                if (!in.ok() || entry == nullptr) return nullptr;
                if (entry->type() != verb) {
                    in.fail(WireError::BadField);
                    return nullptr;
                }
                entries.push_back(std::move(entry));
            }
            if (!in.ok()) return nullptr;
            msg = std::make_shared<GroupBatchMsg>(sender, verb, std::move(entries));
            break;
        }
    }
    if (msg != nullptr) msg->set_group(group);
    return msg;
}

// ---- Raft -----------------------------------------------------------------

void encode_raft(const RaftMessage& msg, WireWriter& out) {
    switch (msg.type()) {
        case RaftMsgType::ClientForward: {
            const auto& m = static_cast<const ClientForwardMsg&>(msg);
            out.u8(kRaftClientForward);
            out.i32(m.sender());
            put_value(m.value(), out);
            out.i32(m.attempt());
            return;
        }
        case RaftMsgType::Append: {
            const auto& m = static_cast<const AppendMsg&>(msg);
            out.u8(kRaftAppend);
            out.i32(m.sender());
            out.i32(m.term());
            out.i64(m.index());
            put_value(m.value(), out);
            return;
        }
        case RaftMsgType::Ack: {
            const auto& m = static_cast<const AckMsg&>(msg);
            out.u8(kRaftAck);
            out.i32(m.sender());
            out.i32(m.term());
            out.i64(m.index());
            out.u64(m.value_digest());
            return;
        }
        case RaftMsgType::AckAggregate: {
            const auto& m = static_cast<const AckAggregateMsg&>(msg);
            out.u8(kRaftAckAggregate);
            out.i32(m.sender());
            out.i32(m.term());
            out.i64(m.index());
            out.u64(m.value_digest());
            put_senders(m.senders(), out);
            return;
        }
        case RaftMsgType::Commit: {
            const auto& m = static_cast<const CommitMsg&>(msg);
            out.u8(kRaftCommit);
            out.i32(m.sender());
            out.i32(m.term());
            out.i64(m.index());
            out.u64(m.value_digest());
            return;
        }
    }
}

BodyPtr decode_raft(WireReader& in) {
    const std::size_t tag_offset = in.pos();
    const std::uint8_t tag = in.u8();
    const ProcessId sender = in.i32();
    if (!in.ok()) return nullptr;
    const std::optional<RaftMsgType> type = raft_type_from_tag(tag);
    if (!type) {
        in.fail_at(WireError::BadMsgType, tag, tag_offset);
        return nullptr;
    }
    switch (*type) {
        case RaftMsgType::ClientForward: {
            const Value value = get_value(in);
            const std::int32_t attempt = in.i32();
            if (!in.ok()) return nullptr;
            return std::make_shared<ClientForwardMsg>(sender, value, attempt);
        }
        case RaftMsgType::Append: {
            const Term term = in.i32();
            const LogIndex index = in.i64();
            const Value value = get_value(in);
            if (!in.ok()) return nullptr;
            return std::make_shared<AppendMsg>(sender, term, index, value);
        }
        case RaftMsgType::Ack: {
            const Term term = in.i32();
            const LogIndex index = in.i64();
            const std::uint64_t digest = in.u64();
            if (!in.ok()) return nullptr;
            return std::make_shared<AckMsg>(sender, term, index, digest);
        }
        case RaftMsgType::AckAggregate: {
            const Term term = in.i32();
            const LogIndex index = in.i64();
            const std::uint64_t digest = in.u64();
            std::vector<ProcessId> senders = get_senders(in);
            if (!in.ok()) return nullptr;
            return std::make_shared<AckAggregateMsg>(sender, term, index, digest,
                                                     std::move(senders));
        }
        case RaftMsgType::Commit: {
            const Term term = in.i32();
            const LogIndex index = in.i64();
            const std::uint64_t digest = in.u64();
            if (!in.ok()) return nullptr;
            return std::make_shared<CommitMsg>(sender, term, index, digest);
        }
    }
    return nullptr;  // unreachable: every case returns
}

// ---- Envelope / digest ----------------------------------------------------

bool encode_inner(const MessageBody& body, WireWriter& out);

void encode_envelope(const GossipEnvelope& env, WireWriter& out) {
    const GossipAppMessage& msg = env.message();
    out.u8(static_cast<std::uint8_t>(WireBodyKind::GossipEnvelope));
    out.u64(msg.id);
    out.i32(msg.origin);
    out.u16(msg.hops);
    out.u8(msg.aggregated ? kEnvelopeAggregated : 0);
    if (msg.payload) encode_inner(*msg.payload, out);
}

/// The payloads an aggregation rule emits: Phase2bAggregate and GroupBatch
/// (PaxosSemantics), AckAggregate (RaftSemantics).
bool is_aggregate(const MessageBody& body) {
    if (body.kind() == BodyKind::Paxos) {
        const PaxosMsgType type = static_cast<const PaxosMessage&>(body).type();
        return type == PaxosMsgType::Phase2bAggregate || type == PaxosMsgType::GroupBatch;
    }
    return body.kind() == BodyKind::Raft &&
           static_cast<const RaftMessage&>(body).type() == RaftMsgType::AckAggregate;
}

BodyPtr decode_envelope(WireReader& in) {
    GossipAppMessage msg;
    msg.id = in.u64();
    msg.origin = in.i32();
    msg.hops = in.u16();
    const std::size_t flags_offset = in.pos();
    const std::uint8_t flags = in.u8();
    if (in.ok() && (flags & ~kEnvelopeAggregated) != 0) in.fail(WireError::BadField);
    msg.aggregated = (flags & kEnvelopeAggregated) != 0;
    if (!in.ok()) return nullptr;
    const std::size_t kind_offset = in.pos();
    const std::uint8_t kind = in.u8();
    if (!in.ok()) return nullptr;
    const std::optional<WireBodyKind> body_kind = body_kind_from_tag(kind);
    if (!body_kind) {
        in.fail_at(WireError::BadBodyKind, kind, kind_offset);
        return nullptr;
    }
    switch (*body_kind) {
        case WireBodyKind::Paxos:
            msg.payload = decode_paxos(in);
            break;
        case WireBodyKind::Raft:
            msg.payload = decode_raft(in);
            break;
        case WireBodyKind::GossipEnvelope:
        case WireBodyKind::PullDigest:
            // Envelopes carry protocol bodies only; a nested envelope or
            // digest is malformed.
            in.fail_at(WireError::BadBodyKind, kind, kind_offset);
            return nullptr;
    }
    if (!in.ok()) return nullptr;
    // Receivers reverse the flag by disaggregating; on any other payload
    // the flag could only be undone by dropping the message.
    if (msg.aggregated && !is_aggregate(*msg.payload)) {
        in.fail_at(WireError::BadField, flags, flags_offset);
        return nullptr;
    }
    return std::make_shared<GossipEnvelope>(std::move(msg));
}

void encode_digest(const PullDigest& digest, WireWriter& out) {
    out.u8(static_cast<std::uint8_t>(WireBodyKind::PullDigest));
    out.u32(static_cast<std::uint32_t>(digest.ids().size()));
    for (const GossipMsgId id : digest.ids()) out.u64(id);
}

BodyPtr decode_digest(WireReader& in) {
    const std::uint32_t count = in.u32();
    if (in.ok() && count > kMaxDigestIds) in.fail(WireError::LimitExceeded);
    if (in.ok() && in.remaining() < count * 8u) in.fail(WireError::Truncated);
    if (!in.ok()) return nullptr;
    std::vector<GossipMsgId> ids;
    ids.reserve(count);
    for (std::uint32_t i = 0; i < count && in.ok(); ++i) ids.push_back(in.u64());
    if (!in.ok()) return nullptr;
    return std::make_shared<PullDigest>(std::move(ids));
}

bool encode_inner(const MessageBody& body, WireWriter& out) {
    switch (body.kind()) {
        case BodyKind::GossipEnvelope:
            encode_envelope(static_cast<const GossipEnvelope&>(body), out);
            return true;
        case BodyKind::PullDigest:
            encode_digest(static_cast<const PullDigest&>(body), out);
            return true;
        case BodyKind::Paxos:
            out.u8(static_cast<std::uint8_t>(WireBodyKind::Paxos));
            encode_paxos(static_cast<const PaxosMessage&>(body), out);
            return true;
        case BodyKind::Raft:
            out.u8(static_cast<std::uint8_t>(WireBodyKind::Raft));
            encode_raft(static_cast<const RaftMessage&>(body), out);
            return true;
        case BodyKind::Other:
            return false;
    }
    return false;
}

}  // namespace

bool encode_body(const MessageBody& body, WireWriter& out) { return encode_inner(body, out); }

std::vector<std::uint8_t> encode_body(const MessageBody& body) {
    WireWriter out;
    if (!encode_body(body, out)) return {};
    return out.take();
}

DecodedBody decode_body(std::span<const std::uint8_t> data) {
    WireReader in(data);
    const std::uint8_t kind = in.u8();
    BodyPtr body;
    if (in.ok()) {
        const std::optional<WireBodyKind> body_kind = body_kind_from_tag(kind);
        if (!body_kind) {
            in.fail_at(WireError::BadBodyKind, kind, 0);
        } else {
            switch (*body_kind) {
                case WireBodyKind::GossipEnvelope:
                    body = decode_envelope(in);
                    break;
                case WireBodyKind::PullDigest:
                    body = decode_digest(in);
                    break;
                case WireBodyKind::Paxos:
                    body = decode_paxos(in);
                    break;
                case WireBodyKind::Raft:
                    body = decode_raft(in);
                    break;
            }
        }
    }
    in.expect_end();
    if (!in.ok()) {
        return DecodedBody{nullptr, in.error(),
                           DecodeError{in.error(), in.error_tag(), in.error_offset()}};
    }
    return DecodedBody{std::move(body), WireError::None, DecodeError{}};
}

}  // namespace gossipc::wire
