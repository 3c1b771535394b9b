#include "paxos/learner.hpp"

#include <stdexcept>

#include "check/paxos_invariants.hpp"

namespace gossipc {

Learner::Learner(int quorum) : quorum_(quorum) {
    if (quorum <= 0) throw std::invalid_argument("Learner: quorum must be positive");
}

void Learner::note_instance(InstanceId instance) {
    if (instance > highest_seen_) highest_seen_ = instance;
}

void Learner::on_phase2a(const Phase2aMsg& msg, CpuContext& ctx) {
    note_instance(msg.instance());
    if (msg.instance() < frontier_) return;  // already delivered
    InstState& st = inst_[msg.instance()];
    st.values_by_digest.emplace(msg.value().digest(), msg.value());
    if (st.decided) {
        maybe_notify_decided(msg.instance(), st, ctx);
        try_deliver(ctx);  // a late 2a can unblock delivery
    }
}

void Learner::on_phase2b(const Phase2bMsg& msg, CpuContext& ctx) {
    note_instance(msg.instance());
    if (msg.instance() < frontier_) return;
    InstState& st = inst_[msg.instance()];
    if (st.decided) return;
    auto& voters = st.votes[{msg.round(), msg.value_digest()}];
    voters.insert(msg.sender());
    if (static_cast<int>(voters.size()) >= quorum_) {
        mark_decided(msg.instance(), msg.value_id(), msg.value_digest(),
                     /*via_quorum=*/true, ctx);
    }
}

void Learner::on_decision(const DecisionMsg& msg, CpuContext& ctx) {
    note_instance(msg.instance());
    if (msg.instance() < frontier_) return;
    InstState& st = inst_[msg.instance()];
    // P-LRN-1: all decisions for one instance carry the same value. A
    // Decision disagreeing with an earlier one (from a quorum of 2b or a
    // previous Decision) is direct evidence of an agreement violation.
    GC_INVARIANT(!st.decided || st.decided_digest == msg.value_digest(),
                 "conflicting decisions for instance %lld: digest %016llx, then %016llx "
                 "from process %d",
                 static_cast<long long>(msg.instance()),
                 static_cast<unsigned long long>(st.decided_digest),
                 static_cast<unsigned long long>(msg.value_digest()), msg.sender());
    if (msg.full_value()) {
        st.values_by_digest.emplace(msg.value_digest(), *msg.full_value());
    }
    if (!st.decided) {
        mark_decided(msg.instance(), msg.value_id(), msg.value_digest(),
                     /*via_quorum=*/false, ctx);
    } else if (msg.full_value()) {
        maybe_notify_decided(msg.instance(), st, ctx);
        try_deliver(ctx);  // a repair Decision may unblock delivery
    }
}

void Learner::mark_decided(InstanceId instance, ValueId value_id, std::uint64_t digest,
                           bool via_quorum, CpuContext& ctx) {
    InstState& st = inst_[instance];
    st.decided = true;
    st.via_quorum = via_quorum;
    st.decided_digest = digest;
    st.decided_value_id = value_id;
    st.votes.clear();  // no longer needed
    if (monitor_) monitor_->on_decided(monitor_index_, instance, digest);
    maybe_notify_decided(instance, st, ctx);
    try_deliver(ctx);
}

void Learner::maybe_notify_decided(InstanceId instance, InstState& st, CpuContext& ctx) {
    if (st.listener_notified || !decided_listener_) return;
    const auto it = st.values_by_digest.find(st.decided_digest);
    if (it == st.values_by_digest.end()) return;  // payload not yet known
    st.listener_notified = true;
    decided_listener_(instance, it->second, st.via_quorum, ctx);
}

void Learner::try_deliver(CpuContext& ctx) {
    while (true) {
        const auto it = inst_.find(frontier_);
        if (it == inst_.end() || !it->second.decided) return;
        const auto vit = it->second.values_by_digest.find(it->second.decided_digest);
        if (vit == it->second.values_by_digest.end()) return;  // payload missing
        const Value value = vit->second;
        log_.emplace(frontier_, value);
        ++delivered_count_;
        const InstanceId delivered = frontier_;
        inst_.erase(it);
        ++frontier_;
        // P-LRN-3: in-order gapless delivery starting at instance 1 means the
        // frontier and the delivered count move in lockstep.
        GC_INVARIANT(frontier_ == static_cast<InstanceId>(delivered_count_) + 1,
                     "learner frontier %lld inconsistent with %llu delivered values",
                     static_cast<long long>(frontier_),
                     static_cast<unsigned long long>(delivered_count_));
        if (monitor_) monitor_->on_delivered(monitor_index_, delivered);
        if (deliver_) deliver_(delivered, value, ctx);
    }
}

bool Learner::knows_decision(InstanceId instance) const {
    if (instance < frontier_) return true;
    const auto it = inst_.find(instance);
    return it != inst_.end() && it->second.decided;
}

std::optional<Value> Learner::decided_value(InstanceId instance) const {
    if (const auto lit = log_.find(instance); lit != log_.end()) return lit->second;
    const auto it = inst_.find(instance);
    if (it == inst_.end() || !it->second.decided) return std::nullopt;
    const auto vit = it->second.values_by_digest.find(it->second.decided_digest);
    if (vit == it->second.values_by_digest.end()) return std::nullopt;
    return vit->second;
}

std::optional<std::uint64_t> Learner::decided_digest(InstanceId instance) const {
    if (const auto lit = log_.find(instance); lit != log_.end()) {
        return lit->second.digest();
    }
    const auto it = inst_.find(instance);
    if (it == inst_.end() || !it->second.decided) return std::nullopt;
    return it->second.decided_digest;
}

bool Learner::value_missing(InstanceId instance) const {
    const auto it = inst_.find(instance);
    if (it == inst_.end() || !it->second.decided) return false;
    return !it->second.values_by_digest.contains(it->second.decided_digest);
}

}  // namespace gossipc
