#include "paxos/acceptor.hpp"

namespace gossipc {

namespace {
inline long long ll(InstanceId v) { return static_cast<long long>(v); }
inline unsigned long long ull(std::uint64_t v) { return static_cast<unsigned long long>(v); }
}  // namespace

Acceptor::PromiseResult Acceptor::on_phase1a(Round round, InstanceId from_instance) {
    PromiseResult result;
    if (round <= floor_round_) return result;  // already promised higher
    raise_floor(round);
    result.promised = true;
    for (const auto& [instance, slot] : slots_) {
        if (instance >= from_instance && slot.vrnd > 0) {
            result.accepted.push_back(AcceptedEntry{instance, slot.vrnd, slot.vval});
        }
    }
    return result;
}

Round Acceptor::effective_round(InstanceId instance) const {
    const auto it = slots_.find(instance);
    const Round slot_rnd = it != slots_.end() ? it->second.rnd : 0;
    return std::max(slot_rnd, floor_round_);
}

bool Acceptor::on_phase2a(InstanceId instance, Round round, const Value& value) {
    if (round < effective_round(instance)) return false;
    Slot& slot = slots_[instance];
    // P-ACC-1: within one round an acceptor votes for at most one value. A
    // round has a single proposer which proposes a single value per instance;
    // a second value here means a proposer bug or state corruption, and
    // accepting it could let two quorums form for different values.
    GC_INVARIANT(slot.vrnd == 0 || slot.vrnd != round || slot.vval.digest() == value.digest(),
                 "acceptor re-accepting a different value in round %d of instance %lld "
                 "(digest %016llx -> %016llx)",
                 round, ll(instance), ull(slot.vval.digest()), ull(value.digest()));
    slot.rnd = round;
    write_vote(instance, slot, round, value);
    return true;
}

void Acceptor::raise_floor(Round round) {
    // P-ACC-2: the promise floor only rises (an acceptor never un-promises).
    GC_INVARIANT(round >= floor_round_, "acceptor promise floor moved backwards: %d -> %d",
                 floor_round_, round);
    floor_round_ = round;
}

void Acceptor::write_vote(InstanceId instance, Slot& slot, Round vround, const Value& value) {
    if (slot.vrnd > 0) {
        // P-ACC-3: re-acceptance happens only at a round at least as high.
        GC_INVARIANT(vround >= slot.vrnd,
                     "accepted round moved backwards in instance %lld: %d -> %d",
                     ll(instance), slot.vrnd, vround);
        // P-ACC-4: the vote cast in a given (instance, vround) is final.
        GC_INVARIANT(vround > slot.vrnd || slot.vval.digest() == value.digest(),
                     "accepted value changed within round %d of instance %lld "
                     "(digest %016llx -> %016llx)",
                     vround, ll(instance), ull(slot.vval.digest()), ull(value.digest()));
    }
    slot.vrnd = vround;
    slot.vval = value;
}

std::optional<AcceptedEntry> Acceptor::accepted_in(InstanceId instance) const {
    const auto it = slots_.find(instance);
    if (it == slots_.end() || it->second.vrnd == 0) return std::nullopt;
    return AcceptedEntry{instance, it->second.vrnd, it->second.vval};
}

}  // namespace gossipc
