// Paxos safety invariants, checked at the state transitions.
//
// Each check runs where the state it guards is written, with the old and
// the new value both in hand, so every transition is checked — not a sample
// of them — at O(1) cost:
//   * an acceptor's promise floor moving backwards (P-ACC-2), an accepted
//     (instance, vround) moving back a round (P-ACC-3) or changing its value
//     (P-ACC-4): inline in Acceptor's one checked writer, in every product;
//   * a learner's frontier and delivered count leaving lockstep (P-LRN-3):
//     inline at the frontier advance in Learner::try_deliver;
//   * a learner's delivery frontier regressing (P-LRN-2) and two learners
//     deciding different values for one instance (P-AGR-1, agreement): in
//     an AgreementMonitor that every learner of one consensus group feeds
//     from Learner::mark_decided and try_deliver. The simulator's Deployment
//     keeps one per group; the runtime, with one learner per process, has
//     none.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "check/invariant.hpp"
#include "common/types.hpp"

namespace gossipc::check {

/// Cross-learner agreement plus per-learner frontier monotonicity over the
/// learners of one consensus group, fed by the learners themselves
/// (Learner::set_agreement_monitor). Each call is O(1) amortised.
class AgreementMonitor {
public:
    /// A monitor over `learners` learners, indexed 0..learners-1, all with
    /// their frontier at instance 1.
    explicit AgreementMonitor(std::size_t learners);
    // Learners hold its address.
    AgreementMonitor(const AgreementMonitor&) = delete;
    AgreementMonitor& operator=(const AgreementMonitor&) = delete;

    /// Learner `learner` decided `instance` with value digest `digest`.
    void on_decided(std::size_t learner, InstanceId instance, std::uint64_t digest);
    /// Learner `learner` delivered `instance` and moved its frontier past it.
    void on_delivered(std::size_t learner, InstanceId instance);

    /// Re-baselines learner i's frontier after a durable-state wipe, so its
    /// re-delivery from instance 1 is not reported as a regression. Ordinary
    /// crash/recovery (durable state preserved) must NOT call this — the
    /// monitor stays armed. Cross-learner agreement stays fully armed:
    /// re-learned decisions are still checked against the digests recorded
    /// before the wipe.
    void forget_learner(std::size_t i);

private:
    struct Slot {
        std::uint64_t digest = 0;    ///< first decision seen for the instance
        bool decided = false;
        std::uint32_t frontiers = 0;  ///< learners whose frontier sits here
    };

    Slot& slot(InstanceId instance);
    /// Moves learner i's frontier to `frontier`, then retires every instance
    /// below the lowest frontier.
    void move_frontier(std::size_t i, InstanceId frontier);

    /// Per learner: the frontier this monitor last saw.
    std::vector<InstanceId> frontier_;
    /// Instances [floor_, floor_ + window_.size()). Instances below floor_
    /// are delivered by every learner and can no longer change; they are
    /// retired. A learner whose frontier is below floor_ (a wiped one
    /// catching up) is counted at floor_, which it pins.
    std::deque<Slot> window_;
    InstanceId floor_ = 1;
};

}  // namespace gossipc::check
