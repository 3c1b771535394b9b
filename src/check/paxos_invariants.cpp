#include "check/paxos_invariants.hpp"

#include <algorithm>

namespace gossipc::check {

namespace {
inline long long ll(InstanceId v) { return static_cast<long long>(v); }
inline unsigned long long ull(std::uint64_t v) { return static_cast<unsigned long long>(v); }
}  // namespace

AgreementMonitor::AgreementMonitor(std::size_t learners)
    : frontier_(learners, 1), window_(1) {
    window_.front().frontiers = static_cast<std::uint32_t>(learners);
}

AgreementMonitor::Slot& AgreementMonitor::slot(InstanceId instance) {
    const auto offset = static_cast<std::size_t>(instance - floor_);
    if (offset >= window_.size()) window_.resize(offset + 1);
    return window_[offset];
}

void AgreementMonitor::on_decided(std::size_t learner, InstanceId instance,
                                  std::uint64_t digest) {
    if (instance < floor_) return;  // retired: delivered everywhere already
    Slot& s = slot(instance);
    if (!s.decided) {
        s.decided = true;
        s.digest = digest;
        return;
    }
    // P-AGR-1 (agreement): every decision for an instance — at any learner,
    // at any time — carries the same value digest.
    GC_INVARIANT(s.digest == digest,
                 "agreement violated: instance %lld decided as digest %016llx "
                 "and as %016llx (learner %zu)",
                 ll(instance), ull(s.digest), ull(digest), learner);
}

void AgreementMonitor::on_delivered(std::size_t learner, InstanceId instance) {
    // P-LRN-2: the delivery frontier never regresses. The learner's frontier
    // was `instance` just before this delivery.
    GC_INVARIANT(instance >= frontier_[learner],
                 "learner %zu delivery frontier moved backwards: %lld -> %lld", learner,
                 ll(frontier_[learner]), ll(instance));
    move_frontier(learner, instance + 1);
}

void AgreementMonitor::forget_learner(std::size_t i) {
    if (i < frontier_.size()) move_frontier(i, 1);
}

void AgreementMonitor::move_frontier(std::size_t i, InstanceId frontier) {
    const InstanceId from = std::max(frontier_[i], floor_);
    const InstanceId to = std::max(frontier, floor_);
    frontier_[i] = frontier;
    if (from == to) return;
    --slot(from).frontiers;
    ++slot(to).frontiers;
    // Instances every learner has delivered can no longer change; retire them.
    while (!window_.empty() && window_.front().frontiers == 0) {
        window_.pop_front();
        ++floor_;
    }
}

}  // namespace gossipc::check
