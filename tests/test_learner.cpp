// Unit tests: learner quorum detection, Decision handling, in-order no-gap
// delivery, and value-payload repair states.
#include <gtest/gtest.h>

#include "paxos/learner.hpp"
#include "test_util.hpp"

namespace gossipc {
namespace {

using testutil::make_value;

struct LearnerFixture {
    Learner learner{2};  // quorum of 2 (n=3)
    std::vector<std::pair<InstanceId, Value>> delivered;
    std::vector<std::pair<InstanceId, bool>> decided;  // (instance, via_quorum)
    CpuContext ctx{SimTime::zero()};

    LearnerFixture() {
        learner.set_deliver([this](InstanceId i, const Value& v, CpuContext&) {
            delivered.emplace_back(i, v);
        });
        learner.set_decided_listener(
            [this](InstanceId i, const Value&, bool via_quorum, CpuContext&) {
                decided.emplace_back(i, via_quorum);
            });
    }

    void give_2a(InstanceId i, Round r, const Value& v) {
        learner.on_phase2a(Phase2aMsg{0, i, r, v}, ctx);
    }
    void give_2b(ProcessId sender, InstanceId i, Round r, const Value& v) {
        learner.on_phase2b(Phase2bMsg{sender, i, r, v.id, v.digest()}, ctx);
    }
};

TEST(LearnerTest, LearnsFromQuorumOf2b) {
    LearnerFixture f;
    const Value v = make_value(0, 1);
    f.give_2a(1, 1, v);
    f.give_2b(0, 1, 1, v);
    EXPECT_TRUE(f.delivered.empty());  // one vote is not a quorum
    f.give_2b(1, 1, 1, v);
    ASSERT_EQ(f.delivered.size(), 1u);
    EXPECT_EQ(f.delivered[0].first, 1);
    EXPECT_EQ(f.delivered[0].second, v);
    ASSERT_EQ(f.decided.size(), 1u);
    EXPECT_TRUE(f.decided[0].second);  // via quorum
}

TEST(LearnerTest, DuplicateVotesDontCount) {
    LearnerFixture f;
    const Value v = make_value(0, 1);
    f.give_2a(1, 1, v);
    f.give_2b(0, 1, 1, v);
    f.give_2b(0, 1, 1, v);
    f.give_2b(0, 1, 1, v);
    EXPECT_TRUE(f.delivered.empty());
}

TEST(LearnerTest, VotesForDifferentRoundsDontMix) {
    LearnerFixture f;
    const Value v = make_value(0, 1);
    f.give_2a(1, 1, v);
    f.give_2b(0, 1, 1, v);
    f.give_2b(1, 1, 2, v);  // same value, different round
    EXPECT_TRUE(f.delivered.empty());
    f.give_2b(2, 1, 2, v);
    EXPECT_EQ(f.delivered.size(), 1u);
}

TEST(LearnerTest, LearnsFromDecision) {
    LearnerFixture f;
    const Value v = make_value(0, 1);
    f.give_2a(1, 1, v);
    f.learner.on_decision(DecisionMsg{0, 1, v.id, v.digest()}, f.ctx);
    ASSERT_EQ(f.delivered.size(), 1u);
    ASSERT_EQ(f.decided.size(), 1u);
    EXPECT_FALSE(f.decided[0].second);  // not via quorum
}

TEST(LearnerTest, InOrderNoGapDelivery) {
    LearnerFixture f;
    const Value v1 = make_value(0, 1), v2 = make_value(0, 2), v3 = make_value(0, 3);
    f.give_2a(1, 1, v1);
    f.give_2a(2, 1, v2);
    f.give_2a(3, 1, v3);
    // Decide 3 and 2 first: nothing delivered until 1 decides.
    f.learner.on_decision(DecisionMsg{0, 3, v3.id, v3.digest()}, f.ctx);
    f.learner.on_decision(DecisionMsg{0, 2, v2.id, v2.digest()}, f.ctx);
    EXPECT_TRUE(f.delivered.empty());
    EXPECT_EQ(f.learner.frontier(), 1);
    f.learner.on_decision(DecisionMsg{0, 1, v1.id, v1.digest()}, f.ctx);
    ASSERT_EQ(f.delivered.size(), 3u);
    EXPECT_EQ(f.delivered[0].first, 1);
    EXPECT_EQ(f.delivered[1].first, 2);
    EXPECT_EQ(f.delivered[2].first, 3);
    EXPECT_EQ(f.learner.frontier(), 4);
}

TEST(LearnerTest, DecisionWithoutValueStallsUntilRepaired) {
    LearnerFixture f;
    const Value v = make_value(0, 1);
    // No Phase 2a seen: digest cannot be resolved.
    f.learner.on_decision(DecisionMsg{0, 1, v.id, v.digest()}, f.ctx);
    EXPECT_TRUE(f.delivered.empty());
    EXPECT_TRUE(f.learner.knows_decision(1));
    EXPECT_TRUE(f.learner.value_missing(1));
    // Repair Decision carries the full value.
    f.learner.on_decision(DecisionMsg{0, 1, v.id, v.digest(), v}, f.ctx);
    ASSERT_EQ(f.delivered.size(), 1u);
    EXPECT_FALSE(f.learner.value_missing(1));
}

TEST(LearnerTest, HighestSeenTracksAllMessageKinds) {
    LearnerFixture f;
    const Value v = make_value(0, 1);
    EXPECT_EQ(f.learner.highest_seen(), 0);
    f.give_2a(4, 1, v);
    EXPECT_EQ(f.learner.highest_seen(), 4);
    f.give_2b(0, 9, 1, v);
    EXPECT_EQ(f.learner.highest_seen(), 9);
    f.learner.on_decision(DecisionMsg{0, 2, v.id, v.digest()}, f.ctx);
    EXPECT_EQ(f.learner.highest_seen(), 9);
}

TEST(LearnerTest, DecidedValueFromLogAndInFlight) {
    LearnerFixture f;
    const Value v = make_value(0, 1);
    EXPECT_FALSE(f.learner.decided_value(1).has_value());
    f.give_2a(1, 1, v);
    f.give_2b(0, 1, 1, v);
    f.give_2b(1, 1, 1, v);
    ASSERT_TRUE(f.learner.decided_value(1).has_value());  // from the log
    EXPECT_EQ(f.learner.decided_value(1)->id, v.id);
    EXPECT_TRUE(f.learner.knows_decision(1));
    EXPECT_EQ(f.learner.delivered_count(), 1u);
}

TEST(LearnerTest, LateMessagesForDeliveredInstancesIgnored) {
    LearnerFixture f;
    const Value v = make_value(0, 1);
    f.give_2a(1, 1, v);
    f.learner.on_decision(DecisionMsg{0, 1, v.id, v.digest()}, f.ctx);
    EXPECT_EQ(f.delivered.size(), 1u);
    f.give_2b(0, 1, 1, v);
    f.give_2b(1, 1, 1, v);
    f.learner.on_decision(DecisionMsg{0, 1, v.id, v.digest()}, f.ctx);
    EXPECT_EQ(f.delivered.size(), 1u);  // no double delivery
}

TEST(LearnerTest, RejectsNonPositiveQuorum) {
    EXPECT_THROW(Learner(0), std::invalid_argument);
}

}  // namespace
}  // namespace gossipc
