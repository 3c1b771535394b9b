// Unit tests: acceptor promise/accept rules (classic Paxos, ranged Phase 1).
#include <gtest/gtest.h>

#include "paxos/acceptor.hpp"
#include "test_util.hpp"

namespace gossipc {
namespace {

using testutil::make_value;

TEST(AcceptorTest, PromisesHigherRoundOnly) {
    Acceptor a;
    EXPECT_TRUE(a.on_phase1a(2, 1).promised);
    EXPECT_EQ(a.promise_floor(), 2);
    EXPECT_FALSE(a.on_phase1a(2, 1).promised);  // same round: already promised
    EXPECT_FALSE(a.on_phase1a(1, 1).promised);  // lower round
    EXPECT_TRUE(a.on_phase1a(5, 1).promised);
    EXPECT_EQ(a.promise_floor(), 5);
}

TEST(AcceptorTest, AcceptsAtOrAbovePromise) {
    Acceptor a;
    a.on_phase1a(3, 1);
    EXPECT_FALSE(a.on_phase2a(1, 2, make_value(0, 1)));  // below promise
    EXPECT_TRUE(a.on_phase2a(1, 3, make_value(0, 1)));   // at promise
    EXPECT_TRUE(a.on_phase2a(2, 4, make_value(0, 2)));   // above promise
}

TEST(AcceptorTest, PerInstanceRoundsIndependent) {
    Acceptor a;
    EXPECT_TRUE(a.on_phase2a(1, 5, make_value(0, 1)));
    // Instance 1 is now at round 5; instance 2 still accepts round 1.
    EXPECT_FALSE(a.on_phase2a(1, 4, make_value(0, 9)));
    EXPECT_TRUE(a.on_phase2a(2, 1, make_value(0, 2)));
}

TEST(AcceptorTest, ReportsAcceptedValuesInPhase1b) {
    Acceptor a;
    const Value v1 = make_value(0, 1);
    const Value v2 = make_value(0, 2);
    a.on_phase2a(1, 1, v1);
    a.on_phase2a(3, 1, v2);
    const auto result = a.on_phase1a(2, 1);
    ASSERT_TRUE(result.promised);
    ASSERT_EQ(result.accepted.size(), 2u);
    EXPECT_EQ(result.accepted[0].instance, 1);
    EXPECT_EQ(result.accepted[0].vround, 1);
    EXPECT_EQ(result.accepted[0].value, v1);
    EXPECT_EQ(result.accepted[1].instance, 3);
    EXPECT_EQ(result.accepted[1].value, v2);
}

TEST(AcceptorTest, Phase1bRangeRespectsFromInstance) {
    Acceptor a;
    a.on_phase2a(1, 1, make_value(0, 1));
    a.on_phase2a(5, 1, make_value(0, 5));
    const auto result = a.on_phase1a(2, 3);  // only instances >= 3
    ASSERT_EQ(result.accepted.size(), 1u);
    EXPECT_EQ(result.accepted[0].instance, 5);
}

TEST(AcceptorTest, ReacceptInHigherRoundOverwrites) {
    Acceptor a;
    const Value v1 = make_value(0, 1);
    const Value v2 = make_value(0, 2);
    a.on_phase2a(1, 1, v1);
    a.on_phase2a(1, 3, v2);
    const auto acc = a.accepted_in(1);
    ASSERT_TRUE(acc.has_value());
    EXPECT_EQ(acc->vround, 3);
    EXPECT_EQ(acc->value, v2);
}

TEST(AcceptorTest, RangedPromiseBlocksAllFutureInstances) {
    Acceptor a;
    a.on_phase1a(10, 1);
    // A Phase 2a from an old round must be rejected in any instance.
    EXPECT_FALSE(a.on_phase2a(1000, 9, make_value(0, 1)));
    EXPECT_TRUE(a.on_phase2a(1000, 10, make_value(0, 1)));
}

TEST(AcceptorTest, IdempotentReaccept) {
    Acceptor a;
    const Value v = make_value(0, 1);
    EXPECT_TRUE(a.on_phase2a(1, 2, v));
    EXPECT_TRUE(a.on_phase2a(1, 2, v));  // retransmitted 2a re-acked
    EXPECT_EQ(a.accepted_in(1)->value, v);
}

}  // namespace
}  // namespace gossipc
