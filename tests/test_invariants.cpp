// Correctness-tooling tests: GC_INVARIANT death tests, the Paxos safety
// monitors tripped by deliberately corrupted protocol state, the
// semantic-gossip soundness checks, and the deployment-level wiring of the
// InvariantChecker observer.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "check/failover_invariants.hpp"
#include "check/gossip_invariants.hpp"
#include "check/invariant.hpp"
#include "check/paxos_invariants.hpp"
#include "core/experiment.hpp"
#include "gossip/gossip_node.hpp"
#include "net/network.hpp"
#include "paxos/acceptor.hpp"
#include "paxos/learner.hpp"
#include "paxos/process.hpp"
#include "semantic/paxos_semantics.hpp"
#include "test_util.hpp"

namespace gossipc {
namespace {

using testutil::FakeTransport;
using testutil::make_2b;
using testutil::make_value;
using testutil::wrap;

TEST(InvariantCheckerTest, RunsRegisteredChecks) {
    check::InvariantChecker checker;
    int calls = 0;
    checker.add_check("count", [&calls] { ++calls; });
    checker.add_check("count-again", [&calls] { ++calls; });
    EXPECT_EQ(checker.check_count(), 2u);
    checker.run_all();
    checker.run_all();
    EXPECT_EQ(calls, 4);
    EXPECT_EQ(checker.runs(), 2u);
}

#if GC_ENABLE_INVARIANTS

TEST(InvariantMacroTest, PassingConditionEvaluatesOnceAndContinues) {
    int evaluations = 0;
    GC_INVARIANT(++evaluations == 1, "evaluated %d times", evaluations);
    EXPECT_EQ(evaluations, 1);
}

TEST(InvariantMacroDeathTest, FailingConditionAbortsWithDiagnostics) {
    EXPECT_DEATH(GC_INVARIANT(1 == 2, "math broke: %d", 42), "INVARIANT VIOLATION");
    EXPECT_DEATH(GC_INVARIANT(false, "context %s", "payload"), "context payload");
}

// --- Paxos invariants -------------------------------------------------------

TEST(PaxosInvariantDeathTest, AcceptorRejectsSecondValueInSameRound) {
    Acceptor acceptor;
    ASSERT_TRUE(acceptor.on_phase2a(1, 1, make_value(0, 1)));
    // Same instance and round, different value: P-ACC-1.
    EXPECT_DEATH(acceptor.on_phase2a(1, 1, make_value(0, 2)),
                 "re-accepting a different value");
    // Same value again is a benign retransmission.
    EXPECT_TRUE(acceptor.on_phase2a(1, 1, make_value(0, 1)));
    // A higher round may change the value.
    EXPECT_TRUE(acceptor.on_phase2a(1, 2, make_value(0, 3)));
}

TEST(PaxosInvariantTest, AcceptorMonitorAcceptsLegalTransitions) {
    // The acceptor checks P-ACC-2/3/4 at every write of its own state;
    // surviving these legal transitions is the assertion.
    Acceptor acceptor;
    acceptor.on_phase1a(1, 1);
    acceptor.on_phase2a(1, 1, make_value(0, 1));
    acceptor.on_phase1a(3, 1);                      // higher promise
    acceptor.on_phase2a(1, 3, make_value(0, 2));    // re-accept at higher round
    acceptor.on_phase2a(2, 3, make_value(0, 3));
    acceptor.on_phase2a(2, 3, make_value(0, 3));    // retransmitted 2a
    EXPECT_EQ(acceptor.promise_floor(), 3);
    EXPECT_EQ(acceptor.accepted_in(1)->vround, 3);
}

TEST(PaxosInvariantDeathTest, AcceptorMonitorCatchesPromiseFloorRegression) {
    Acceptor acceptor;
    acceptor.on_phase1a(5, 1);
    // Deliberate corruption, P-ACC-2: caught at the write itself.
    EXPECT_DEATH(acceptor.debug_set_promise_floor(2), "promise floor moved backwards");
}

TEST(PaxosInvariantDeathTest, AcceptorMonitorCatchesRewrittenVote) {
    Acceptor acceptor;
    acceptor.on_phase2a(1, 3, make_value(0, 1));
    // Deliberate corruption, P-ACC-4: same (instance, vround), different value.
    EXPECT_DEATH(acceptor.debug_overwrite_accepted(1, 3, make_value(0, 9)),
                 "accepted value changed within round");
}

TEST(PaxosInvariantDeathTest, AcceptorMonitorCatchesVoteRoundRegression) {
    Acceptor acceptor;
    acceptor.on_phase2a(1, 3, make_value(0, 1));
    // Deliberate corruption, P-ACC-3: the recorded vote round moves backwards.
    EXPECT_DEATH(acceptor.debug_overwrite_accepted(1, 2, make_value(0, 1)),
                 "accepted round moved backwards");
}

TEST(PaxosInvariantDeathTest, TransientRewrittenVoteIsCaughtAtTheWrite) {
    // A vote rewritten and put back with nothing looking in between. A
    // monitor that samples acceptor state before and after sees the same
    // vote twice and passes; the checked writer sees the rewrite (P-ACC-4).
    const Value v1 = make_value(0, 1);
    Acceptor acceptor;
    ASSERT_TRUE(acceptor.on_phase2a(1, 3, v1));
    EXPECT_DEATH(
        {
            acceptor.debug_overwrite_accepted(1, 3, make_value(0, 2));
            acceptor.debug_overwrite_accepted(1, 3, v1);
        },
        "accepted value changed within round");
    EXPECT_EQ(acceptor.accepted_in(1)->value, v1);
}

TEST(PaxosInvariantDeathTest, TransientFrontierRewindIsCaughtAtTheDelivery) {
    // A learner loses its state without the monitor being told and catches
    // up again to the same frontier and count. Sampled before and after, it
    // looks unchanged; the monitor sees the first re-delivery (P-LRN-2).
    CpuContext ctx{SimTime::zero()};
    Learner learner(2);
    check::AgreementMonitor monitor(1);
    learner.set_agreement_monitor(&monitor, 0);
    const Value v1 = make_value(0, 1);
    const Value v2 = make_value(0, 2);
    const DecisionMsg d1{0, 1, v1.id, v1.digest(), v1};
    const DecisionMsg d2{0, 2, v2.id, v2.digest(), v2};
    learner.on_decision(d1, ctx);
    learner.on_decision(d2, ctx);
    EXPECT_DEATH(
        {
            learner.reset();
            learner.on_decision(d1, ctx);
            learner.on_decision(d2, ctx);
        },
        "delivery frontier moved backwards");
    EXPECT_EQ(learner.frontier(), 3);
}

TEST(PaxosInvariantDeathTest, LearnerMonitorCatchesFrontierRegression) {
    CpuContext ctx{SimTime::zero()};
    Learner learner(2);
    check::AgreementMonitor monitor(1);
    learner.set_agreement_monitor(&monitor, 0);
    const Value v = make_value(0, 1);
    const DecisionMsg d{0, 1, v.id, v.digest(), v};
    learner.on_decision(d, ctx);
    // A crash with storage loss rewinds the frontier; a rewind the monitor
    // was not told about (forget_learner) must trip P-LRN-2 at the next
    // delivery.
    learner.reset();
    EXPECT_DEATH(learner.on_decision(d, ctx), "delivery frontier moved backwards");
}

TEST(PaxosInvariantDeathTest, LearnerMonitorCatchesDeliveryCountMismatch) {
    CpuContext ctx{SimTime::zero()};
    Learner learner(2);
    const Value v1 = make_value(0, 1);
    const Value v2 = make_value(0, 2);
    learner.on_decision(DecisionMsg{0, 1, v1.id, v1.digest(), v1}, ctx);
    // Deliberate corruption, P-LRN-3: the delivered-value counter decouples
    // from the frontier, so gapless in-order delivery no longer holds. The
    // next frontier advance checks the lockstep.
    learner.debug_set_delivered_count(5);
    EXPECT_DEATH(learner.on_decision(DecisionMsg{0, 2, v2.id, v2.digest(), v2}, ctx),
                 "inconsistent with");
}

TEST(PaxosInvariantDeathTest, LearnerRejectsConflictingDecisions) {
    Learner learner(2);
    CpuContext ctx{SimTime::zero()};
    const Value v1 = make_value(0, 1);
    const Value v2 = make_value(0, 2);
    learner.on_decision(DecisionMsg{0, 1, v1.id, v1.digest()}, ctx);
    EXPECT_TRUE(learner.knows_decision(1));
    // P-LRN-1: a Decision carrying a different value for the same instance.
    EXPECT_DEATH(learner.on_decision(DecisionMsg{1, 1, v2.id, v2.digest()}, ctx),
                 "conflicting decisions");
}

TEST(PaxosInvariantDeathTest, CorruptedAcceptorsTripAgreementCheck) {
    // Three acceptors decide v1 in instance 1; a quorum of their votes is
    // shown to learner A. The acceptors' slots are then deliberately
    // corrupted to v2 (at a higher round, which no Phase 1 reporting v1
    // preceded), votes are re-derived from the corrupted state and shown to
    // learner B — which decides differently. The cross-learner agreement
    // monitor (P-AGR-1) must catch the divergence at B's decision.
    const Value v1 = make_value(0, 1);
    const Value v2 = make_value(7, 9);
    std::vector<Acceptor> acceptors(3);
    for (Acceptor& a : acceptors) ASSERT_TRUE(a.on_phase2a(1, 1, v1));

    CpuContext ctx{SimTime::zero()};
    Learner learner_a(2);
    Learner learner_b(2);
    check::AgreementMonitor monitor(2);
    learner_a.set_agreement_monitor(&monitor, 0);
    learner_b.set_agreement_monitor(&monitor, 1);
    const auto show_votes = [&acceptors, &ctx](Learner& learner) {
        for (ProcessId id = 0; id < 2; ++id) {
            const auto e = acceptors[static_cast<std::size_t>(id)].accepted_in(1);
            ASSERT_TRUE(e.has_value());
            learner.on_phase2b(Phase2bMsg{id, 1, e->vround, e->value.id, e->value.digest()},
                               ctx);
        }
    };
    show_votes(learner_a);
    EXPECT_TRUE(learner_a.knows_decision(1));

    for (Acceptor& a : acceptors) a.debug_overwrite_accepted(1, 2, v2);
    EXPECT_DEATH(show_votes(learner_b), "agreement violated");
}

TEST(PaxosInvariantDeathTest, AgreementMonitorStaysArmedAcrossAWipe) {
    // A sanctioned wipe (the monitor is told) re-baselines the wiped
    // learner's frontier only: its re-learned decisions are still checked
    // against those the other learners made (P-AGR-1).
    CpuContext ctx{SimTime::zero()};
    Learner l1(2);
    Learner l2(2);
    check::AgreementMonitor monitor(2);
    l1.set_agreement_monitor(&monitor, 0);
    l2.set_agreement_monitor(&monitor, 1);
    const Value v = make_value(0, 1);
    const Value other = make_value(0, 2);
    l1.on_decision(DecisionMsg{0, 1, v.id, v.digest(), v}, ctx);
    l1.reset();
    monitor.forget_learner(0);
    EXPECT_DEATH(l1.on_decision(DecisionMsg{0, 1, other.id, other.digest(), other}, ctx),
                 "agreement violated");
}

TEST(PaxosInvariantTest, AgreementMonitorAcceptsConsistentLearners) {
    CpuContext ctx{SimTime::zero()};
    Learner l1(2);
    Learner l2(2);
    check::AgreementMonitor monitor(2);
    l1.set_agreement_monitor(&monitor, 0);
    l2.set_agreement_monitor(&monitor, 1);
    const Value v = make_value(0, 1);
    const DecisionMsg d{0, 1, v.id, v.digest(), v};
    l1.on_decision(d, ctx);
    l2.on_decision(d, ctx);
    EXPECT_EQ(l1.frontier(), 2);
    EXPECT_EQ(l2.frontier(), 2);
    // A wipe the monitor is told about re-delivers from instance 1 cleanly.
    l1.reset();
    monitor.forget_learner(0);
    l1.on_decision(d, ctx);
    EXPECT_EQ(l1.frontier(), 2);
}

// --- Coordinator-succession invariants --------------------------------------

namespace crd {
PaxosConfig three_process_config() {
    PaxosConfig pc;
    pc.n = 3;
    pc.id = 0;
    pc.timeouts_enabled = false;
    return pc;
}
}  // namespace crd

TEST(FailoverInvariantDeathTest, CoordinatorMonitorCatchesUnownedRound) {
    Simulator sim;
    FakeTransport t(sim, 0);
    PaxosProcess p(crd::three_process_config(), t);
    ASSERT_NE(p.coordinator(), nullptr);
    check::CoordinatorMonitor monitor;
    // Deliberate corruption, P-CRD-1: round 2 is owned by process 1, not 0.
    p.coordinator()->debug_force_round(2);
    EXPECT_DEATH(monitor.observe({&p}), "owned by");
}

TEST(FailoverInvariantDeathTest, CoordinatorMonitorCatchesSharedRound) {
    Simulator sim;
    FakeTransport t1(sim, 0);
    FakeTransport t2(sim, 0);
    // Two processes believing they are process 0 — the double-identity that
    // a botched failover could produce.
    PaxosProcess p1(crd::three_process_config(), t1);
    PaxosProcess p2(crd::three_process_config(), t2);
    check::CoordinatorMonitor monitor;
    p1.coordinator()->debug_force_round(1);
    p2.coordinator()->debug_force_round(1);
    // P-CRD-2: at most one active coordinator per round.
    EXPECT_DEATH(monitor.observe({&p1, &p2}), "actively coordinated by both");
}

TEST(FailoverInvariantDeathTest, CoordinatorMonitorCatchesRoundRegression) {
    Simulator sim;
    FakeTransport t(sim, 0);
    PaxosProcess p(crd::three_process_config(), t);
    check::CoordinatorMonitor monitor;
    p.coordinator()->debug_force_round(4);  // owned: (4-1) % 3 == 0
    monitor.observe({&p});
    // P-CRD-3: re-activation below a round this process already coordinated.
    p.coordinator()->debug_force_round(1);
    EXPECT_DEATH(monitor.observe({&p}), "coordination round moved backwards");
}

// --- Simulator invariants ---------------------------------------------------

TEST(SimulatorInvariantDeathTest, PastDatedEventTripsTimeMonotonicity) {
    Simulator sim;
    sim.schedule_at(SimTime::millis(1), [] {});
    sim.run_for(SimTime::millis(1));
    // Deliberate corruption, SIM-1: an event enqueued behind the clock,
    // bypassing the clamp every real schedule path applies.
    sim.debug_schedule_at_unclamped(SimTime::zero(), [] {});
    EXPECT_DEATH(sim.step(), "event scheduled in the past");
}

// --- Semantic-gossip invariants --------------------------------------------

TEST(SemanticInvariantDeathTest, DuplicateSenderAggregateIsRejected) {
    PaxosSemantics sem(0, 2, PaxosSemantics::Options{true, true});
    const Value v = make_value(0, 1);
    // A duplicated sender would double-count one acceptor's vote: G-AGG-2.
    auto dup = std::make_shared<Phase2bAggregateMsg>(
        1, 1, 1, v.id, v.digest(), std::vector<ProcessId>{2, 2}, 0);
    EXPECT_DEATH(sem.validate(wrap(dup), 3), "duplicate senders");
}

TEST(SemanticInvariantDeathTest, EmptyAggregateIsRejected) {
    PaxosSemantics sem(0, 2, PaxosSemantics::Options{true, true});
    const Value v = make_value(0, 1);
    auto empty = std::make_shared<Phase2bAggregateMsg>(
        1, 1, 1, v.id, v.digest(), std::vector<ProcessId>{}, 0);
    EXPECT_DEATH(sem.validate(wrap(empty), 3), "no senders");
}

TEST(SemanticInvariantDeathTest, RoundtripCheckCatchesLostVote) {
    const Value v = make_value(0, 1);
    const std::vector<GossipAppMessage> before{wrap(make_2b(1, 1, 1, v)),
                                               wrap(make_2b(2, 1, 1, v))};
    // A lossy aggregator that dropped sender 2's vote: S-AGG-1.
    auto lossy = std::make_shared<Phase2bAggregateMsg>(
        0, 1, 1, v.id, v.digest(), std::vector<ProcessId>{1}, 0);
    std::vector<GossipAppMessage> after{wrap(lossy)};
    after.front().aggregated = true;
    EXPECT_DEATH(check::check_aggregation_roundtrip(before, after),
                 "altered the Phase 2b vote set");
}

TEST(SemanticInvariantTest, AggregationPassesItsOwnRoundtripCheck) {
    PaxosSemantics sem(0, 2, PaxosSemantics::Options{true, true});
    const Value v = make_value(0, 1);
    std::vector<GossipAppMessage> pending{wrap(make_2b(1, 1, 1, v)),
                                          wrap(make_2b(2, 1, 1, v)),
                                          wrap(make_2b(3, 2, 1, v))};
    // aggregate() runs S-AGG-1 internally; surviving it is the assertion.
    const auto out = sem.aggregate(pending, 4);
    EXPECT_EQ(out.size(), 2u);
    EXPECT_EQ(sem.stats().aggregates_built, 1u);
    check::check_aggregation_roundtrip(pending, out);
}

// --- Gossip-layer invariants ------------------------------------------------

TEST(GossipInvariantDeathTest, AggregatedMessageMustNotReachDelivery) {
    Simulator sim;
    Network net(sim, LatencyModel::aws(), 2, Network::Params{});
    net.allow_link(0, 1);
    PassThroughHooks hooks;
    GossipNode node(net.node(0), {1}, GossipNode::Params{}, hooks);
    const Value v = make_value(0, 1);
    GossipAppMessage msg = wrap(make_2b(1, 1, 1, v));
    msg.aggregated = true;  // an unreversed aggregate on the delivery path: G-AGG-1
    CpuContext ctx{SimTime::zero()};
    EXPECT_DEATH(node.broadcast(msg, ctx), "entered the broadcast path");
}

TEST(GossipInvariantDeathTest, UnreversedAggregateMustNotBeReceived) {
    Simulator sim;
    Network net(sim, LatencyModel::aws(), 2, Network::Params{});
    net.allow_link(0, 1);
    PassThroughHooks hooks;  // cannot reverse the Phase 2b aggregate below
    GossipNode node(net.node(1), {0}, GossipNode::Params{}, hooks);
    const Value v = make_value(0, 1);
    GossipAppMessage msg = wrap(std::make_shared<Phase2bAggregateMsg>(
        0, 1, 1, v.id, v.digest(), std::vector<ProcessId>{0, 2}, 0));
    msg.aggregated = true;
    net.node(0).post_transmit(NetMessage{0, 1, std::make_shared<GossipEnvelope>(msg)});
    EXPECT_DEATH(sim.run_until_idle(), "was not reversed");
}

// --- Deployment wiring ------------------------------------------------------

TEST(InvariantCheckerTest, DeploymentRunsChecksDuringExperiment) {
    ExperimentConfig config;
    config.setup = Setup::SemanticGossip;
    config.n = 5;
    config.num_clients = 5;
    config.total_rate = 200.0;
    config.warmup = SimTime::seconds(0.1);
    config.measure = SimTime::seconds(0.5);
    config.drain = SimTime::seconds(0.2);
    config.invariant_probe_events = 1000;
    Deployment deployment(config);
    ASSERT_NE(deployment.invariants(), nullptr);
    // coordinator-succession; the acceptor, learner and agreement checks run
    // at the transitions, not on the probe.
    EXPECT_EQ(deployment.invariants()->check_count(), 1u);
    const ExperimentResult result = deployment.run();
    EXPECT_GT(result.decisions_at_coordinator, 0u);
    // The probe fired during the run and collect() ran the final sweep.
    EXPECT_GT(deployment.invariants()->runs(), 1u);
}

#else  // !GC_ENABLE_INVARIANTS

TEST(InvariantMacroTest, CompiledOutEvaluatesNothing) {
    int evaluations = 0;
    GC_INVARIANT(++evaluations > 0, "never evaluated (%d)", evaluations);
    GC_INVARIANT(false, "a false invariant must not abort in release");
    EXPECT_EQ(evaluations, 0);
}

#endif  // GC_ENABLE_INVARIANTS

}  // namespace
}  // namespace gossipc
