#include "runtime/real_transport.hpp"

#include <utility>

#include "wire/codec.hpp"

namespace gossipc::runtime {

/// The runtime host of the gossip engine: tasks and timers run on the
/// reactor behind the transport's liveness guard, and sends go out encoded
/// on the peer channel.
class RealTransport::GossipHost final : public GossipPort {
public:
    explicit GossipHost(RealTransport& transport) : t_(transport) {}

    ProcessId self() const override { return t_.self(); }
    SimTime now() const override { return t_.reactor_.now(); }
    void post(Task task) override { t_.post(std::move(task)); }
    void after(SimTime delay, std::function<void()> fn) override {
        t_.schedule(delay, [fn = std::move(fn)](CpuContext&) { fn(); });
    }
    bool send(ProcessId peer, BodyPtr body, CpuContext& /*ctx*/) override {
        return t_.send_body(peer, *body);
    }

private:
    RealTransport& t_;
};

RealTransport::RealTransport(Reactor& reactor, PeerChannel& chan, Params params,
                             GossipHooks& hooks)
    : reactor_(reactor), chan_(chan), params_(std::move(params)) {
    chan_.set_body_handler(
        [this](ProcessId from, std::span<const std::uint8_t> payload) {
            on_body(from, payload);
        });
    if (!gossip_mode()) {
        for (ProcessId p = 0; p < chan_.size(); ++p) {
            if (p != self()) chan_.link(p);
        }
        return;
    }
    for (const ProcessId p : params_.neighbors) chan_.link(p);
    gossip_ = std::make_unique<GossipNode>(std::make_unique<GossipHost>(*this),
                                           params_.neighbors, GossipNode::Params{}, hooks);
    gossip_->set_deliver([this](const GossipAppMessage& msg, CpuContext& ctx) {
        if (msg.payload && msg.payload->kind() == BodyKind::Paxos) {
            deliver_up(std::static_pointer_cast<const PaxosMessage>(msg.payload), ctx);
        }
    });
}

RealTransport::~RealTransport() {
    *alive_ = false;
    chan_.set_body_handler(nullptr);
    for (const Reactor::TimerId id : timers_) reactor_.cancel_timer(id);
}

RealTransport::Counters RealTransport::counters() const {
    Counters c;
    if (gossip_mode()) static_cast<GossipNode::Counters&>(c) = gossip_->counters();
    c.decode_errors = decode_errors_;
    return c;
}

void RealTransport::add_neighbor(ProcessId peer) {
    if (!gossip_mode() || peer == self()) return;
    gossip_->add_peer(peer);
    chan_.link(peer);
}

void RealTransport::remove_neighbor(ProcessId peer) {
    if (gossip_mode()) gossip_->remove_peer(peer);
}

// -- sending ----------------------------------------------------------------

void RealTransport::broadcast(PaxosMessagePtr msg, CpuContext& ctx) {
    note_origination(ctx.now());
    if (gossip_mode()) {
        GossipAppMessage app;
        app.id = msg->unique_key();
        app.origin = self();
        app.payload = std::move(msg);
        gossip_->broadcast(std::move(app), ctx);
        return;
    }
    deliver_up(msg, ctx);  // local delivery, as with gossip broadcast
    for (ProcessId p = 0; p < chan_.size(); ++p) {
        if (p != self()) send_body(p, *msg);
    }
}

void RealTransport::send(ProcessId to, PaxosMessagePtr msg, CpuContext& ctx) {
    if (gossip_mode()) {
        // Gossip provides no unicast: one-to-one messages are broadcast and
        // delivered to all participants (Section 3.1).
        broadcast(std::move(msg), ctx);
        return;
    }
    if (to == self()) {
        deliver_up(msg, ctx);
        return;
    }
    note_origination(ctx.now());
    send_body(to, *msg);
}

bool RealTransport::send_body(ProcessId to, const MessageBody& body) {
    const std::vector<std::uint8_t> bytes = wire::encode_body(body);
    return chan_.send_body(to, bytes, reliable_over_datagrams(body, params_.mode));
}

// -- receiving --------------------------------------------------------------

void RealTransport::on_body(ProcessId from, std::span<const std::uint8_t> payload) {
    const wire::DecodedBody decoded = wire::decode_body(payload);
    if (!decoded.ok()) {
        ++decode_errors_;
        return;
    }
    CpuContext ctx(reactor_.now());
    if (decoded.body->kind() == BodyKind::Paxos) {
        // Direct mode ships bare protocol bodies.
        deliver_up(std::static_pointer_cast<const PaxosMessage>(decoded.body), ctx);
        return;
    }
    // Gossip envelopes and pull digests; the engine ignores other kinds. An
    // aggregate these hooks cannot reverse (say, from a peer running other
    // semantics) is as unusable as a malformed frame.
    if (gossip_mode() && !gossip_->receive(from, *decoded.body, ctx)) ++decode_errors_;
}

// -- reliability policy ------------------------------------------------------

bool reliable_over_datagrams(const MessageBody& body, RealTransport::Mode mode) {
    switch (body.kind()) {
        case BodyKind::GossipEnvelope: {
            const auto& env = static_cast<const GossipEnvelope&>(body);
            return env.message().payload &&
                   reliable_over_datagrams(*env.message().payload, mode);
        }
        case BodyKind::Paxos: {
            const auto& msg = static_cast<const PaxosMessage&>(body);
            switch (msg.type()) {
                // Phase 1 runs once per coordinator round over ranged
                // instances — losing it stalls the pipeline, so it is always
                // repaired at the link. Client values and learner repair
                // requests are unicast (no gossip redundancy behind them).
                case PaxosMsgType::ClientValue:
                case PaxosMsgType::Phase1a:
                case PaxosMsgType::Phase1b:
                case PaxosMsgType::LearnRequest:
                    return true;
                // Phase 2 and Decision traffic: per-instance, flooded in
                // Gossip mode where redundant paths are the repair
                // mechanism (and the protocol retransmits on timeout
                // anyway); point-to-point in Direct mode, where the link is
                // the only path.
                case PaxosMsgType::Phase2a:
                case PaxosMsgType::Phase2b:
                case PaxosMsgType::Phase2bAggregate:
                case PaxosMsgType::Decision:
                case PaxosMsgType::GroupBatch:  // carries Phase 2b / Decisions
                    return mode == RealTransport::Mode::Direct;
                // Heartbeats are periodic by construction; a retransmitted
                // stale heartbeat is worse than the next fresh one.
                case PaxosMsgType::Heartbeat:
                    return false;
            }
            return false;  // unreachable: the switch above is exhaustive
        }
        // Pull digests are periodic anti-entropy (the next round supersedes
        // a lost one); Raft ships bare control traffic like Direct Paxos;
        // Other has no wire form at all.
        case BodyKind::PullDigest:
            return false;
        case BodyKind::Raft:
            return mode == RealTransport::Mode::Direct;
        case BodyKind::Other:
            return false;
    }
    return false;  // unreachable: the switch above is exhaustive
}

// -- timers / tasks ---------------------------------------------------------

void RealTransport::schedule(SimTime delay, std::function<void(CpuContext&)> fn) {
    reactor_.schedule_after(
        delay, [this, fn = std::move(fn), alive = std::weak_ptr<bool>(alive_)] {
            const auto guard = alive.lock();
            if (!guard || !*guard) return;
            CpuContext ctx(reactor_.now());
            fn(ctx);
        });
}

void RealTransport::schedule_every(SimTime period, std::function<void(CpuContext&)> fn) {
    timers_.push_back(reactor_.schedule_every(period, [this, fn = std::move(fn)] {
        CpuContext ctx(reactor_.now());
        fn(ctx);
    }));
}

void RealTransport::post(std::function<void(CpuContext&)> fn) {
    reactor_.post([this, fn = std::move(fn), alive = std::weak_ptr<bool>(alive_)] {
        const auto guard = alive.lock();
        if (!guard || !*guard) return;
        CpuContext ctx(reactor_.now());
        fn(ctx);
    });
}

}  // namespace gossipc::runtime
