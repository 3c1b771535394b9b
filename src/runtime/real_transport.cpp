#include "runtime/real_transport.hpp"

#include <utility>

#include "wire/codec.hpp"

namespace gossipc::runtime {

/// The runtime host port: tasks and timers run on the reactor, and sends go
/// out encoded on the peer channel. Reactor posts and one-shot timers cannot
/// be cancelled, so they hold a weak liveness token that dies with the port;
/// periodic timers are cancelled when it is destroyed.
class RealTransport::ReactorPort final : public GossipPort {
public:
    ReactorPort(Reactor& reactor, PeerChannel& chan, Mode mode)
        : reactor_(reactor), chan_(chan), mode_(mode) {}
    ~ReactorPort() override {
        for (const Reactor::TimerId id : timers_) reactor_.cancel_timer(id);
    }

    ProcessId self() const override { return chan_.self(); }
    SimTime now() const override { return reactor_.now(); }
    void post(Task task) override {
        reactor_.post([this, task = std::move(task), alive = std::weak_ptr<bool>(alive_)] {
            if (alive.expired()) return;
            CpuContext ctx(reactor_.now());
            task(ctx);
        });
    }
    void after(SimTime delay, std::function<void()> fn) override {
        reactor_.schedule_after(delay,
                                [fn = std::move(fn), alive = std::weak_ptr<bool>(alive_)] {
                                    if (!alive.expired()) fn();
                                });
    }
    /// Deadline-armed and backlog-skipping (Reactor::schedule_every); the
    /// tick runs straight from the timer.
    void every(SimTime period, Task task) override {
        timers_.push_back(reactor_.schedule_every(period, [this, task = std::move(task)] {
            CpuContext ctx(reactor_.now());
            task(ctx);
        }));
    }
    bool send(ProcessId peer, BodyPtr body, CpuContext& /*ctx*/) override {
        const std::vector<std::uint8_t> bytes = wire::encode_body(*body);
        return chan_.send_body(peer, bytes, reliable_over_datagrams(*body, mode_));
    }

private:
    Reactor& reactor_;
    PeerChannel& chan_;
    Mode mode_;
    std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);  ///< liveness token
    std::vector<Reactor::TimerId> timers_;  ///< periodic chains
};

RealTransport::RealTransport(Reactor& reactor, PeerChannel& chan, Params params,
                             GossipHooks& hooks)
    : reactor_(reactor), chan_(chan) {
    chan_.set_body_handler(
        [this](ProcessId from, std::span<const std::uint8_t> payload) {
            on_body(from, payload);
        });
    auto port = std::make_unique<ReactorPort>(reactor_, chan_, params.mode);
    if (params.mode == Mode::Direct) {
        for (ProcessId p = 0; p < chan_.size(); ++p) {
            if (p != chan_.self()) chan_.link(p);
        }
        run_over(std::move(port), chan_.size());
        return;
    }
    for (const ProcessId p : params.neighbors) chan_.link(p);
    gossip_ = std::make_unique<GossipNode>(std::move(port), params.neighbors,
                                           GossipNode::Params{}, hooks);
    run_over(*gossip_);
}

RealTransport::~RealTransport() { chan_.set_body_handler(nullptr); }

RealTransport::Counters RealTransport::counters() const {
    Counters c;
    if (gossip_) static_cast<GossipNode::Counters&>(c) = gossip_->counters();
    c.decode_errors = decode_errors_;
    return c;
}

void RealTransport::add_neighbor(ProcessId peer) {
    if (!gossip_ || peer == self()) return;
    gossip_->add_peer(peer);
    chan_.link(peer);
}

void RealTransport::remove_neighbor(ProcessId peer) {
    if (gossip_) gossip_->remove_peer(peer);
}

void RealTransport::on_body(ProcessId from, std::span<const std::uint8_t> payload) {
    const wire::DecodedBody decoded = wire::decode_body(payload);
    if (!decoded.ok()) {
        ++decode_errors_;
        return;
    }
    CpuContext ctx(reactor_.now());
    if (!receive(from, decoded.body, ctx)) ++decode_errors_;
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

}  // namespace gossipc::runtime
