#include "transport/port_transport.hpp"

#include <utility>

namespace gossipc {

PortTransport::PortTransport(Node& node, int members) {
    run_over(std::make_unique<NodePort>(
                 node,
                 [this](ProcessId from, const BodyPtr& body, CpuContext& ctx) {
                     return receive(from, body, ctx);
                 }),
             members);
}

PortTransport::PortTransport(GossipNode& gossip) { run_over(gossip); }

void PortTransport::run_over(std::unique_ptr<GossipPort> port, int members) {
    owned_port_ = std::move(port);
    port_ = owned_port_.get();
    members_ = members;
}

void PortTransport::run_over(GossipNode& gossip) {
    port_ = &gossip.port();
    gossip_ = &gossip;
    gossip_->set_deliver([this](const GossipAppMessage& msg, CpuContext& ctx) {
        if (msg.payload && msg.payload->kind() == BodyKind::Paxos) {
            deliver_up(std::static_pointer_cast<const PaxosMessage>(msg.payload), ctx);
        }
    });
}

void PortTransport::broadcast(PaxosMessagePtr msg, CpuContext& ctx) {
    note_origination(ctx.now());
    const ProcessId me = self();
    if (gossip_) {
        GossipAppMessage app;
        app.id = msg->unique_key();
        app.origin = me;
        app.payload = std::move(msg);
        gossip_->broadcast(std::move(app), ctx);
        return;
    }
    deliver_up(msg, ctx);  // local delivery, as with gossip broadcast
    for (ProcessId p = 0; p < members_; ++p) {
        if (p != me) port_->send(p, msg, ctx);
    }
}

void PortTransport::send(ProcessId to, PaxosMessagePtr msg, CpuContext& ctx) {
    if (gossip_) {
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
    port_->send(to, std::move(msg), ctx);
}

bool PortTransport::receive(ProcessId from, const BodyPtr& body, CpuContext& ctx) {
    if (body->kind() == BodyKind::Paxos) {
        deliver_up(std::static_pointer_cast<const PaxosMessage>(body), ctx);
        return true;
    }
    return gossip_ == nullptr || gossip_->receive(from, *body, ctx);
}

void PortTransport::schedule(SimTime delay, std::function<void(CpuContext&)> fn) {
    port_->after(delay, [port = port_, fn = std::move(fn)] { port->post(fn); });
}

void PortTransport::schedule_every(SimTime period, std::function<void(CpuContext&)> fn) {
    port_->every(period, std::move(fn));
}

void PortTransport::post(std::function<void(CpuContext&)> fn) { port_->post(std::move(fn)); }

}  // namespace gossipc
