// The one protocol transport (Figure 1/2): the paper's communication
// abstraction mapped once, over a GossipPort host — the simulator's NodePort
// or the runtime's reactor port inside RealTransport. What it is built over
// picks the mapping:
//  * a port and n members — point-to-point channels (the Baseline setup):
//    broadcast is local delivery plus one send per other member, and a send
//    to self is delivered locally. In the simulator, transmitting without a
//    link is a logic error: Baseline networks must provision the
//    coordinator star explicitly.
//  * a GossipNode — broadcast/deliver over gossip (the Gossip and Semantic
//    Gossip setups), each message identified by its consensus message's
//    unique key, as the paper prescribes for the recently-seen cache. Even
//    one-to-one sends become broadcasts: "Phase 1b messages ... will be
//    delivered to all participants" (Section 3.1).
// Timers and tasks run on the port either way: schedule() is port.after
// followed by port.post, schedule_every() is port.every, post() port.post.
#pragma once

#include <memory>

#include "gossip/gossip_node.hpp"
#include "transport/transport.hpp"

namespace gossipc {

class PortTransport : public Transport {
public:
    /// Point-to-point over the simulated `node` (a NodePort), to processes
    /// [0, members); installs itself as the node's receive handler.
    PortTransport(Node& node, int members);
    /// Gossip over `gossip`, which must outlive the transport; installs its
    /// deliver callback. The host keeps handing received bodies to it.
    explicit PortTransport(GossipNode& gossip);

    PortTransport(const PortTransport&) = delete;  // its callbacks hold its address
    PortTransport& operator=(const PortTransport&) = delete;

    ProcessId self() const override { return port_->self(); }
    void broadcast(PaxosMessagePtr msg, CpuContext& ctx) override;
    void send(ProcessId to, PaxosMessagePtr msg, CpuContext& ctx) override;
    void schedule(SimTime delay, std::function<void(CpuContext&)> fn) override;
    void schedule_every(SimTime period, std::function<void(CpuContext&)> fn) override;
    void post(std::function<void(CpuContext&)> fn) override;

    /// Receive dispatch for the host: a Paxos body is delivered up, gossip
    /// bodies (envelopes, pull digests) go to the engine, other kinds are
    /// ignored. False if the engine dropped an envelope holding an aggregate
    /// its hooks cannot reverse.
    bool receive(ProcessId from, const BodyPtr& body, CpuContext& ctx);

protected:
    /// For a host that builds its port or engine in its own constructor: it
    /// must call run_over() before the transport is used.
    PortTransport() = default;
    /// Point-to-point over `port` to processes [0, members).
    void run_over(std::unique_ptr<GossipPort> port, int members);
    void run_over(GossipNode& gossip);

private:
    std::unique_ptr<GossipPort> owned_port_;  ///< point-to-point only
    GossipPort* port_ = nullptr;
    int members_ = 0;
    GossipNode* gossip_ = nullptr;  ///< set iff over gossip
};

}  // namespace gossipc
