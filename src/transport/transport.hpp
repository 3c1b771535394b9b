// Communication abstraction between Paxos and the substrate (Figure 1/2).
//
// The same Paxos implementation runs over either point-to-point channels
// (the paper's Baseline setup) or broadcast/deliver over the gossip layer,
// where even one-to-one sends become broadcasts (the paper's Gossip and
// Semantic Gossip setups). PortTransport (transport/port_transport.hpp) is
// the one mapping onto both substrates, in the simulator and in the real
// runtime alike; the other implementations (GroupTransport, GatedTransport)
// are facades over it.
#pragma once

#include <functional>

#include "net/node.hpp"
#include "paxos/message.hpp"

namespace gossipc {

class Transport {
public:
    using DeliverFn = std::function<void(const PaxosMessagePtr&, CpuContext&)>;

    virtual ~Transport() = default;

    virtual ProcessId self() const = 0;

    /// Addresses a message to all processes (including local delivery).
    /// Non-blocking; invoked from within a CPU task.
    virtual void broadcast(PaxosMessagePtr msg, CpuContext& ctx) = 0;

    /// Addresses a message to one process. Gossip transports implement this
    /// as a broadcast (gossip has no unicast); local destination delivers
    /// immediately.
    virtual void send(ProcessId to, PaxosMessagePtr msg, CpuContext& ctx) = 0;

    /// Schedules protocol work (timeouts) on this process's CPU. The
    /// callback is dropped if the process is crashed when it fires.
    virtual void schedule(SimTime delay, std::function<void(CpuContext&)> fn) = 0;

    /// Schedules `fn` every `period`. The re-arm happens outside the
    /// process CPU, so the chain survives crash/recovery (ticks during a
    /// crash are dropped, the chain is not).
    virtual void schedule_every(SimTime period, std::function<void(CpuContext&)> fn) = 0;

    /// Posts work onto this process's CPU from outside a task (e.g. client
    /// submission events).
    virtual void post(std::function<void(CpuContext&)> fn) = 0;

    void set_deliver(DeliverFn fn) { deliver_ = std::move(fn); }

    /// Time this process last put a message on the wire (broadcast or remote
    /// send). The failure detector treats originated protocol traffic as an
    /// implicit heartbeat and emits explicit ones only during idle spells.
    SimTime last_origination() const { return last_origination_; }

protected:
    void deliver_up(const PaxosMessagePtr& msg, CpuContext& ctx) {
        if (deliver_) deliver_(msg, ctx);
    }

    /// Implementations call this from broadcast()/send() whenever traffic
    /// actually leaves the process (purely local delivery does not count —
    /// it refreshes no remote suspicion deadline).
    void note_origination(SimTime at) { last_origination_ = at; }

private:
    DeliverFn deliver_;
    SimTime last_origination_ = SimTime::zero();
};

}  // namespace gossipc
