// Transport over real sockets (DESIGN.md §10, §12): the runtime host of the
// one protocol transport, PortTransport. PaxosProcess and FailureDetector
// depend only on the Transport interface, so the protocol stack runs over
// this transport unmodified. The socket layer underneath is a PeerChannel —
// framed TCP streams (ConnectionManager) or clustered UDP datagrams
// (UdpLink) — selected by gossipd --transport.
//
// What this class adds to PortTransport is the host port: tasks and timers
// run on the reactor behind a liveness guard, sends are encoded onto the
// channel with the reliability policy below, and received frames are decoded
// and handed to PortTransport::receive (a frame that fails to decode, or an
// aggregate the hooks cannot reverse, counts as a decode error). The mode
// picks what PortTransport runs over, matching the simulator's setups:
//  * Direct — point-to-point unicast to every cluster member (the Baseline
//    setup); broadcast sends one encoded body per peer.
//  * Gossip — dissemination over the overlay neighbors by the simulator's
//    own gossip engine: a GossipNode (default Params: push, flood fanout, no
//    batching) on the same port. Hop counts survive the codec.
//
// CpuContext is constructed from the reactor's monotonic clock; consume()
// advances only the context's virtual time (the real CPU cost is the real
// CPU cost), which the protocol stack tolerates by design.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gossip/gossip_node.hpp"
#include "runtime/peer_channel.hpp"
#include "runtime/reactor.hpp"
#include "transport/port_transport.hpp"

namespace gossipc::runtime {

class RealTransport final : public PortTransport {
public:
    enum class Mode { Direct, Gossip };

    struct Params {
        Mode mode = Mode::Direct;
        /// Overlay neighbors forwarded to in Gossip mode (ignored in Direct
        /// mode, which talks to the whole cluster).
        std::vector<ProcessId> neighbors;
    };

    /// The gossip engine's counters (all zero in Direct mode) plus the
    /// codec's decode_errors, which a simulator run cannot have.
    struct Counters : GossipNode::Counters {
        /// frames that failed to decode, or held an aggregate the hooks
        /// cannot reverse
        std::uint64_t decode_errors = 0;
    };

    /// `hooks` must outlive the transport (pass PassThroughHooks for classic
    /// gossip, PaxosSemantics for the Semantic setup). Installs itself as
    /// `chan`'s body handler and links the relevant peers.
    RealTransport(Reactor& reactor, PeerChannel& chan, Params params,
                  GossipHooks& hooks);
    /// Detaches from the channel; the port invalidates its pending tasks and
    /// timers: the chaos bridge tears transports down mid-run, so everything
    /// posted to the reactor must survive the teardown.
    ~RealTransport() override;

    Counters counters() const;

    /// Overlay churn over the live runtime (Gossip mode): start/stop
    /// forwarding to `peer` (GossipNode::add_peer/remove_peer).
    void add_neighbor(ProcessId peer);
    void remove_neighbor(ProcessId peer);

private:
    class ReactorPort;

    void on_body(ProcessId from, std::span<const std::uint8_t> payload);

    Reactor& reactor_;
    PeerChannel& chan_;
    std::unique_ptr<GossipNode> gossip_;  ///< Gossip mode only; owns the port
    std::uint64_t decode_errors_ = 0;
};

/// Reliability policy over datagram channels (DESIGN.md §12): which bodies
/// the UDP link should retransmit until acked. Consensus-critical control
/// traffic (Phase 1, client values, learner repair requests) is reliable;
/// Phase 2 and Decision traffic in Gossip mode rides best-effort on gossip's
/// own redundancy, exactly the loss tolerance the paper claims. For a
/// GossipEnvelope the policy is that of its payload. TCP channels ignore
/// the flag (the stream is reliable wholesale).
bool reliable_over_datagrams(const MessageBody& body, RealTransport::Mode mode);

}  // namespace gossipc::runtime
