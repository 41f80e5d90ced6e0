package deploy

import (
	"fmt"

	"github.com/chillerdb/chiller/internal/cluster"
	"github.com/chillerdb/chiller/internal/server"
	"github.com/chillerdb/chiller/internal/tcpnet"
	"github.com/chillerdb/chiller/internal/transport"
	"github.com/chillerdb/chiller/internal/txn"
)

// Client is a coordinator-only member of a cluster of chiller-node
// processes: it takes node ID len(peers) (outside the data topology) and
// home partition -1, so every locality check in the coordination paths
// resolves to a remote verb over the socket. Its topology, directory and
// registry must mirror the nodes' — replication degree, lane count and
// partitioning shape verb addressing and are not negotiated on the wire.
type Client struct {
	Topo     *cluster.Topology
	Dir      *cluster.Directory
	Registry *txn.Registry
	Node     *Node
	// Fabric is the client's TCP attachment (topology polls, peer merges).
	Fabric *tcpnet.Fabric

	nodes []*Node
}

// ClientConfig is what a Client must know about the cluster it joins.
type ClientConfig struct {
	// Peers lists every node's address; index i is node i.
	Peers []string
	// ListenAddr is the client's own listen address (empty picks a
	// loopback port).
	ListenAddr string
	// Replication and Lanes must equal the nodes' (0 means no replicas and
	// the host's default lane count).
	Replication int
	Lanes       int
}

// Connect builds the client. It does not touch the network beyond
// binding its listener: connections are dialed lazily on the first verb,
// and tcpnet's dial retry absorbs nodes that are still starting up.
func Connect(cfg ClientConfig, def cluster.DefaultPartitioner) (*Client, error) {
	if len(cfg.Peers) == 0 {
		return nil, fmt.Errorf("deploy: connect needs at least one peer: %w", ErrInvalid)
	}
	fab, err := tcpnet.New(tcpnet.Config{ID: transport.NodeID(len(cfg.Peers)), ListenAddr: cfg.ListenAddr})
	if err != nil {
		return nil, fmt.Errorf("deploy: client fabric: %w", err)
	}
	addrs := make(map[transport.NodeID]string, len(cfg.Peers))
	for i, addr := range cfg.Peers {
		addrs[transport.NodeID(i)] = addr
	}
	fab.SetPeers(addrs)

	topo, dir := NewDirectory(len(cfg.Peers), cfg.Replication, cfg.Lanes, def)
	reg := txn.NewRegistry()
	node, err := NewNode(fab, -1, Spec{Registry: reg, Dir: dir})
	if err != nil {
		fab.Close()
		return nil, err
	}
	return &Client{Topo: topo, Dir: dir, Registry: reg, Node: node, Fabric: fab, nodes: []*Node{node}}, nil
}

// Nodes returns the client's one node as a list, the shape Cluster.Nodes
// has, so a caller can pick coordinators the same way in both modes.
func (c *Client) Nodes() []*Node { return c.nodes }

// Close drains in-flight work and tears the client down. The remote
// nodes keep running.
func (c *Client) Close() error { return c.Node.Close() }

// AdoptTopology fetches the cluster's current layout from node 0 over
// fab and installs it into topo, merging any node addresses fab's static
// peer list lacks (nodes that joined after the founders). Layout changes
// are not pushed to processes outside the founding peer list, so clients
// and joiners call this before routing (and clients poll it to follow
// membership churn).
func AdoptTopology(fab *tcpnet.Fabric, topo *cluster.Topology) error {
	payload, err := fab.Call(0, server.VerbTopoGet, nil)
	if err != nil {
		return fmt.Errorf("deploy: fetch topology from node 0: %w", err)
	}
	parts, addrs, err := server.DecodeTopoPayload(payload)
	if err != nil {
		return fmt.Errorf("deploy: decode topology: %w", err)
	}
	if len(addrs) > 0 {
		fab.SetPeers(addrs)
	}
	topo.Install(parts)
	return nil
}
