// Package simfab is the composition-root facade over the simulated
// fabric: it re-exports internal/simnet's constructor and configuration
// under the transport tree. Cluster builders (internal/bench,
// internal/check, the public chiller package) import this package —
// never internal/simnet itself — so the CI import lint can hold the
// line that only transport implementations touch the simulator: engines
// see transport.Endpoint, harnesses see simfab, and nothing else knows
// simnet exists.
//
// Everything here is a type alias or a one-line forward; the simulated
// fabric's behaviour is documented in internal/simnet; its error values
// are transport's. Fault injection is not the simulator's: wrap its
// endpoints with transport.Faults, as over tcpnet.
package simfab

import (
	"github.com/chillerdb/chiller/internal/simnet"
)

// Aliases of the simulator's construction surface.
type (
	// Config controls the simulated fabric's timing model.
	Config = simnet.Config
	// Network is the simulated fabric; Endpoint(id) attaches nodes.
	Network = simnet.Network
	// Endpoint is one node's attachment (implements transport.Endpoint).
	Endpoint = simnet.Endpoint
	// NodeID is the shared transport node identity.
	NodeID = simnet.NodeID
	// Stats is the shared per-fabric counter block.
	Stats = simnet.Stats
)

// New creates a simulated fabric with the given timing configuration.
func New(cfg Config) *Network { return simnet.New(cfg) }
