package server

import (
	"fmt"

	"lotec/internal/core"
	"lotec/internal/directory"
	"lotec/internal/fault"
	"lotec/internal/ids"
	"lotec/internal/node"
	"lotec/internal/pstore"
	"lotec/internal/schema"
	"lotec/internal/stats"
	"lotec/internal/transport"
	"lotec/internal/txn"
	"lotec/internal/wire"
)

// Topology describes a TCP deployment: the data nodes (IDs 1..len(Nodes))
// and the GDO service, which gets the node ID after the last data node.
type Topology struct {
	// NodeAddrs[i] is the host:port of node i+1.
	NodeAddrs []string
	// GDOAddr is the directory service's host:port.
	GDOAddr string
	// DirectoryShards partitions the directory service into that many
	// independent shards (0 or 1 → a single partition). Every process of a
	// deployment must use the same value: nodes compute shard addresses
	// from it and the GDO host dispatches on them.
	DirectoryShards int
}

// GDONode returns the directory's node ID.
func (t Topology) GDONode() ids.NodeID { return ids.NodeID(len(t.NodeAddrs) + 1) }

// Placement returns the deployment's shared object→shard/home assignment.
func (t Topology) Placement() directory.Placement {
	return directory.NewPlacement(t.DirectoryShards, len(t.NodeAddrs))
}

// InitialMap returns the deployment's epoch-stamped placement map: every
// shard's primary is the single GDO host, no backups. Nodes start from
// this map and adopt any newer one a RouteResp carries, so a deployment
// that later relocates shards corrects stale clients instead of erroring.
func (t Topology) InitialMap() wire.PlacementMap {
	shards := t.DirectoryShards
	if shards < 1 {
		shards = 1
	}
	return directory.InitialMap(shards, len(t.NodeAddrs), []ids.NodeID{t.GDONode()}, false)
}

// addrMap builds the ID→address table shared by every process.
func (t Topology) addrMap() map[ids.NodeID]string {
	m := make(map[ids.NodeID]string, len(t.NodeAddrs)+1)
	for i, a := range t.NodeAddrs {
		m[ids.NodeID(i+1)] = a
	}
	m[t.GDONode()] = t.GDOAddr
	return m
}

// GDOServer hosts the global directory of objects for a TCP deployment: a
// TCP endpoint in front of one directory.Host that is primary for every
// shard of Topology.InitialMap, with no backups. The Host serves the whole
// directory protocol; stale-epoch or misaddressed requests get a RouteResp
// carrying its map, so a client with a stale view re-aims.
type GDOServer struct {
	net  *TCPNet
	host *directory.Host
}

// NewGDOServer creates (without starting) a directory server. Requests
// pass the Host's idempotency cache: any node of the deployment may have
// the retry layer enabled, and a retransmitted acquire/release must
// observe the first execution's reply, not run twice. With no retries in
// play the cache is a pure pass-through (request IDs stay zero).
func NewGDOServer(topo Topology) *GDOServer {
	s := &GDOServer{net: NewTCPNet(topo.GDONode(), topo.addrMap())}
	s.host = directory.NewHost(directory.HostConfig{
		Env:   s.net,
		Place: topo.Placement(),
		Map:   topo.InitialMap(),
	})
	handler := s.host.Handler()
	for _, t := range directory.HostRequests {
		s.net.SetAsyncHandler(t, handler)
	}
	return s
}

// InstallFaults injects a deterministic fault plan into the directory's
// outbound traffic and enables its retry layer. Call before Start.
func (s *GDOServer) InstallFaults(plan fault.Plan, policy transport.RetryPolicy) {
	s.net.InstallFaults(fault.NewInjector(plan), policy)
}

// SetRecorder attaches a stats recorder: every frame the directory sends
// (replies, deferred grants, deadlock aborts) joins the trace. Share one
// recorder across the GDO and the nodes of an in-process deployment to get
// a cluster-wide message trace (the calibrate loop does). Call before
// Start.
func (s *GDOServer) SetRecorder(rec *stats.Recorder) { s.net.SetRecorder(rec) }

// Start begins serving.
func (s *GDOServer) Start() error { return s.net.Listen() }

// Close stops the server.
func (s *GDOServer) Close() error { return s.net.Close() }

// Addr returns the bound address.
func (s *GDOServer) Addr() string { return s.net.Addr() }

// NodeConfig assembles one data node of a TCP deployment.
type NodeConfig struct {
	// Topology is the shared deployment layout.
	Topology Topology
	// Self is this node's ID (1-based index into Topology.NodeAddrs).
	Self ids.NodeID
	// Protocol is the default consistency protocol (must match
	// cluster-wide).
	Protocol core.Protocol
	// ProtocolOverrides selects per-class protocols (must match
	// cluster-wide).
	ProtocolOverrides map[ids.ClassID]core.Protocol
	// PageSize must match cluster-wide (0 → 4096).
	PageSize int
	// Lenient disables strict access checking.
	Lenient bool
	// FetchConcurrency bounds in-flight per-site calls of one page
	// transfer fan-out (0 → default 4).
	FetchConcurrency int
	// DeltaOff disables sub-page delta transfers (must match cluster-wide).
	DeltaOff bool
	// DeltaJournalDepth bounds the per-page dirty-range journal (0 →
	// default 8; must match cluster-wide).
	DeltaJournalDepth int
	// Rec records traffic; may be nil.
	Rec *stats.Recorder
	// Faults, when non-nil, injects the deterministic fault plan into this
	// node's outbound traffic and enables the RPC retry layer. Nil keeps
	// the historical fault-free paths.
	Faults *fault.Plan
	// Retry overrides the retry policy (zero fields fall back to the TCP
	// defaults). Only consulted when Faults is non-nil.
	Retry transport.RetryPolicy
}

// NodeServer is one LOTEC site over TCP: it executes transactions submitted
// by clients (RunReq) and serves the protocol's inter-site messages.
type NodeServer struct {
	cfg     NodeConfig
	net     *TCPNet
	eng     *node.Engine
	schemas *schema.Registry
	methods *node.MethodTable
}

// NewNodeServer creates (without starting) a node.
func NewNodeServer(cfg NodeConfig) (*NodeServer, error) {
	if int(cfg.Self) < 1 || int(cfg.Self) > len(cfg.Topology.NodeAddrs) {
		return nil, fmt.Errorf("server: node id %v outside topology", cfg.Self)
	}
	if cfg.Protocol == nil {
		cfg.Protocol = core.LOTEC
	}
	if cfg.PageSize <= 0 {
		cfg.PageSize = 4096
	}
	s := &NodeServer{
		cfg:     cfg,
		schemas: schema.NewRegistry(cfg.PageSize),
		methods: node.NewMethodTable(),
	}
	s.net = NewTCPNet(cfg.Self, cfg.Topology.addrMap())
	gdoNode := cfg.Topology.GDONode()
	place := cfg.Topology.Placement()
	// Every GDO request goes through a route table seeded with the
	// deployment's initial map: requests carry the adopted epoch and a
	// RouteResp from the directory (stale epoch, relocated shard) re-aims
	// them instead of failing the transaction.
	route := directory.NewRouteTable(s.net, cfg.Rec, cfg.Topology.InitialMap())
	eng, err := node.New(node.Config{
		Env:               s.net,
		Store:             pstore.NewStore(cfg.PageSize),
		Schemas:           s.schemas,
		Methods:           s.methods,
		Manager:           txn.NewManagerAt(uint64(cfg.Self) << 40),
		Protocol:          cfg.Protocol,
		ProtocolOverrides: cfg.ProtocolOverrides,
		HomeFn:            func(ids.ObjectID) ids.NodeID { return gdoNode },
		ShardFn:           place.ShardOf,
		Route:             route,
		Rec:               cfg.Rec,
		FetchConcurrency:  cfg.FetchConcurrency,
		Strict:            !cfg.Lenient,
		DeltaOff:          cfg.DeltaOff,
		DeltaJournalDepth: cfg.DeltaJournalDepth,
	})
	if err != nil {
		return nil, err
	}
	s.eng = eng
	// Like the GDO, a node always answers through the idempotency cache:
	// peers retransmitting fetch/push calls must get the cached reply.
	s.net.SetHandler(fault.NewDedup().Wrap(eng.Handle))
	s.net.SetAsyncHandler(wire.TRunReq, s.handleRun)
	if cfg.Rec != nil {
		s.net.SetRecorder(cfg.Rec)
	}
	if cfg.Faults != nil {
		s.net.InstallFaults(fault.NewInjector(*cfg.Faults), cfg.Retry)
	}
	return s, nil
}

// AddClass registers a class at this node. Every node of a deployment must
// register the same classes (the schema is part of the application binary).
func (s *NodeServer) AddClass(cls *schema.Class) error { return s.schemas.Add(cls) }

// OnMethod registers a method body at this node.
func (s *NodeServer) OnMethod(cls *schema.Class, method string, fn node.MethodFunc) error {
	return s.methods.Register(cls, method, fn)
}

// CreateObject registers an object locally and, when this node is the
// owner, also in the GDO (exactly one node per object should own it).
func (s *NodeServer) CreateObject(obj ids.ObjectID, class ids.ClassID, owner ids.NodeID) error {
	if err := s.eng.RegisterObject(obj, class, owner); err != nil {
		return err
	}
	if owner != s.net.Self() {
		return nil
	}
	layout, err := s.schemas.Layout(class)
	if err != nil {
		return err
	}
	reply, err := s.net.Call(s.cfg.Topology.GDONode(), &wire.RegisterReq{
		Obj:      obj,
		Class:    class,
		NumPages: int32(layout.NumPages()),
		Owner:    owner,
	})
	if err != nil {
		return fmt.Errorf("server: register %v with GDO: %w", obj, err)
	}
	if _, ok := reply.(*wire.RegisterResp); !ok {
		return fmt.Errorf("server: register %v: unexpected reply %T", obj, reply)
	}
	return nil
}

// Start begins serving.
func (s *NodeServer) Start() error { return s.net.Listen() }

// Close stops the node.
func (s *NodeServer) Close() error { return s.net.Close() }

// Addr returns the bound address.
func (s *NodeServer) Addr() string { return s.net.Addr() }

// Engine exposes the protocol engine (diagnostics).
func (s *NodeServer) Engine() *node.Engine { return s.eng }

// Run executes a root transaction at this node (in-process entry point).
func (s *NodeServer) Run(obj ids.ObjectID, method string, arg []byte) ([]byte, error) {
	out, _, err := s.eng.Run(obj, method, arg)
	return out, err
}

// handleRun serves a client's RunReq: the transaction executes on its own
// goroutine and the reply goes back on the arrival connection when it
// finishes.
func (s *NodeServer) handleRun(_ ids.NodeID, m wire.Msg, reply func(wire.Msg)) {
	req, ok := m.(*wire.RunReq)
	if !ok {
		reply(&wire.ErrResp{Msg: "server: malformed run request"})
		return
	}
	go func() {
		out, _, err := s.eng.Run(req.Obj, req.Method, req.Arg)
		resp := &wire.RunResp{Result: out}
		if err != nil {
			resp.ErrMsg = err.Error()
		}
		reply(resp)
	}()
}
