package cluster

import (
	"errors"
	"fmt"
	"time"

	"musuite/internal/rpc"
	"musuite/internal/wire"
)

// Runtime admin surface.  Every service binary can expose its mid-tier's
// topology on a second listener: operators query the current view
// and add, drain, or remove leaf groups while the data plane keeps serving.
// The surface speaks the repo's own RPC substrate, so the same wire tooling
// (and the same client library) works against it.

// Admin method names on the wire.
const (
	// MethodTopology returns the current View.
	MethodTopology = "admin.topology"
	// MethodAdd dials a new leaf replica group and places it in service.
	MethodAdd = "admin.add"
	// MethodDrain gracefully removes a leaf group (see Topology.DrainGroup).
	MethodDrain = "admin.drain"
	// MethodRemove forcefully removes a leaf group.
	MethodRemove = "admin.remove"
)

// --- wire codecs ---

// EncodeAddRequest encodes an add request: the new group's replica
// addresses.
func EncodeAddRequest(addrs []string) []byte {
	size := 8
	for _, a := range addrs {
		size += len(a) + 4
	}
	e := wire.NewEncoder(size)
	e.Uvarint(uint64(len(addrs)))
	for _, a := range addrs {
		e.String(a)
	}
	return e.Bytes()
}

// DecodeAddRequest decodes an add request.
func DecodeAddRequest(b []byte) ([]string, error) {
	d := wire.NewDecoder(b)
	n := int(d.Uvarint())
	if err := d.Err(); err != nil {
		return nil, err
	}
	if n < 0 || n > wire.MaxSliceLen {
		return nil, wire.ErrTooLarge
	}
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = d.String()
	}
	return addrs, d.Err()
}

// EncodeShard encodes an add reply or a remove request: one shard index.
func EncodeShard(shard int) []byte {
	e := wire.NewEncoder(4)
	e.Uvarint(uint64(shard))
	return e.Bytes()
}

// DecodeShard decodes a shard index.
func DecodeShard(b []byte) (int, error) {
	d := wire.NewDecoder(b)
	shard := int(d.Uvarint())
	return shard, d.Err()
}

// EncodeDrainRequest encodes a drain request: shard index and deadline.
func EncodeDrainRequest(shard int, deadline time.Duration) []byte {
	e := wire.NewEncoder(12)
	e.Uvarint(uint64(shard))
	e.Uint64(uint64(deadline))
	return e.Bytes()
}

// DecodeDrainRequest decodes a drain request.
func DecodeDrainRequest(b []byte) (int, time.Duration, error) {
	d := wire.NewDecoder(b)
	shard := int(d.Uvarint())
	deadline := time.Duration(d.Uint64())
	return shard, deadline, d.Err()
}

// EncodeView encodes a topology view.
func EncodeView(v View) []byte {
	e := wire.NewEncoder(64)
	e.Uint64(v.Epoch)
	e.String(v.Router)
	e.Uvarint(uint64(len(v.Groups)))
	for _, g := range v.Groups {
		e.Uvarint(uint64(g.Shard))
		e.String(g.State)
		e.Uvarint(uint64(g.Outstanding))
		e.Uvarint(uint64(len(g.Addrs)))
		for _, a := range g.Addrs {
			e.String(a)
		}
	}
	return e.Bytes()
}

// DecodeView decodes a topology view.
func DecodeView(b []byte) (View, error) {
	d := wire.NewDecoder(b)
	v := View{Epoch: d.Uint64(), Router: d.String()}
	n := int(d.Uvarint())
	if err := d.Err(); err != nil {
		return View{}, err
	}
	if n < 0 || n > wire.MaxSliceLen {
		return View{}, wire.ErrTooLarge
	}
	v.Groups = make([]GroupView, n)
	for i := range v.Groups {
		g := &v.Groups[i]
		g.Shard = int(d.Uvarint())
		g.State = d.String()
		g.Outstanding = int(d.Uvarint())
		na := int(d.Uvarint())
		if err := d.Err(); err != nil {
			return View{}, err
		}
		if na < 0 || na > wire.MaxSliceLen {
			return View{}, wire.ErrTooLarge
		}
		g.Addrs = make([]string, na)
		for j := range g.Addrs {
			g.Addrs[j] = d.String()
		}
	}
	return v, d.Err()
}

// --- server ---

// AdminServer serves the topology admin methods on its own listener, off
// the data plane.
type AdminServer struct {
	topo   *Topology
	server *rpc.Server
}

// ServeAdmin starts an admin server for topo on addr (":0" picks a port)
// and returns it with the bound address.
func ServeAdmin(topo *Topology, addr string) (*AdminServer, string, error) {
	a := &AdminServer{topo: topo}
	a.server = rpc.NewServer(a.onRequest, nil)
	bound, err := a.server.Start(addr)
	if err != nil {
		return nil, "", err
	}
	return a, bound, nil
}

// onRequest dispatches one admin RPC.  Drains block for up to their
// deadline, so they move off the connection's reader goroutine.
func (a *AdminServer) onRequest(req *rpc.Request) {
	switch req.Method {
	case MethodTopology:
		req.Reply(EncodeView(a.topo.View()))
	case MethodAdd:
		addrs, err := DecodeAddRequest(req.Payload)
		if err != nil {
			req.ReplyError(err)
			return
		}
		shard, err := a.topo.AddGroup(addrs)
		if err != nil {
			req.ReplyError(err)
			return
		}
		req.Reply(EncodeShard(shard))
	case MethodDrain:
		shard, deadline, err := DecodeDrainRequest(req.Payload)
		if err != nil {
			req.ReplyError(err)
			return
		}
		go func() {
			if err := a.topo.DrainGroup(shard, deadline); err != nil {
				req.ReplyError(err)
				return
			}
			req.Reply(nil)
		}()
	case MethodRemove:
		shard, err := DecodeShard(req.Payload)
		if err != nil {
			req.ReplyError(err)
			return
		}
		if err := a.topo.RemoveGroup(shard); err != nil {
			req.ReplyError(err)
			return
		}
		req.Reply(nil)
	default:
		req.ReplyError(fmt.Errorf("cluster: unknown admin method %q", req.Method))
	}
}

// Close stops the admin listener (the topology is left untouched).
func (a *AdminServer) Close() {
	if a.server != nil {
		a.server.Close()
	}
}

// --- client ---

// AdminClient is an operator's typed handle on a mid-tier's admin listener.
type AdminClient struct {
	rpc *rpc.Client
}

// DialAdmin connects to an admin listener.
func DialAdmin(addr string) (*AdminClient, error) {
	c, err := rpc.Dial(addr, nil)
	if err != nil {
		return nil, err
	}
	return &AdminClient{rpc: c}, nil
}

// Topology fetches the current topology view.
func (c *AdminClient) Topology() (View, error) {
	reply, err := c.rpc.Call(MethodTopology, nil)
	if err != nil {
		return View{}, err
	}
	return DecodeView(reply)
}

// Add places a new leaf replica group in service, returning its shard index.
func (c *AdminClient) Add(addrs []string) (int, error) {
	if len(addrs) == 0 {
		return 0, errors.New("cluster: empty leaf replica group")
	}
	reply, err := c.rpc.Call(MethodAdd, EncodeAddRequest(addrs))
	if err != nil {
		return 0, err
	}
	return DecodeShard(reply)
}

// Drain gracefully removes shard's leaf group, waiting up to deadline for
// quiescence (≤ 0 selects the server's default).
func (c *AdminClient) Drain(shard int, deadline time.Duration) error {
	if deadline <= 0 {
		deadline = DefaultDrainDeadline
	}
	_, err := c.rpc.CallTimeout(MethodDrain, EncodeDrainRequest(shard, deadline), deadline+5*time.Second)
	return err
}

// Remove forcefully removes shard's leaf group.
func (c *AdminClient) Remove(shard int) error {
	_, err := c.rpc.Call(MethodRemove, EncodeShard(shard))
	return err
}

// Close releases the connection.
func (c *AdminClient) Close() error { return c.rpc.Close() }
