package fleet

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"

	"vlt/internal/api"
	"vlt/internal/stats"
	"vlt/internal/vltclient"
)

// Config tunes a Coordinator. Peers is the only required field; an
// empty peer list is legal and routes everything locally.
type Config struct {
	// Peers lists the other nodes' base URLs (this node excluded).
	// Order matters: every node in the fleet must be configured with a
	// consistent member ordering for the shard map to agree.
	Peers []string
	// Client is the template for per-peer clients; BaseURL and Registry
	// are overridden per peer. The zero value uses vltclient defaults.
	Client vltclient.Config
	// Registry, when non-nil, receives routing counters and, under
	// peer<i> scopes, each peer client's traffic and breaker metrics.
	Registry *stats.Registry
}

// Coordinator routes cells to their owning member. It is safe for
// concurrent use.
type Coordinator struct {
	peers []*vltclient.Client

	local, remote, fallback uint64 // atomics
}

// New builds a Coordinator over the configured peers.
func New(cfg Config) *Coordinator {
	c := &Coordinator{}
	for i, base := range cfg.Peers {
		pc := cfg.Client
		pc.BaseURL = base
		if cfg.Registry != nil {
			pc.Registry = cfg.Registry.Scope(fmt.Sprintf("peer%d", i))
		}
		c.peers = append(c.peers, vltclient.New(pc))
	}
	if cfg.Registry != nil {
		c.registerMetrics(cfg.Registry)
	}
	return c
}

// registerMetrics exposes the routing counters. Every uint64 counter
// field on Coordinator must appear here — the metrics-registered lint
// pass cross-checks it. The counters are atomics, so the closures read
// without locks.
func (c *Coordinator) registerMetrics(r *stats.Registry) {
	r.CounterFn("local", func() uint64 { return atomic.LoadUint64(&c.local) })
	r.CounterFn("remote", func() uint64 { return atomic.LoadUint64(&c.remote) })
	r.CounterFn("fallback", func() uint64 { return atomic.LoadUint64(&c.fallback) })
	r.Gauge("peers", func() float64 { return float64(len(c.peers)) })
}

// Owner returns the member index owning a key: 0 is the local node,
// i>0 is Peers[i-1]. Pure function of (key, member count), so every
// consistently-configured node computes the same shard map.
func (c *Coordinator) Owner(key string) int {
	h := fnv.New64a()
	h.Write([]byte(key))
	return int(h.Sum64() % uint64(len(c.peers)+1))
}

// Compute resolves one cell: locally when this node owns the key (or
// there are no peers), otherwise on the owning peer — degrading to the
// local fallback closure when that peer's call fails, including the
// fast ErrCircuitOpen of a peer whose breaker is open. The fallback
// renders through the same path as a single node, so the returned body
// is byte-identical regardless of the route taken.
//
// The peer call gets half of the caller's remaining deadline. A peer
// that accepts connections but never answers (a stopped process, a
// blackholed host) then costs that half and a breaker failure, and the
// other half is left for the fallback.
func (c *Coordinator) Compute(ctx context.Context, key string, req api.RunRequest, local func() ([]byte, error)) ([]byte, error) {
	owner := c.Owner(key)
	if owner == 0 {
		atomic.AddUint64(&c.local, 1)
		return local()
	}
	peerCtx := ctx
	if dl, ok := ctx.Deadline(); ok {
		var cancel context.CancelFunc
		peerCtx, cancel = context.WithTimeout(ctx, time.Until(dl)/2)
		defer cancel()
	}
	body, err := c.peers[owner-1].RunBody(peerCtx, req)
	if err != nil {
		if ctx.Err() != nil {
			// The caller's deadline died, not the peer; recomputing
			// locally would just burn a job slot on an abandoned wait.
			return nil, ctx.Err()
		}
		// The bytes are identical to what the owner would have served:
		// both routes render through the same content-addressed path.
		// The caller consulted this node's memory and disk tiers before
		// routing the cell, so there is no tier left to read.
		atomic.AddUint64(&c.fallback, 1)
		return local()
	}
	atomic.AddUint64(&c.remote, 1)
	return body, nil
}
