package fleet

import (
	"context"
	"fmt"
	"hash/fnv"
	"sync"
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
	// HealthTTL is how long one readiness verdict is trusted (0 = 1s).
	HealthTTL time.Duration
	// HealthTimeout bounds one readiness probe (0 = 1s).
	HealthTimeout time.Duration
}

// peer is one remote member plus its cached readiness verdict.
type peer struct {
	client *vltclient.Client

	probeMu sync.Mutex // serializes probes; holders own the verdict below
	mu      sync.Mutex
	readyAt time.Time // verdict timestamp
	ready   bool
	probed  bool
}

// Coordinator routes cells to their owning member. It implements
// serve.Fleet and is safe for concurrent use.
type Coordinator struct {
	peers         []*peer
	healthTTL     time.Duration
	healthTimeout time.Duration
	now           func() time.Time // injectable for tests

	local, remote, fallback, probes uint64 // atomics
}

// New builds a Coordinator over the configured peers.
func New(cfg Config) *Coordinator {
	if cfg.HealthTTL <= 0 {
		cfg.HealthTTL = time.Second
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = time.Second
	}
	c := &Coordinator{
		healthTTL:     cfg.HealthTTL,
		healthTimeout: cfg.HealthTimeout,
		now:           time.Now,
	}
	for i, base := range cfg.Peers {
		pc := cfg.Client
		pc.BaseURL = base
		if cfg.Registry != nil {
			pc.Registry = cfg.Registry.Scope(fmt.Sprintf("peer%d", i))
		}
		c.peers = append(c.peers, &peer{client: vltclient.New(pc)})
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
	r.CounterFn("probes", func() uint64 { return atomic.LoadUint64(&c.probes) })
	r.Gauge("peers", func() float64 { return float64(len(c.peers)) })
}

// Peers reports the number of configured remote members.
func (c *Coordinator) Peers() int { return len(c.peers) }

// Fallbacks reports cells owned by a peer but recomputed locally.
func (c *Coordinator) Fallbacks() uint64 { return atomic.LoadUint64(&c.fallback) }

// Remote reports cells computed by their owning peer.
func (c *Coordinator) Remote() uint64 { return atomic.LoadUint64(&c.remote) }

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
// local fallback closure when that peer is unready or its call fails.
// The fallback renders through the same path as a single node, so the
// returned body is byte-identical regardless of the route taken.
func (c *Coordinator) Compute(ctx context.Context, key string, req api.RunRequest, local func() ([]byte, error)) ([]byte, error) {
	owner := c.Owner(key)
	if owner == 0 {
		atomic.AddUint64(&c.local, 1)
		return local()
	}
	p := c.peers[owner-1]
	if !c.healthy(ctx, p) {
		return c.degrade(local)
	}
	body, err := p.client.RunBody(ctx, req)
	if err != nil {
		if ctx.Err() != nil {
			// The caller's deadline died, not the peer; recomputing
			// locally would just burn a job slot on an abandoned wait.
			return nil, ctx.Err()
		}
		return c.degrade(local)
	}
	atomic.AddUint64(&c.remote, 1)
	return body, nil
}

// degrade recomputes a cell whose owning peer is unavailable through the
// local fallback closure. The bytes are identical to what the owner
// would have served: both routes render through the same
// content-addressed path. The caller consulted this node's memory and
// disk tiers before routing the cell, so there is no tier left to read.
func (c *Coordinator) degrade(local func() ([]byte, error)) ([]byte, error) {
	atomic.AddUint64(&c.fallback, 1)
	return local()
}

// healthy reports whether a peer should receive work right now: its
// circuit must not be open and its cached readiness probe must pass.
// Probes are serialized per peer and their verdict cached for
// healthTTL, so a sweep fanning out hundreds of cells costs at most one
// probe per peer per TTL window.
func (c *Coordinator) healthy(ctx context.Context, p *peer) bool {
	if !p.client.Ready() {
		return false
	}
	if ok, fresh := p.verdict(c.now(), c.healthTTL); fresh {
		return ok
	}
	p.probeMu.Lock()
	defer p.probeMu.Unlock()
	// A concurrent holder may have probed while this caller waited.
	if ok, fresh := p.verdict(c.now(), c.healthTTL); fresh {
		return ok
	}
	atomic.AddUint64(&c.probes, 1)
	pctx, cancel := context.WithTimeout(ctx, c.healthTimeout)
	//vltlint:ignore lock-blocking probeMu exists to serialize this probe: one Healthz per TTL window, waiters reuse the verdict, and pctx bounds the stall
	err := p.client.Healthz(pctx, true)
	cancel()
	p.mu.Lock()
	p.ready = err == nil
	p.readyAt = c.now()
	p.probed = true
	p.mu.Unlock()
	return err == nil
}

// verdict returns the cached readiness and whether it is still fresh.
func (p *peer) verdict(now time.Time, ttl time.Duration) (ok, fresh bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.probed || now.Sub(p.readyAt) >= ttl {
		return false, false
	}
	return p.ready, true
}
