package lane

import (
	"fmt"

	"vlt/internal/isa"
	"vlt/internal/mem"
	"vlt/internal/pipe"
	"vlt/internal/stats"
	"vlt/internal/vm"
)

// Config parameterizes a lane core.
type Config struct {
	Width             int // in-order issue width (2)
	NumMemPorts       int // memory ports (2)
	RetireQueue       int // in-flight instructions tolerated (decoupling depth)
	DecoupleWindow    int // issue lookahead past stalled instructions
	MispredictPenalty int // shallow pipeline redirect cost
	ICacheServiceLat  int // extra cycles for SU-forwarded I-cache misses
	PredictorEntries  int
	ICache            mem.L1Config
}

// DefaultConfig returns the paper's lane-core parameters. DecoupleWindow
// models the lane's existing access-decoupling queues (Espasa's decoupled
// vector architecture, the paper's citation [14]): a stalled consumer does
// not block independent younger operations within a small lookahead,
// which is how the paper's lanes tolerate the L2 latency without a data
// cache. Set it to 1 for a strictly blocking in-order pipeline (the
// ablation).
func DefaultConfig() Config {
	return Config{
		Width: 2, NumMemPorts: 2, RetireQueue: 48, DecoupleWindow: 12,
		MispredictPenalty: 2, ICacheServiceLat: 4,
		PredictorEntries: 512, ICache: mem.LaneICacheConfig(),
	}
}

// Core is one lane running a scalar thread.
type Core struct {
	ID  int
	cfg Config

	vmach  *vm.VM
	arena  *pipe.Arena // the machine's uops
	icache *mem.L1
	l2     *mem.L2
	pred   *pipe.Bimodal

	tid    int
	active bool

	fetchQ []pipe.UopID // fetched, not yet issued (program order, 0 = an issued hole)
	rob    pipe.Ring    // all in-flight uops in program order (retire queue)

	fe pipe.Frontend

	// OnRetire, if set, is invoked for every retired uop.
	OnRetire func(*pipe.Uop)

	// Err records a functional fault or an illegal instruction class.
	Err error

	Fetched uint64
	Issued  uint64
	Retired uint64

	StallOperand uint64 // issue-blocking cycles waiting on operands
	StallMemPort uint64
}

// New builds a lane core drawing its uops from arena, over the shared
// L2. A DecoupleWindow below 1 is taken as 1: the queue head is always
// an issue candidate.
func New(id int, cfg Config, machine *vm.VM, arena *pipe.Arena, l2 *mem.L2) *Core {
	cfg.DecoupleWindow = max(cfg.DecoupleWindow, 1)
	c := &Core{
		ID:     id,
		cfg:    cfg,
		vmach:  machine,
		arena:  arena,
		icache: mem.NewL1(cfg.ICache, l2),
		l2:     l2,
		pred:   pipe.NewBimodal(cfg.PredictorEntries),
		tid:    -1,
	}
	c.fetchQ = make([]pipe.UopID, 0, cfg.DecoupleWindow+cfg.Width)
	c.rob = pipe.NewRing(cfg.RetireQueue)
	return c
}

// ICache exposes the lane instruction cache (statistics).
func (c *Core) ICache() *mem.L1 { return c.icache }

// Predictor exposes the branch predictor (statistics).
func (c *Core) Predictor() *pipe.Bimodal { return c.pred }

// RegisterMetrics registers every pipeline counter on r (scoped to
// "lane<ID>" by the machine model). Counters stay plain uint64 fields;
// the registry only reads them at snapshot time.
func (c *Core) RegisterMetrics(r *stats.Registry) {
	r.Counter("fetch.instrs", &c.Fetched)
	r.Counter("issue.instrs", &c.Issued)
	r.Counter("retire.instrs", &c.Retired)
	r.Counter("stall.operand", &c.StallOperand)
	r.Counter("stall.mem_port", &c.StallMemPort)
	r.Counter("bpred.lookups", &c.pred.Lookups)
	r.Counter("bpred.mispredicts", &c.pred.Mispredicts)
	r.Gauge("bpred.mispredict_pct", func() float64 { return 100 * c.pred.MispredictRate() })
	c.icache.RegisterMetrics(r.Scope("icache"))
}

// AttachThread binds software thread tid to this core.
func (c *Core) AttachThread(tid int) {
	c.tid = tid
	c.active = true
}

// Done reports whether the core's thread has fully drained.
func (c *Core) Done() bool {
	return !c.active || (c.fe.Halted() && len(c.fetchQ) == 0 && c.rob.Len() == 0)
}

// BarrierWaiting returns the BAR uop at the head of the retire queue that
// has not been released, or 0.
func (c *Core) BarrierWaiting() pipe.UopID {
	if id := c.rob.Front(); id != 0 {
		if h := c.arena.At(id); h.Dyn.IsBarrier && h.Issued && h.DoneCycle == pipe.NeverDone {
			return id
		}
	}
	return 0
}

// Tick advances the core one cycle.
func (c *Core) Tick(now uint64) {
	if c.Err != nil || !c.active {
		return
	}
	c.retire(now)
	c.issue(now)
	c.fetch(now)
}

func (c *Core) retire(now uint64) {
	budget := c.cfg.Width
	for budget > 0 && c.rob.Len() > 0 {
		id := c.rob.Front()
		h := c.arena.At(id)
		if !h.Issued || !h.DoneBy(now) {
			return
		}
		c.rob.Pop()
		c.Retired++
		budget--
		if c.OnRetire != nil {
			c.OnRetire(h)
		}
		c.fe.Unpin(c.arena, id, now)
		// Nothing reads this uop's edges again: break the producer chain.
		// Retirement may then recycle h, so it is the last use of h.
		c.arena.ReleaseProducers(id)
		c.arena.Retire(id)
	}
}

// window returns the decouple-window prefix of the fetch queue: the
// entries issue may look at this cycle. Between cycles it holds no
// holes and no issued entries — issue compacts the queue before it
// returns, and CheckInvariants checks it.
func (c *Core) window() []pipe.UopID {
	return c.fetchQ[:min(len(c.fetchQ), c.cfg.DecoupleWindow)]
}

// visible returns the opcode info of entry slot of window w when issue
// considers it, and nil once the walk ends: past the window, or at a
// control uop that is not the queue head (control uops are sequencing
// points that hide everything younger). issue, NextEvent and SkipIdle
// all walk the window with it, slot by slot from the head.
func (c *Core) visible(w []pipe.UopID, slot int) *isa.Info {
	if slot >= len(w) {
		return nil
	}
	info := c.arena.At(w[slot]).Dyn.Inst.Op.Info()
	if slot != 0 && info.Sequencing {
		return nil
	}
	return info
}

// issue starts up to Width instructions per cycle. Issue is in order,
// but the access-decoupling queues let independent younger instructions
// within DecoupleWindow proceed past a stalled consumer (out-of-order
// completion is inherent: loads return whenever the L2 answers).
func (c *Core) issue(now uint64) {
	memUsed := 0
	issued := 0
	w := c.window()
	for slot := 0; issued < c.cfg.Width; slot++ {
		info := c.visible(w, slot)
		if info == nil {
			break
		}
		id := w[slot]
		u := c.arena.At(id)

		if info.Vector {
			c.Err = fmt.Errorf("lane: vector instruction %s on lane core %d", u.Dyn.Inst, c.ID)
			return
		}

		if info.Sequencing { // the queue head: the walk stops at any other
			// A barrier stays incomplete until the machine releases it.
			if u.Dyn.VltCfg != 0 {
				c.Err = fmt.Errorf("lane: vltcfg executed on lane core %d", c.ID)
				return
			}
			if !u.Dyn.IsBarrier {
				c.arena.Complete(id, now)
			}
			c.advance(u, now, slot)
			issued++
			continue
		}

		if u.ReadyCycle() > now {
			c.StallOperand++
			continue
		}
		switch info.Class {
		case isa.ClassLoad, isa.ClassStore:
			if memUsed >= c.cfg.NumMemPorts {
				c.StallMemPort++
				continue
			}
			memUsed++
			done := c.l2.Access(now, u.Dyn.EffAddrs[0], info.Class == isa.ClassStore)
			if info.Class == isa.ClassStore {
				// Stores retire once accepted by the lane store queue.
				done = now + 1
			}
			c.arena.Complete(id, done)
		default:
			c.arena.Complete(id, now+uint64(info.Latency))
		}
		c.advance(u, now, slot)
		issued++
	}
	c.compactFetchQ()
}

// compactFetchQ drops issued entries from the front and squeezes out
// issued holes so the lookahead window keeps sliding.
func (c *Core) compactFetchQ() {
	dst := c.fetchQ[:0]
	for _, id := range c.fetchQ {
		if id != 0 {
			dst = append(dst, id)
		}
	}
	c.fetchQ = dst
}

func (c *Core) advance(u *pipe.Uop, now uint64, slot int) {
	u.Issued = true
	u.IssueCycle = now
	u.ChainCycle = u.DoneCycle
	c.fetchQ[slot] = 0
	c.Issued++
}

// queueRoom reports whether the fetch and retire queues have room for
// another fetched instruction. fetch and NextEvent both ask it.
func (c *Core) queueRoom() bool {
	return len(c.fetchQ) < c.cfg.DecoupleWindow+c.cfg.Width && c.rob.Len() < c.cfg.RetireQueue
}

// fetch resolves the fetch gates, then fetches up to Width instructions
// while the queues have room. Producers are captured at fetch: the core
// has no rename stage, and in-order issue makes fetch-time capture safe.
func (c *Core) fetch(now uint64) {
	if open, _ := c.fe.Gate(c.arena, now, c.cfg.MispredictPenalty); !open {
		return
	}
	for i := 0; i < c.cfg.Width; i++ {
		if !c.queueRoom() {
			return
		}
		// An I-cache miss is forwarded through the scalar unit.
		id, more, err := c.fe.Fetch(c.arena, now, c.vmach, c.tid, c.icache, uint64(c.cfg.ICacheServiceLat), c.pred)
		if id == 0 {
			c.Err = err // nil on an I-cache miss
			return
		}
		c.fe.Producers(c.arena, id, now)
		c.fe.Record(c.arena, id)
		c.fetchQ = append(c.fetchQ, id)
		c.rob.Push(id)
		c.Fetched++
		if !more {
			return
		}
	}
}
