package workloads

import (
	"fmt"
	"sort"

	"vlt/internal/asm"
	"vlt/internal/isa"
	"vlt/internal/vm"
)

// radix is a parallel radix sort of 16-bit keys in two 8-bit passes — the
// SPLASH-2 kernel. Almost all of the work is scalar (histogram and
// scatter loops with indirect addressing); the only vectorization the
// compiler finds is bulk work over the key and histogram arrays (a
// checksum pass, zeroing and column totals, VL 64), which is why the
// paper reports 6% vectorization at an average VL of 62.
//
// Each thread processes its key segment as four interleaved independent
// streams with private histogram/offset rows, and the key loads are
// software-pipelined one iteration ahead — the scheduling a production
// compiler applies so in-order lane cores overlap the dependent load
// chains of adjacent keys. Per pass:
//
//  1. parallel: zero the per-stream histogram rows (vector), build the
//     local histograms (scalar, four pipelined streams);
//  2. parallel: column totals over each thread's bucket range; then
//     thread 0 serially prefix-scans the 256 bucket bases (the ~10% that
//     is not VLT-amenable);
//  3. parallel: column-wise per-stream offsets, then the scatter.
//
// Each thread's share of the buckets and each stream's share of the keys
// is rounded down to an even count (the loops take two per iteration).
// The remainder goes to the last thread: its bucket range runs to the
// end, and its last stream takes the leftover keys in a tail loop. The
// tails are emitted only when the split does not divide, which it does
// at 1, 2, 4 and 8 threads.
const (
	radixBuckets = 256
	radixStreams = 4 // independent key streams per thread
	radixMaxThr  = 8
	radixMaxRows = radixMaxThr * radixStreams
)

func radixKeys(p Params) []uint64 {
	n := 8192 * p.Scale
	r := newRNG(707)
	keys := make([]uint64, n)
	for i := range keys {
		keys[i] = uint64(r.intn(65536))
	}
	return keys
}

func buildRadix(p Params) *asm.Program {
	p = p.norm()
	keys := radixKeys(p)
	n := len(keys)
	rows := p.Threads * radixStreams
	bucketsPerThread := (radixBuckets / p.Threads) &^ 1
	seg := (n / rows) &^ 1 // keys per stream
	last := p.Threads - 1
	lastBuckets := radixBuckets - last*bucketsPerThread
	lastKeys := n - (rows-1)*seg // keys of the last thread's last stream

	b := asm.NewBuilder("radix")
	srcAddr := b.Data("keys", keys)
	dstAddr := b.Alloc("out", n)
	histAddr := b.Alloc("hist", radixMaxRows*radixBuckets)
	totAddr := b.Alloc("totals", radixBuckets)
	baseAddr := b.Alloc("bases", radixBuckets)
	offAddr := b.Alloc("offsets", radixMaxRows*radixBuckets)
	chkAddr := b.Alloc("chk", radixMaxThr)

	// Register plan. The pipelined loops use stream-indexed register
	// groups; the bookkeeping registers are reused across phases.
	var (
		pK   = []isa.Reg{isa.R(1), isa.R(2), isa.R(3), isa.R(4)}     // key pointers
		kCur = []isa.Reg{isa.R(5), isa.R(6), isa.R(7), isa.R(8)}     // current keys
		kNxt = []isa.Reg{isa.R(9), isa.R(10), isa.R(11), isa.R(12)}  // next keys
		pRow = []isa.Reg{isa.R(13), isa.R(14), isa.R(15), isa.R(16)} // hist/offset row bases
		cnt  = []isa.Reg{isa.R(21), isa.R(22), isa.R(23), isa.R(24)} // per-stream counters
		end  = isa.R(17)
		shft = isa.R(18)
		tmp  = isa.R(19)
		tmp2 = isa.R(20)
		pOut = isa.R(25)
		it   = isa.R(26)
		aux  = isa.R(27)
		aux2 = isa.R(28)
		vz   = isa.V(1)
		vA   = isa.V(2)
		vB   = isa.V(3)
	)
	rowBytes := int64(radixBuckets * 8)

	// onLast emits body for the last thread only, using scratch as the
	// comparison register. The split leaves the last thread more work
	// only when it does not divide, so nothing is emitted otherwise.
	onLast := func(more bool, scratch isa.Reg, body func()) {
		if !more {
			return
		}
		skip := b.NewLabel("notLast")
		b.MovI(scratch, int64(last))
		b.Bne(asm.RegTID, scratch, skip)
		body()
		b.Bind(skip)
	}
	// bucketRange sets end to this thread's bucket count.
	bucketRange := func() {
		b.MovI(end, int64(bucketsPerThread))
		onLast(lastBuckets != bucketsPerThread, tmp2, func() { b.MovI(end, int64(lastBuckets)) })
	}
	// keyTail runs the last stream's leftover keys one at a time: it
	// loads each key into kCur[3] and its row's bucket address into
	// cnt[3], then emits body. It follows a pipelined loop, which left
	// it = seg and pK[3] at the stream's next key.
	keyTail := func(body func()) {
		onLast(lastKeys != seg, aux, func() {
			tl := b.NewLabel("tail")
			tld := b.NewLabel("tailDone")
			b.MovI(end, int64(lastKeys))
			b.Bind(tl)
			b.Bge(it, end, tld)
			b.Ld(kCur[3], pK[3], 0)
			b.Srl(tmp, kCur[3], shft)
			b.AndI(tmp, tmp, radixBuckets-1)
			b.SllI(tmp, tmp, 3)
			b.Add(cnt[3], tmp, pRow[3])
			body()
			b.AddI(pK[3], pK[3], 8)
			b.AddI(it, it, 1)
			b.J(tl)
			b.Bind(tld)
		})
	}

	// streamSetup points pK[s] at stream s's segment of `from` and
	// pRow[s] at this thread's row s of `table`.
	streamSetup := func(from uint64, table uint64) {
		b.MovI(tmp, int64(seg*radixStreams*8))
		b.Mul(tmp, tmp, asm.RegTID)
		b.MovA(tmp2, from)
		b.Add(tmp2, tmp2, tmp)
		for s := 0; s < radixStreams; s++ {
			if s == 0 {
				b.Mov(pK[s], tmp2)
			} else {
				b.AddI(pK[s], pK[s-1], int64(seg*8))
			}
		}
		b.MovI(tmp, radixStreams*rowBytes)
		b.Mul(tmp, tmp, asm.RegTID)
		b.MovA(tmp2, table)
		b.Add(tmp2, tmp2, tmp)
		for s := 0; s < radixStreams; s++ {
			if s == 0 {
				b.Mov(pRow[s], tmp2)
			} else {
				b.AddI(pRow[s], pRow[s-1], rowBytes)
			}
		}
	}

	// --- vectorized key checksum (vector builds only) ---
	if !p.ScalarOnly {
		b.Mark(1)
		b.MovI(tmp, int64(n))
		b.Div(it, tmp, asm.RegNTH)
		b.Mul(tmp, it, asm.RegTID)
		b.SllI(tmp, tmp, 3)
		b.MovA(pOut, srcAddr)
		b.Add(pOut, pOut, tmp)
		b.MovI(aux, 0)
		b.Mov(end, it) // remaining words
		onLast(n%p.Threads != 0, tmp2, func() { b.MovI(end, int64(n-last*(n/p.Threads))) })
		stripMine(b, end, tmp2, func() {
			b.VLd(vA, pOut)
			b.VRedSum(tmp, vA)
			b.Add(aux, aux, tmp)
			b.SllI(tmp, tmp2, 3)
			b.Add(pOut, pOut, tmp)
		})
		b.MovA(tmp, chkAddr)
		b.SllI(tmp2, asm.RegTID, 3)
		b.Add(tmp, tmp, tmp2)
		b.St(aux, tmp, 0)
		b.Bar()
	}

	for pass := 0; pass < 2; pass++ {
		from, to := srcAddr, dstAddr
		if pass == 1 {
			from, to = dstAddr, srcAddr
		}
		shiftAmt := int64(8 * pass)

		// --- 1. zero histogram rows ---
		b.Mark(1)
		b.MovI(shft, shiftAmt)
		b.MovI(tmp, radixStreams*rowBytes)
		b.Mul(tmp, tmp, asm.RegTID)
		b.MovA(pOut, histAddr)
		b.Add(pOut, pOut, tmp)
		if p.ScalarOnly {
			b.MovI(it, 0)
			b.MovI(end, radixStreams*radixBuckets)
			zl := b.NewLabel("zero")
			zld := b.NewLabel("zeroDone")
			b.Bind(zl)
			b.Bge(it, end, zld)
			b.St(asm.RegZero, pOut, 0)
			b.St(asm.RegZero, pOut, 8)
			b.St(asm.RegZero, pOut, 16)
			b.St(asm.RegZero, pOut, 24)
			b.AddI(pOut, pOut, 32)
			b.AddI(it, it, 4)
			b.J(zl)
			b.Bind(zld)
		} else {
			b.MovI(end, radixStreams*radixBuckets)
			stripMine(b, end, tmp2, func() {
				b.VBcastI(vz, asm.RegZero)
				b.VSt(vz, pOut)
				b.SllI(tmp, tmp2, 3)
				b.Add(pOut, pOut, tmp)
			})
		}

		// --- local histograms: 4 streams, key loads pipelined ---
		streamSetup(from, histAddr)
		// prologue: load key 0 of each stream
		for s := 0; s < radixStreams; s++ {
			b.Ld(kCur[s], pK[s], 0)
		}
		b.MovI(it, 0)
		b.MovI(end, int64(seg))
		// histBody consumes the keys in cur and loads the following keys
		// into nxt (one iteration ahead).
		histBody := func(cur, nxt []isa.Reg) {
			for s := 0; s < radixStreams; s++ {
				b.Ld(nxt[s], pK[s], 8)
			}
			for s := 0; s < radixStreams; s++ {
				b.Srl(tmp, cur[s], shft)
				b.AndI(tmp, tmp, radixBuckets-1)
				b.SllI(tmp, tmp, 3)
				b.Add(cnt[s], tmp, pRow[s]) // cnt[s] = &hist[row s][bucket]
			}
			for s := 0; s < radixStreams; s++ {
				b.Ld(cur[s], cnt[s], 0) // reuse cur as the count value
			}
			for s := 0; s < radixStreams; s++ {
				b.AddI(cur[s], cur[s], 1)
				b.St(cur[s], cnt[s], 0)
				b.AddI(pK[s], pK[s], 8)
			}
		}
		hl := b.NewLabel("hist")
		hld := b.NewLabel("histDone")
		b.Bind(hl)
		b.Bge(it, end, hld)
		histBody(kCur, kNxt)
		// second body instance with banks swapped (steady-state pipeline)
		histBody(kNxt, kCur)
		b.AddI(it, it, 2)
		b.J(hl)
		b.Bind(hld)
		keyTail(func() {
			b.Ld(tmp, cnt[3], 0)
			b.AddI(tmp, tmp, 1)
			b.St(tmp, cnt[3], 0)
		})
		b.Bar()

		// --- 2a. parallel column totals over this thread's buckets ---
		b.MulI(tmp, asm.RegTID, int64(bucketsPerThread*8))
		b.MovA(pOut, totAddr)
		b.Add(pOut, pOut, tmp)
		b.MovA(pK[0], histAddr)
		b.Add(pK[0], pK[0], tmp)
		if p.ScalarOnly {
			// two buckets per iteration: independent accumulator chains
			b.MovI(it, 0)
			bucketRange()
			cl := b.NewLabel("colTot")
			cld := b.NewLabel("colTotDone")
			b.Bind(cl)
			b.Bge(it, end, cld)
			b.MovI(cnt[0], 0)
			b.MovI(cnt[1], 0)
			b.Mov(tmp, pK[0])
			b.MovI(aux, 0)
			rl := b.NewLabel("colRow")
			rld := b.NewLabel("colRowDone")
			b.Bind(rl)
			b.MovI(aux2, int64(rows))
			b.Bge(aux, aux2, rld)
			b.Ld(tmp2, tmp, 0)
			b.Ld(aux2, tmp, 8)
			b.Add(cnt[0], cnt[0], tmp2)
			b.Add(cnt[1], cnt[1], aux2)
			b.AddI(tmp, tmp, rowBytes)
			b.AddI(aux, aux, 1)
			b.J(rl)
			b.Bind(rld)
			b.St(cnt[0], pOut, 0)
			b.St(cnt[1], pOut, 8)
			b.AddI(pOut, pOut, 16)
			b.AddI(pK[0], pK[0], 16)
			b.AddI(it, it, 2)
			b.J(cl)
			b.Bind(cld)
		} else {
			bucketRange()
			stripMine(b, end, tmp2, func() {
				b.VBcastI(vA, asm.RegZero)
				b.Mov(tmp, pK[0])
				b.MovI(aux, 0)
				tl := b.NewLabel("totRow")
				tld := b.NewLabel("totRowDone")
				b.Bind(tl)
				b.MovI(aux2, int64(rows))
				b.Bge(aux, aux2, tld)
				b.VLd(vB, tmp)
				b.VAdd(vA, vA, vB)
				b.AddI(tmp, tmp, rowBytes)
				b.AddI(aux, aux, 1)
				b.J(tl)
				b.Bind(tld)
				b.VSt(vA, pOut)
				b.SllI(tmp, tmp2, 3)
				b.Add(pOut, pOut, tmp)
				b.Add(pK[0], pK[0], tmp)
			})
		}
		b.Bar()

		// --- 2b. thread 0: serial prefix scan (region 0) ---
		skipPfx := b.NewLabel("skipPfx")
		b.Bne(asm.RegTID, asm.RegZero, skipPfx)
		b.Mark(0)
		b.MovA(pOut, totAddr)
		b.MovA(pK[0], baseAddr)
		b.MovI(aux, 0)
		b.MovI(it, 0)
		b.MovI(end, radixBuckets)
		pl := b.NewLabel("prefix")
		pld := b.NewLabel("prefixDone")
		b.Bind(pl)
		b.Bge(it, end, pld)
		b.St(aux, pK[0], 0)
		b.Ld(tmp, pOut, 0)
		b.Add(aux, aux, tmp)
		b.AddI(pOut, pOut, 8)
		b.AddI(pK[0], pK[0], 8)
		b.AddI(it, it, 1)
		b.J(pl)
		b.Bind(pld)
		b.Bind(skipPfx)
		b.Bar()

		// --- 3. column-wise offsets (two buckets per iteration) ---
		b.Mark(2)
		b.MulI(tmp, asm.RegTID, int64(bucketsPerThread*8))
		b.MovA(pK[0], histAddr) // hist column pointer
		b.Add(pK[0], pK[0], tmp)
		b.MovA(pK[1], offAddr) // offsets column pointer
		b.Add(pK[1], pK[1], tmp)
		b.MovA(pK[2], baseAddr)
		b.Add(pK[2], pK[2], tmp)
		b.MovI(it, 0)
		bucketRange()
		ol := b.NewLabel("off")
		old := b.NewLabel("offDone")
		b.Bind(ol)
		b.Bge(it, end, old)
		b.Ld(cnt[0], pK[2], 0) // running starts for two buckets
		b.Ld(cnt[1], pK[2], 8)
		b.Mov(tmp, pK[0])
		b.Mov(tmp2, pK[1])
		b.MovI(aux, 0)
		il := b.NewLabel("offRow")
		ild := b.NewLabel("offRowDone")
		b.Bind(il)
		b.MovI(aux2, int64(rows))
		b.Bge(aux, aux2, ild)
		b.St(cnt[0], tmp2, 0)
		b.St(cnt[1], tmp2, 8)
		b.Ld(cnt[2], tmp, 0)
		b.Ld(cnt[3], tmp, 8)
		b.Add(cnt[0], cnt[0], cnt[2])
		b.Add(cnt[1], cnt[1], cnt[3])
		b.AddI(tmp, tmp, rowBytes)
		b.AddI(tmp2, tmp2, rowBytes)
		b.AddI(aux, aux, 1)
		b.J(il)
		b.Bind(ild)
		b.AddI(pK[0], pK[0], 16)
		b.AddI(pK[1], pK[1], 16)
		b.AddI(pK[2], pK[2], 16)
		b.AddI(it, it, 2)
		b.J(ol)
		b.Bind(old)
		b.Bar()

		// --- scatter: 4 streams, key loads pipelined ---
		streamSetup(from, offAddr)
		b.MovA(pOut, to)
		for s := 0; s < radixStreams; s++ {
			b.Ld(kCur[s], pK[s], 0)
		}
		b.MovI(it, 0)
		b.MovI(end, int64(seg))
		scatterBody := func(cur, nxt []isa.Reg) {
			for s := 0; s < radixStreams; s++ {
				b.Ld(nxt[s], pK[s], 8)
			}
			for s := 0; s < radixStreams; s++ {
				// cnt[s] = &offsets[row s][bucket(key)]
				b.Srl(tmp, cur[s], shft)
				b.AndI(tmp, tmp, radixBuckets-1)
				b.SllI(tmp, tmp, 3)
				b.Add(cnt[s], tmp, pRow[s])
			}
			for s := 0; s < radixStreams; s++ {
				b.Ld(tmp, cnt[s], 0) // position
				b.SllI(tmp2, tmp, 3)
				b.Add(tmp2, tmp2, pOut)
				b.St(cur[s], tmp2, 0) // out[pos] = key
				b.AddI(tmp, tmp, 1)
				b.St(tmp, cnt[s], 0)
				b.AddI(pK[s], pK[s], 8)
			}
		}
		sl := b.NewLabel("scatter")
		sld := b.NewLabel("scatterDone")
		b.Bind(sl)
		b.Bge(it, end, sld)
		scatterBody(kCur, kNxt)
		scatterBody(kNxt, kCur)
		b.AddI(it, it, 2)
		b.J(sl)
		b.Bind(sld)
		keyTail(func() {
			b.Ld(tmp, cnt[3], 0) // position
			b.SllI(tmp2, tmp, 3)
			b.Add(tmp2, tmp2, pOut)
			b.St(kCur[3], tmp2, 0)
			b.AddI(tmp, tmp, 1)
			b.St(tmp, cnt[3], 0)
		})
		b.Bar()
	}
	b.Mark(0)
	b.Halt()
	return b.MustAssemble()
}

func verifyRadix(machine *vm.VM, prog *asm.Program, p Params) error {
	p = p.norm()
	keys := radixKeys(p)
	want := make([]uint64, len(keys))
	copy(want, keys)
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	// Two passes: the final sorted array lands back in "keys".
	base := prog.Symbol("keys")
	for i, w := range want {
		if got := machine.Mem.MustRead(base + uint64(i)*8); got != w {
			return fmt.Errorf("radix: out[%d] = %d, want %d", i, got, w)
		}
	}
	if !p.ScalarOnly {
		seg := len(keys) / p.Threads
		for t := 0; t < p.Threads; t++ {
			to := (t + 1) * seg
			if t == p.Threads-1 {
				to = len(keys) // the last thread sums the remainder too
			}
			var sum uint64
			for _, k := range keys[t*seg : to] {
				sum += k
			}
			got := machine.Mem.MustRead(prog.Symbol("chk") + uint64(t)*8)
			if got != sum {
				return fmt.Errorf("radix: chk[%d] = %d, want %d", t, got, sum)
			}
		}
	}
	return nil
}

// Radix is the radix-sort workload (scalar threads, Figure 6).
var Radix = register(&Workload{
	Name:        "radix",
	Description: "parallel radix sort (SPLASH-2), scalar histogram/scatter",
	Class:       ScalarParallel,
	Paper: Table4Row{
		PercentVect: 6, AvgVL: 62.3, CommonVLs: []int{24, 52, 64}, OpportunityPct: 90,
	},
	Build:  buildRadix,
	Verify: verifyRadix,
})
